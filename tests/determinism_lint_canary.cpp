// Canary for scripts/determinism_lint.sh: references one symbol from
// every banned entropy and wall-clock family. Compiled into an object
// file that is linked into nothing; the `determinism_lint_canary` ctest
// checks that the lint reports each symbol, so a lint that has gone blind
// fails tier-1.
#include <sys/random.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <random>

std::int64_t determinism_lint_canary() {
  std::int64_t acc = std::rand();
  std::srand(1);
  unsigned seed = 1;
  acc += rand_r(&seed);
  acc += static_cast<std::int64_t>(drand48()) + lrand48();
  acc += arc4random();
  char buf[4];
  acc += getrandom(buf, sizeof(buf), 0) + getentropy(buf, sizeof(buf));
  std::random_device dev;
  acc += dev();

  std::time_t now = std::time(nullptr);
  acc += std::clock();
  timespec ts{};
  acc += clock_gettime(CLOCK_MONOTONIC, &ts);
  timeval tv{};
  acc += gettimeofday(&tv, nullptr);
  acc += std::localtime(&now)->tm_sec + std::gmtime(&now)->tm_sec;
  std::tm tm{};
  acc += std::mktime(&tm);
  acc += std::chrono::steady_clock::now().time_since_epoch().count();
  acc += std::chrono::system_clock::now().time_since_epoch().count();
  return acc;
}
