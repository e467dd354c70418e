#!/usr/bin/env bash
# A wall-clock sampling profiler for one program run, for hosts without
# perf (gprof gets about 50 samples from a half-second run).
#
#   scripts/sample_profile.sh [--main-only] [--group=REGEX]...
#                             -- PROGRAM [ARGS...]
#
# It builds a small LD_PRELOAD library with cc into a temporary directory
# and runs PROGRAM under it. The library arms a CLOCK_MONOTONIC timer that
# raises SIGPROF every 50 microseconds of wall time. On each signal it
# records the program counter and, on the main thread, the frame-pointer
# chain, reading only the main stack between the stack pointer and its
# top. libc and libm keep no frame pointers, so when the sample lands in
# a library the caller in the program is taken from the top stack words:
# the first that returns into the program just after a call. When the
# process exits it writes the samples and a copy of /proc/self/maps.
#
# The report resolves every address with addr2line against the file it
# was mapped from (the program, libstdc++, libc, libm), and prints each
# function's self share (samples whose innermost frame it is) and
# inclusive share (samples with it anywhere on the stack, inlined callers
# included). Addresses in libraries without debug information resolve to
# the nearest exported symbol before them and are tagged with the
# library's name. Each --group=REGEX adds one line: the share of samples
# with any function on the stack that matches REGEX. Anchor it at a
# method, since parameter lists name classes too:
# --group='^croupier::sim::EventQueue::\w+\(' is the event queue's share.
#
# Build the program with -g -fno-omit-frame-pointer, or every chain stops
# at its first frame. Worker-thread samples carry only their program
# counter; for multi-threaded runs (suite_workload --world-jobs=4), pass
# --main-only to count only the stacks that contain main.
#
# The tool acts only on the profiled process and changes no system
# setting. Child processes inherit the library and are profiled too, each
# into its own files, and the report pools them. A process that installs
# its own SIGPROF handler or leaves through _exit records nothing.
#
# Example (a frame-pointer build of bench/suite):
#   cmake -S bench/suite -B <dir> -DCMAKE_BUILD_TYPE=Release \
#     -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer"
#   cmake --build <dir> -j
#   scripts/sample_profile.sh -- <dir>/suite_workload --spec="..." \
#     --seed=1 --world-jobs=1 --mode=plain
set -euo pipefail

main_only=0
groups=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --main-only) main_only=1 ;;
    --group=*) groups+=("${1#*=}") ;;
    --) shift; break ;;
    *) echo "sample_profile.sh: unknown option $1 (program goes after --)" >&2
       exit 2 ;;
  esac
  shift
done
if [[ $# -eq 0 ]]; then
  echo "usage: scripts/sample_profile.sh [options] -- PROGRAM [ARGS...]" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/out"

cat > "$tmp/sampler.c" <<'C'
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kIntervalUs = 50, kMaxDepth = 64, kBufferMib = 64, kLeafScanWords = 8 };

/* Records [n, pc, return address 1, ..., return address n-1], packed.
   An unwritten slot reads 0, which ends the log. */
static uintptr_t* log_words;
static size_t log_capacity;
static size_t log_used;
static unsigned long dropped;
static uintptr_t main_stack_lo, main_stack_hi;
static timer_t timer;
static int armed;
static pid_t sampled_pid;  /* a forked child has no timer and no samples */
static uintptr_t text_lo, text_hi;  /* the program's executable segment */

/* dl_iterate_phdr visits the program first. */
static int find_program_text(struct dl_phdr_info* info, size_t size,
                             void* data) {
  (void)size;
  (void)data;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X) != 0) {
      text_lo = info->dlpi_addr + ph->p_vaddr;
      text_hi = text_lo + ph->p_memsz;
    }
  }
  return 1;
}

/* Whether `ret` is a return address into the program: it follows a call. */
static int returns_into_program(uintptr_t ret) {
  if (ret < text_lo + 8 || ret >= text_hi) return 0;
  const unsigned char* code = (const unsigned char*)ret;
#if defined(__x86_64__)
  return code[-5] == 0xe8 ||                              /* call rel32 */
         (code[-6] == 0xff && code[-5] == 0x15) ||        /* call *GOT */
         (code[-2] == 0xff && (code[-1] & 0xf8) == 0xd0); /* call *%reg */
#else
  uint32_t insn;
  memcpy(&insn, code - 4, sizeof insn);
  return (insn & 0xfc000000u) == 0x94000000u ||  /* bl */
         (insn & 0xfffffc1fu) == 0xd63f0000u;    /* blr */
#endif
}

static void on_sample(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = context;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
#else
#error "sample_profile.sh supports x86_64 and aarch64"
#endif
  uintptr_t frames[kMaxDepth];
  size_t n = 0;
  frames[n++] = pc;
  /* [sp, top of the main stack) is mapped, so the walk cannot fault. */
  if (sp >= main_stack_lo && sp < main_stack_hi) {
    /* A library function (libm, libc) keeps no frame pointer, so fp still
       names its caller's frame and the chain would skip that caller. Take
       the caller from the top few stack words instead: the first one that
       returns into the program just after a call. */
    if ((pc < text_lo || pc >= text_hi) && fp > sp) {
      const uintptr_t* word = (const uintptr_t*)sp;
      for (int i = 0; i < kLeafScanWords && (uintptr_t)&word[i] < fp; ++i) {
        if (returns_into_program(word[i])) {
          frames[n++] = word[i];
          break;
        }
      }
    }
    while (n < kMaxDepth && fp >= sp && fp % sizeof(uintptr_t) == 0 &&
           fp + 2 * sizeof(uintptr_t) <= main_stack_hi) {
      const uintptr_t* frame = (const uintptr_t*)fp;
      if (frame[1] == 0) break;
      frames[n++] = frame[1];
      if (frame[0] <= fp) break;
      fp = frame[0];
    }
  }
  const size_t at = __atomic_fetch_add(&log_used, n + 1, __ATOMIC_RELAXED);
  if (at + n + 1 > log_capacity) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  memcpy(&log_words[at + 1], frames, n * sizeof frames[0]);
  log_words[at] = n;
}

__attribute__((constructor)) static void start_sampling(void) {
  if (getenv("SAMPLE_PROFILE_DIR") == NULL) return;
  log_capacity = (size_t)kBufferMib * 1024 * 1024 / sizeof(uintptr_t);
  log_words = mmap(NULL, log_capacity * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (log_words == MAP_FAILED) return;
  pthread_attr_t attr;
  void* stack;
  size_t stack_size;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    if (pthread_attr_getstack(&attr, &stack, &stack_size) == 0) {
      main_stack_lo = (uintptr_t)stack;
      main_stack_hi = main_stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sample;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;
  struct sigevent event;
  memset(&event, 0, sizeof event);
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) return;
  struct itimerspec period;
  period.it_interval.tv_sec = 0;
  period.it_interval.tv_nsec = kIntervalUs * 1000;
  period.it_value = period.it_interval;
  if (timer_settime(timer, 0, &period, NULL) != 0) return;
  dl_iterate_phdr(find_program_text, NULL);
  sampled_pid = getpid();
  armed = 1;
}

__attribute__((destructor)) static void write_samples(void) {
  if (!armed || getpid() != sampled_pid) return;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  char path[4096];
  const char* dir = getenv("SAMPLE_PROFILE_DIR");
  snprintf(path, sizeof path, "%s/%d.samples", dir, (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  char exe[4096];
  const ssize_t exe_length = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[exe_length > 0 ? exe_length : 0] = '\0';
  fprintf(out, "# interval_us %d dropped %lu exe %s\n", kIntervalUs, dropped,
          exe);
  for (size_t at = 0; at < log_capacity && log_words[at] != 0;) {
    const size_t n = log_words[at];
    if (at + n + 1 > log_capacity) break;
    for (size_t i = 0; i < n; ++i) {
      fprintf(out, i == 0 ? "%lx" : " %lx",
              (unsigned long)log_words[at + 1 + i]);
    }
    fputc('\n', out);
    at += n + 1;
  }
  fclose(out);
  snprintf(path, sizeof path, "%s/%d.maps", dir, (int)getpid());
  FILE* maps_in = fopen("/proc/self/maps", "r");
  FILE* maps_out = fopen(path, "w");
  char line[4096];
  while (maps_in != NULL && maps_out != NULL &&
         fgets(line, sizeof line, maps_in) != NULL) {
    fputs(line, maps_out);
  }
  if (maps_in != NULL) fclose(maps_in);
  if (maps_out != NULL) fclose(maps_out);
}
C
cc -O2 -fPIC -shared -o "$tmp/libsampler.so" "$tmp/sampler.c" -lrt -lpthread

set +e
SAMPLE_PROFILE_DIR="$tmp/out" \
  LD_PRELOAD="$tmp/libsampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@"
status=$?
set -e

python3 - "$tmp/out" "$main_only" "${groups[@]}" <<'PY'
import collections
import glob
import os
import re
import struct
import subprocess
import sys

out_dir, main_only = sys.argv[1], sys.argv[2] == "1"
group_patterns = sys.argv[3:]
TOP = 25


def executable_mappings(path):
    """(start, end, file offset, file) of every executable file mapping."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                start, end = (int(x, 16) for x in parts[0].split("-"))
                maps.append((start, end, int(parts[2], 16), parts[5].strip()))
    return maps


_loads = {}


def load_segments(path):
    """(file offset, file size, virtual address) of each PT_LOAD segment."""
    if path not in _loads:
        segments = []
        try:
            with open(path, "rb") as f:
                header = f.read(64)
                phoff, = struct.unpack_from("<Q", header, 32)
                phentsize, phnum = struct.unpack_from("<HH", header, 54)
                for i in range(phnum):
                    f.seek(phoff + i * phentsize)
                    ptype, _, offset, vaddr, _, filesz = struct.unpack(
                        "<IIQQQQ", f.read(40))
                    if ptype == 1:
                        segments.append((offset, filesz, vaddr))
        except (OSError, struct.error):
            pass
        _loads[path] = segments
    return _loads[path]


def locate(addr, maps):
    """(file, address in the file's own virtual address space) or None."""
    for start, end, offset, path in maps:
        if start <= addr < end:
            file_offset = addr - start + offset
            for seg_offset, filesz, vaddr in load_segments(path):
                if seg_offset <= file_offset < seg_offset + filesz:
                    return path, file_offset - seg_offset + vaddr
            return path, file_offset
    return None


samples = []  # per sample: [(file, vaddr) or None], innermost first
interval = dropped = 0
programs = set()  # untagged in the report
for samples_path in sorted(glob.glob(os.path.join(out_dir, "*.samples"))):
    maps = executable_mappings(samples_path[: -len(".samples")] + ".maps")
    with open(samples_path) as f:
        for line in f:
            if line.startswith("#"):
                fields = line.split(maxsplit=6)
                interval, dropped = int(fields[2]), dropped + int(fields[4])
                programs.add(fields[6].strip())
                continue
            addrs = [int(x, 16) for x in line.split()]
            # A return address points after its call: resolve the call.
            frames = [locate(a if i == 0 else a - 1, maps)
                      for i, a in enumerate(addrs)]
            samples.append(frames)

by_file = collections.defaultdict(set)
for frames in samples:
    for frame in frames:
        if frame is not None:
            by_file[frame[0]].add(frame[1])
# Each address resolves to its chain of inlined functions, innermost
# first, so a function inlined into its caller still counts as itself.
chains = {}
for path, addrs in by_file.items():
    result = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(hex(a) for a in sorted(addrs)), capture_output=True,
        text=True)
    tag = "" if path in programs else f" [{os.path.basename(path)}]"
    lines = result.stdout.splitlines()
    i = 0
    while i < len(lines):
        addr, chain = int(lines[i], 16), []
        i += 1
        while i + 1 < len(lines) and not lines[i].startswith("0x"):
            chain.append(lines[i] + tag)
            i += 2
        chains[(path, addr)] = chain or ["??" + tag]

self_count, inclusive = collections.Counter(), collections.Counter()
groups = collections.Counter()
kept = 0
for frames in samples:
    stack = [chains[f] if f is not None else ["??"] for f in frames]
    functions = {name for chain in stack for name in chain}
    if main_only and "main" not in functions:
        continue
    kept += 1
    self_count[stack[0][0]] += 1
    inclusive.update(functions)
    for pattern in group_patterns:
        if any(re.search(pattern, name) for name in functions):
            groups[pattern] += 1

print(f"# sample_profile: {kept} of {len(samples)} samples kept"
      f"{' (stacks containing main)' if main_only else ''}, "
      f"every {interval} us, {dropped} dropped")
if kept == 0:
    sys.exit(0)
for pattern in group_patterns:
    print(f"# group /{pattern}/: {100 * groups[pattern] / kept:.1f}% "
          f"of kept samples")


def table(title, counter):
    print(f"\n## {title}\n  self%  incl%  function")
    for function, _ in counter.most_common(TOP):
        print(f"  {100 * self_count[function] / kept:5.1f}  "
              f"{100 * inclusive[function] / kept:5.1f}  {function[:120]}")


table("by self time", self_count)
table("by inclusive time", inclusive)
PY
exit "$status"
