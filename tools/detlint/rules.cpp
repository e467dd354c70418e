// Rule passes + cross-file linking for detlint.
//
// Everything here works on FileScan::code — the comment/string-blanked
// source — so token matches are real code, never prose or literals. The
// analysis is lexical with just enough structure recovered (declarations,
// loops, function bodies) to make the determinism rules precise on this
// tree's idiom.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "detlint.hpp"

namespace detlint {

bool operator<(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

int line_at(const FileScan& fs, std::size_t offset) {
  const auto it = std::upper_bound(fs.line_starts.begin(),
                                   fs.line_starts.end(), offset);
  return static_cast<int>(it - fs.line_starts.begin());
}

/// Finds the next occurrence of `word` in `s` at or after `from` that is
/// a whole identifier (not a substring of a longer one). npos when none.
std::size_t find_word(const std::string& s, const std::string& word,
                      std::size_t from) {
  for (std::size_t at = s.find(word, from); at != std::string::npos;
       at = s.find(word, at + 1)) {
    const bool left_ok = at == 0 || !ident_char(s[at - 1]);
    const std::size_t end = at + word.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return at;
  }
  return std::string::npos;
}

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

/// Given `s[open]` in "<([{", returns the offset just past the matching
/// closer, treating the other bracket kinds as nested too (good enough
/// for type and argument lists). npos on imbalance.
std::size_t match_balanced(const std::string& s, std::size_t open) {
  const char oc = s[open];
  const char cc = oc == '<' ? '>' : oc == '(' ? ')' : oc == '[' ? ']' : '}';
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    const char c = s[i];
    if (c == oc) {
      ++depth;
    } else if (c == cc) {
      if (--depth == 0) return i + 1;
    } else if (oc == '<' && (c == ';' || c == '{')) {
      return std::string::npos;  // not a template argument list after all
    }
  }
  return std::string::npos;
}

std::string read_ident(const std::string& s, std::size_t i,
                       std::size_t* end = nullptr) {
  std::size_t j = i;
  while (j < s.size() && ident_char(s[j])) ++j;
  if (end != nullptr) *end = j;
  return s.substr(i, j - i);
}

/// Reads the identifier that *ends* at j (exclusive), walking backwards.
std::string ident_ending_at(const std::string& s, std::size_t j) {
  std::size_t b = j;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, j - b);
}

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",    "switch",  "return", "catch",
      "sizeof", "alignof", "decltype", "new",    "delete", "throw",
      "else",   "do",     "case",     "default", "static_assert",
  };
  return kw;
}

void add_finding(FileScan& fs, std::size_t offset, const std::string& rule,
                 const std::string& message) {
  Finding f;
  f.file = fs.path;
  f.line = line_at(fs, offset);
  f.rule = rule;
  f.message = message;
  // One finding per (line, rule): the token scans can hit the same
  // construct twice (e.g. std::rand matching both the qualified and the
  // call pattern).
  for (const Finding& g : fs.findings) {
    if (g.line == f.line && g.rule == f.rule) return;
  }
  fs.findings.push_back(f);
}

// --- Declaration harvesting -------------------------------------------

/// Collects identifiers declared with std::unordered_{map,set,...} types
/// (variables, members, and parameters) and names of functions returning
/// such a type. Also flags pointer-keyed containers (rule ptr-key).
void harvest_unordered(FileScan& fs) {
  static const std::vector<std::string> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "map", "set", "multimap", "multiset",
  };
  const std::string& code = fs.code;
  for (const std::string& cont : kContainers) {
    const bool unordered = cont.rfind("unordered", 0) == 0;
    for (std::size_t at = find_word(code, cont, 0); at != std::string::npos;
         at = find_word(code, cont, at + 1)) {
      // Require std:: (possibly ::std::) qualification so project types
      // named `map` don't match.
      if (at < 5 || code.compare(at - 5, 5, "std::") != 0) continue;
      std::size_t p = skip_ws(code, at + cont.size());
      if (p >= code.size() || code[p] != '<') continue;
      const std::size_t args_end = match_balanced(code, p);
      if (args_end == std::string::npos) continue;

      // Pointer-keyed container: '*' in the key (first) template
      // argument at top nesting level.
      {
        int depth = 0;
        for (std::size_t i = p; i < args_end; ++i) {
          const char c = code[i];
          if (c == '<' || c == '(') ++depth;
          if (c == '>' || c == ')') --depth;
          if (depth == 1 && c == ',') break;  // past the key argument
          if (depth == 1 && c == '*') {
            add_finding(fs, at, "ptr-key",
                        "std::" + cont +
                            " keyed on a pointer: ordering/iteration "
                            "depends on allocation addresses (ASLR), not "
                            "on the experiment seed");
            break;
          }
        }
      }
      if (!unordered) continue;

      // What follows the type: `&`/`*`/whitespace then an identifier.
      // Identifier followed by '(' is a function returning the type;
      // otherwise it is a declared variable/member/parameter.
      std::size_t q = skip_ws(code, args_end);
      while (q < code.size() && (code[q] == '&' || code[q] == '*')) {
        q = skip_ws(code, q + 1);
      }
      std::size_t id_end = q;
      const std::string id = read_ident(code, q, &id_end);
      if (id.empty() || std::isdigit(static_cast<unsigned char>(id[0]))) {
        continue;
      }
      const std::size_t after = skip_ws(code, id_end);
      if (after < code.size() && code[after] == '(') {
        fs.unordered_fns.insert(id);
      } else {
        fs.unordered_vars.insert(id);
      }
    }
  }
}

/// Collects identifiers declared float/double (skipping function names).
void harvest_floats(FileScan& fs) {
  const std::string& code = fs.code;
  for (const std::string& ty : {std::string("double"), std::string("float")}) {
    for (std::size_t at = find_word(code, ty, 0); at != std::string::npos;
         at = find_word(code, ty, at + 1)) {
      std::size_t p = skip_ws(code, at + ty.size());
      while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
        p = skip_ws(code, p + 1);
      }
      std::size_t id_end = p;
      const std::string id = read_ident(code, p, &id_end);
      if (id.empty() || std::isdigit(static_cast<unsigned char>(id[0]))) {
        continue;
      }
      const std::size_t after = skip_ws(code, id_end);
      if (after < code.size() && code[after] == '(') continue;  // function
      fs.float_vars.insert(id);
    }
  }
}

// --- Banned token rules ------------------------------------------------

struct TokenRule {
  const char* token;
  const char* rule;
  const char* message;
};

void scan_tokens(FileScan& fs) {
  static const std::vector<TokenRule> kRules = {
      {"rand", "entropy",
       "std::rand/rand(): ambient PRNG outside the seeded sim::RngStream"},
      {"srand", "entropy", "srand(): seeding the ambient PRNG"},
      {"random_device", "entropy",
       "std::random_device: hardware entropy can never reproduce a run"},
      {"drand48", "entropy", "drand48 family: ambient PRNG"},
      {"lrand48", "entropy", "drand48 family: ambient PRNG"},
      {"mrand48", "entropy", "drand48 family: ambient PRNG"},
      {"rand_r", "entropy", "rand_r(): ambient PRNG"},
      {"arc4random", "entropy", "arc4random(): kernel entropy"},
      {"getrandom", "entropy", "getrandom(): kernel entropy"},
      {"getentropy", "entropy", "getentropy(): kernel entropy"},
      {"time", "wallclock", "time(): wall-clock read"},
      {"clock", "wallclock", "clock(): CPU/wall-clock read"},
      {"gettimeofday", "wallclock", "gettimeofday(): wall-clock read"},
      {"clock_gettime", "wallclock", "clock_gettime(): wall-clock read"},
      {"system_clock", "wallclock", "std::chrono::system_clock"},
      {"steady_clock", "wallclock", "std::chrono::steady_clock"},
      {"high_resolution_clock", "wallclock",
       "std::chrono::high_resolution_clock"},
      {"localtime", "wallclock", "localtime(): wall-clock read"},
      {"gmtime", "wallclock", "gmtime(): wall-clock read"},
      {"mktime", "wallclock", "mktime(): wall-clock conversion"},
      {"__DATE__", "wallclock", "__DATE__: build-time stamp in output"},
      {"__TIME__", "wallclock", "__TIME__: build-time stamp in output"},
      {"shuffle", "raw-shuffle",
       "std::shuffle: use sim::RngStream::shuffle so the permutation "
       "consumes the seeded stream"},
      {"random_shuffle", "raw-shuffle", "std::random_shuffle (and removed "
       "in C++17)"},
      {"sample", "raw-shuffle",
       "std::sample: use sim::RngStream::sample/sample_prefix"},
  };
  const std::string& code = fs.code;
  for (const TokenRule& r : kRules) {
    const std::string tok = r.token;
    // time/clock/rand are common identifier tails: require an immediate
    // '(' and no member/namespace qualification other than std::.
    const bool call_shaped =
        tok == "rand" || tok == "srand" || tok == "time" || tok == "clock";
    // shuffle/sample are also the names of the project's *seeded*
    // RngStream API (and of per-protocol helpers taking an RngStream),
    // so only the explicitly qualified std::/ranges:: algorithms are
    // banned.
    const bool qualified_only =
        tok == "shuffle" || tok == "sample" || tok == "random_shuffle";
    for (std::size_t at = find_word(code, tok, 0); at != std::string::npos;
         at = find_word(code, tok, at + 1)) {
      if (call_shaped || qualified_only) {
        const std::size_t after = skip_ws(code, at + tok.size());
        if (after >= code.size() || code[after] != '(') continue;
        // `obj.sample(...)`, `rng().shuffle(...)`: member calls are the
        // project's own seeded API, not the std:: algorithm.
        std::size_t b = at;
        while (b > 0 &&
               std::isspace(static_cast<unsigned char>(code[b - 1]))) {
          --b;
        }
        if (b > 0 && (code[b - 1] == '.' ||
                      (b > 1 && code[b - 1] == '>' && code[b - 2] == '-'))) {
          continue;
        }
        const bool qualified =
            b > 1 && code[b - 1] == ':' && code[b - 2] == ':';
        if (qualified) {
          // Qualified: only std:: (or std::ranges::) is the banned one.
          const std::string ns = ident_ending_at(code, b - 2);
          if (ns != "std" && ns != "ranges") continue;
        } else if (qualified_only) {
          continue;
        }
      }
      add_finding(fs, at, r.rule, r.message);
    }
  }
}

// --- Loops and iteration ----------------------------------------------

struct LoopBody {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Records every for/while loop: analyzes range-for heads against the
/// unordered sets and returns body extents for the float-accum pass.
std::vector<LoopBody> scan_loops(FileScan& fs,
                                 const std::set<std::string>& unordered_fns) {
  std::vector<LoopBody> bodies;
  const std::string& code = fs.code;
  for (const std::string& kw : {std::string("for"), std::string("while")}) {
    for (std::size_t at = find_word(code, kw, 0); at != std::string::npos;
         at = find_word(code, kw, at + 1)) {
      const std::size_t open = skip_ws(code, at + kw.size());
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = match_balanced(code, open);
      if (close == std::string::npos) continue;
      const std::string head = code.substr(open + 1, close - open - 2);

      // Body extent: `{...}` or a single statement up to `;`.
      LoopBody body;
      std::size_t b = skip_ws(code, close);
      if (b < code.size() && code[b] == '{') {
        body.begin = b;
        body.end = match_balanced(code, b);
      } else {
        body.begin = b;
        body.end = code.find(';', b);
      }
      if (body.end == std::string::npos) body.end = code.size();
      bodies.push_back(body);

      if (kw != "for") continue;
      // Range-for: top-level ':' (ignore '::').
      std::size_t colon = std::string::npos;
      int depth = 0;
      for (std::size_t i = 0; i < head.size(); ++i) {
        const char c = head[i];
        if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
        if (depth == 0 && c == ':' &&
            (i == 0 || head[i - 1] != ':') &&
            (i + 1 >= head.size() || head[i + 1] != ':')) {
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) continue;
      std::string range = head.substr(colon + 1);
      // Trim.
      while (!range.empty() &&
             std::isspace(static_cast<unsigned char>(range.front()))) {
        range.erase(range.begin());
      }
      while (!range.empty() &&
             std::isspace(static_cast<unsigned char>(range.back()))) {
        range.pop_back();
      }

      // `for (x : ident)` over a declared unordered variable.
      bool plain_ident = !range.empty() && ident_char(range[0]);
      for (char c : range) {
        if (!ident_char(c)) plain_ident = false;
      }
      if (plain_ident && fs.unordered_vars.count(range) != 0) {
        add_finding(fs, at, "unordered-iter",
                    "range-for over std::unordered container '" + range +
                        "': iteration order is a hash-table accident, not "
                        "part of the experiment seed");
        continue;
      }
      // `for (x : expr.fn())` where fn returns an unordered container.
      if (range.size() >= 2 && range.compare(range.size() - 2, 2, "()") == 0) {
        const std::string fn = ident_ending_at(range, range.size() - 2);
        if (!fn.empty() && unordered_fns.count(fn) != 0) {
          add_finding(fs, at, "unordered-iter",
                      "range-for over unordered container returned by '" +
                          fn + "()'");
        }
      }
    }
  }

  // Explicit iterator loops: `X.begin()` / `X.cbegin()` on an unordered
  // variable (the range-for pass cannot see these).
  for (const std::string& b : {std::string("begin"), std::string("cbegin")}) {
    for (std::size_t at = find_word(code, b, 0); at != std::string::npos;
         at = find_word(code, b, at + 1)) {
      const std::size_t after = skip_ws(code, at + b.size());
      if (after >= code.size() || code[after] != '(') continue;
      if (at == 0 || code[at - 1] != '.') continue;
      const std::string obj = ident_ending_at(code, at - 1);
      if (!obj.empty() && fs.unordered_vars.count(obj) != 0) {
        add_finding(fs, at, "unordered-iter",
                    "iterator walk over std::unordered container '" + obj +
                        "'");
      }
    }
  }
  return bodies;
}

/// float-accum: raw `+=` into a float/double inside a loop, scoped to
/// src/metrics/ — the layer whose sums become published numbers.
void scan_float_accum(FileScan& fs, const std::vector<LoopBody>& loops) {
  if (fs.path.find("src/metrics/") == std::string::npos) return;
  const std::string& code = fs.code;
  for (std::size_t at = code.find("+="); at != std::string::npos;
       at = code.find("+=", at + 2)) {
    std::size_t b = at;
    while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1]))) {
      --b;
    }
    const std::string lhs = ident_ending_at(code, b);
    if (lhs.empty() || fs.float_vars.count(lhs) == 0) continue;
    bool in_loop = false;
    for (const LoopBody& l : loops) {
      if (at >= l.begin && at < l.end) {
        in_loop = true;
        break;
      }
    }
    if (!in_loop) continue;
    add_finding(fs, at, "float-accum",
                "raw '" + lhs +
                    " +=' accumulation in a loop: float addition is "
                    "order-sensitive; use Welford (exp::Accum) or justify "
                    "the iteration order in a suppression");
  }
}

/// rng-lineage: duplicate `(receiver, literal-tag)` fork pairs within a
/// file, and static/thread_local RngStream declarations. fork() hashes
/// (lineage, tag) and nothing else, so two forks of the same receiver
/// with the same tag are the *same* stream — two components believing
/// they draw independently actually draw identically. A static stream is
/// one stream shared across node-affine handlers: its draw order is a
/// batch-scheduling accident under --world-jobs > 1.
void scan_rng_lineage(FileScan& fs) {
  const std::string& code = fs.code;
  std::map<std::pair<std::string, unsigned long long>, int> seen;
  for (std::size_t at = find_word(code, "fork", 0); at != std::string::npos;
       at = find_word(code, "fork", at + 1)) {
    const std::size_t open = skip_ws(code, at + 4);
    if (open >= code.size() || code[open] != '(') continue;
    // Member-call shape with a nameable receiver: `recv.fork(` /
    // `recv->fork(`. Chained receivers (`x.fork(a).fork(b)`) have no
    // single identifier to key on and are skipped.
    std::size_t b = at;
    while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1]))) {
      --b;
    }
    std::string recv;
    if (b > 0 && code[b - 1] == '.') {
      recv = ident_ending_at(code, b - 1);
    } else if (b > 1 && code[b - 1] == '>' && code[b - 2] == '-') {
      recv = ident_ending_at(code, b - 2);
    }
    if (recv.empty()) continue;
    const std::size_t close = match_balanced(code, open);
    if (close == std::string::npos) continue;
    std::string arg = code.substr(open + 1, close - open - 2);
    while (!arg.empty() &&
           std::isspace(static_cast<unsigned char>(arg.front()))) {
      arg.erase(arg.begin());
    }
    while (!arg.empty() &&
           std::isspace(static_cast<unsigned char>(arg.back()))) {
      arg.pop_back();
    }
    // Only integer-literal tags are auditable; expressions and variables
    // vary per call site.
    if (arg.empty() || !std::isdigit(static_cast<unsigned char>(arg[0]))) {
      continue;
    }
    char* end = nullptr;
    const unsigned long long tag = std::strtoull(arg.c_str(), &end, 0);
    if (end == nullptr || *end != '\0') continue;
    const auto key = std::make_pair(recv, tag);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      add_finding(fs, at, "rng-lineage",
                  "duplicate fork tag " + arg + " on '" + recv +
                      "' (first forked at line " + std::to_string(it->second) +
                      "): fork() hashes (lineage, tag), so both sites draw "
                      "the *same* stream");
    } else {
      seen.emplace(key, line_at(fs, at));
    }
  }

  for (std::size_t at = find_word(code, "RngStream", 0);
       at != std::string::npos; at = find_word(code, "RngStream", at + 1)) {
    // Walk back over namespace qualification to the preceding keyword.
    std::size_t j = at;
    bool flagged = false;
    while (!flagged) {
      while (j > 0 && std::isspace(static_cast<unsigned char>(code[j - 1]))) {
        --j;
      }
      if (j >= 2 && code[j - 1] == ':' && code[j - 2] == ':') {
        j -= 2;
        continue;
      }
      const std::string id = ident_ending_at(code, j);
      if (id == "sim" || id == "croupier") {
        j -= id.size();
        continue;
      }
      if (id == "static" || id == "thread_local") {
        add_finding(fs, at, "rng-lineage",
                    "static/thread_local RngStream: one stream shared "
                    "across node-affine handlers — its draw order depends "
                    "on batch scheduling, not on the experiment seed");
        flagged = true;
      }
      break;
    }
  }
}

// --- Function extraction (for finding attribution) ----------------------

void extract_functions(FileScan& fs) {
  const std::string& code = fs.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '(') continue;
    // Identifier directly before '(' — candidate function name.
    std::size_t b = i;
    while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1]))) {
      --b;
    }
    const std::string name = ident_ending_at(code, b);
    if (name.empty() || cpp_keywords().count(name) != 0) continue;
    const std::size_t close = match_balanced(code, i);
    if (close == std::string::npos) continue;
    // Walk what follows: qualifiers, trailing return, ctor init list —
    // a '{' before any ';' means this was a definition. Two bail-outs
    // keep calls from masquerading as definitions: an unbalanced ')'
    // means the "name(...)" was a nested call inside an enclosing
    // argument list, and a top-level ',' before any ctor-init ':' means
    // it was one argument among several (the classic false positive is
    // `call(args), more_args, [capture] { ... }` — a lambda argument
    // whose body would otherwise be credited to a phantom function).
    std::size_t p = close;
    bool is_def = false;
    bool saw_init_colon = false;
    int paren_depth = 0;
    while (p < code.size()) {
      const char c = code[p];
      if (c == '(') ++paren_depth;
      if (c == ')') {
        if (--paren_depth < 0) break;  // nested call, not a declarator
      }
      if (paren_depth == 0 && c == ':') {
        const bool scope = (p > 0 && code[p - 1] == ':') ||
                           (p + 1 < code.size() && code[p + 1] == ':');
        if (!scope) saw_init_colon = true;
      }
      if (paren_depth == 0 && c == ',' && !saw_init_colon) break;
      if (paren_depth == 0 && c == ';') break;
      if (paren_depth == 0 && c == '=') break;  // `= default`, assignment
      if (paren_depth == 0 && c == '{') {
        is_def = true;
        break;
      }
      ++p;
    }
    if (!is_def) continue;
    const std::size_t body_end = match_balanced(code, p);
    if (body_end == std::string::npos) continue;

    FunctionDef def;
    def.name = name;
    def.body_begin = p;
    def.body_end = body_end;
    fs.functions.push_back(def);
  }
}

}  // namespace

void analyze(FileScan& fs) {
  harvest_unordered(fs);
  harvest_floats(fs);
  scan_tokens(fs);
  scan_rng_lineage(fs);
  extract_functions(fs);
}

const std::set<std::string>& Linter::rule_ids() {
  static const std::set<std::string> ids = {
      "entropy",     "wallclock",   "unordered-iter", "ptr-key",
      "raw-shuffle", "float-accum", "rng-lineage",    "suppression",
  };
  return ids;
}

void Linter::add_file(const std::string& path, const std::string& content) {
  FileScan fs = preprocess(path, content);
  analyze(fs);
  files_.push_back(std::move(fs));
}

std::vector<Finding> Linter::run() {
  // Merge unordered-returning function names across files: a range-for
  // over `world.class_map()` in a bench must see world.hpp's signature.
  std::set<std::string> unordered_fns;
  for (const FileScan& fs : files_) {
    unordered_fns.insert(fs.unordered_fns.begin(), fs.unordered_fns.end());
  }

  // Members are declared in the header and iterated in the paired
  // source file: union foo.hpp's declarations into foo.cpp's sets.
  // (Deliberately pairwise, not global — a vector named like another
  // file's hash map must not taint unrelated files.)
  {
    std::map<std::string, const FileScan*> headers;
    for (const FileScan& fs : files_) {
      const std::size_t dot = fs.path.rfind('.');
      if (dot == std::string::npos) continue;
      const std::string ext = fs.path.substr(dot);
      if (ext == ".hpp" || ext == ".h") {
        headers[fs.path.substr(0, dot)] = &fs;
      }
    }
    for (FileScan& fs : files_) {
      const std::size_t dot = fs.path.rfind('.');
      if (dot == std::string::npos) continue;
      const std::string ext = fs.path.substr(dot);
      if (ext != ".cpp" && ext != ".cc" && ext != ".cxx") continue;
      const auto it = headers.find(fs.path.substr(0, dot));
      if (it == headers.end()) continue;
      fs.unordered_vars.insert(it->second->unordered_vars.begin(),
                               it->second->unordered_vars.end());
      fs.float_vars.insert(it->second->float_vars.begin(),
                           it->second->float_vars.end());
    }
  }

  // Iteration + accumulation passes (need the merged function set).
  for (FileScan& fs : files_) {
    const std::vector<LoopBody> loops = scan_loops(fs, unordered_fns);
    scan_float_accum(fs, loops);
  }

  // Attribute findings to their innermost enclosing function.
  std::vector<Finding> all;
  for (FileScan& fs : files_) {
    for (Finding f : fs.findings) {
      const std::size_t offset =
          fs.line_starts[static_cast<std::size_t>(f.line - 1)];
      const FunctionDef* best = nullptr;
      for (const FunctionDef& def : fs.functions) {
        if (offset >= def.body_begin && offset < def.body_end &&
            (best == nullptr ||
             def.body_begin > best->body_begin)) {
          best = &def;
        }
      }
      if (best != nullptr) f.function = best->name;
      all.push_back(std::move(f));
    }
  }

  // Suppressions: same line, a comment block ending on the line directly
  // above, or file-level.
  std::vector<Finding> surviving;
  for (Finding& f : all) {
    bool suppressed = false;
    for (FileScan& fs : files_) {
      if (fs.path != f.file) continue;
      for (Suppression& sup : fs.suppressions) {
        const bool rule_match =
            std::find(sup.rules.begin(), sup.rules.end(), f.rule) !=
            sup.rules.end();
        if (!rule_match) continue;
        if (sup.reason.size() < 8) continue;  // bad suppression: no effect
        if (sup.file_level || sup.line == f.line ||
            sup.end_line == f.line - 1) {
          sup.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) surviving.push_back(std::move(f));
  }

  // Meta-rule: malformed or dead suppressions are findings themselves.
  for (const FileScan& fs : files_) {
    for (const Suppression& sup : fs.suppressions) {
      Finding f;
      f.file = fs.path;
      f.line = sup.line;
      f.rule = "suppression";
      if (sup.rules.empty()) {
        f.message = "detlint:allow with no rule list";
      } else if (sup.reason.size() < 8) {
        f.message =
            "suppression without a written reason (need >= 8 characters "
            "explaining why this site is determinism-safe)";
      } else {
        std::string unknown;
        for (const std::string& r : sup.rules) {
          if (rule_ids().count(r) == 0 || r == "suppression") {
            unknown = r;
            break;
          }
        }
        if (!unknown.empty()) {
          f.message = "suppression names unknown rule '" + unknown + "'";
        } else if (!sup.used) {
          f.message = "unused suppression for rule '" + sup.rules.front() +
                      "': the finding it justified is gone; delete it";
        } else {
          continue;
        }
      }
      surviving.push_back(std::move(f));
    }
  }

  std::sort(surviving.begin(), surviving.end());
  return surviving;
}

std::string format(const Finding& f) {
  std::ostringstream os;
  os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message;
  if (!f.function.empty()) os << " (in '" << f.function << "')";
  return os.str();
}

}  // namespace detlint
