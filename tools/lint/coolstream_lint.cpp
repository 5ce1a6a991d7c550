// coolstream_lint: repo-specific determinism and correctness checker.
//
// The simulator's contract is bit-determinism: the same seed must produce
// the same trace on every machine, thread count, and rebuild (the paper's
// Ineq. 1-2 / Eqs. 3-6 reproductions depend on it).  The compiler cannot
// enforce that contract, so this tool scans `src/` for the hazards that
// have historically broken it in P2P simulators:
//
//   wall-clock       wall-clock time sources (std::chrono clocks, time(),
//                    gettimeofday, ...) outside src/sim/ — all simulated
//                    time must flow through sim::Simulation::now()
//   std-random       std::rand/srand and <random> engines/distributions —
//                    their outputs differ across standard libraries; only
//                    sim::Rng (bit-exact xoshiro256++) is allowed
//   unordered-iter   iteration over std::unordered_{map,set} in protocol
//                    code (src/core, src/net, src/workload) — bucket order
//                    depends on hash seeding and allocation history
//   ptr-key          containers keyed by pointer — address-dependent
//                    ordering/hashing differs run to run (ASLR)
//   no-float         single-precision `float` anywhere in src/ — simulated
//                    time and sequence arithmetic are double/int64 only;
//                    float intermediates silently change results
//   pragma-once      every header must start its include guard with
//                    #pragma once
//   raw-new-delete   naked new/delete outside the slab allocator
//                    (src/sim/event_queue.h) — protocol code allocates
//                    through containers or the event slab
//
// PR 3 adds the domain-type rules that back core/units.h: protocol state
// must stay inside the strong types (Tick, SeqNum, SubstreamId, BitRate,
// ...) except at sanctioned serialization boundaries:
//
//   value-escape        .value() unwrap in protocol code (core, net, model,
//                       workload, baseline) — each boundary must carry an
//                       explicit value-escape lint:allow
//   raw-protocol-int    integer variable whose name says it holds a seq /
//                       tick / sub-stream — that state has a strong type
//   double-seconds-param  `double` function parameter named like a time
//                       span (…_seconds, hours, delay, timeout, period) in
//                       core / net / model / workload — pass units::Duration
//   include-layering    #include edge that violates the module layering
//                       (units < sim < net < {logging, model, baseline}
//                       < core < workload; analysis reads logs only) —
//                       cross-TU: the whole include graph is checked
//   odr-header-def      non-inline function definition at namespace scope
//                       in a header — an ODR violation once two TUs
//                       include it
//   hot-path-string     string formatting / encode() call in a per-tick
//                       protocol file (core/peer, core/system,
//                       core/buffer_map, core/sync_buffer, net/transport)
//                       — debug and cold-path sites carry an allow
//
// The shard-purity family (PR 7) prepares the sharded multi-core
// simulation: protocol code must hold no state that two shards could
// share, and every lock must be visible to Clang's capability analysis
// (core/thread_annotations.h):
//
//   mutable-global      namespace-scope mutable object in protocol code
//                       (core/net/model/workload/baseline) — shards would
//                       share it; make it per-System state or const
//   static-local-state  function-local `static` (non-const) in protocol
//                       code — one instance shared across every shard
//   unguarded-mutex-member  a raw std::mutex member (use sync::Mutex), or
//                       a sync::Mutex member in a file with no GUARDED_BY
//                       annotations
//   cross-peer-ptr      raw Peer*/System* (or reference) stored as a member
//                       of per-peer protocol state — dangles across shard
//                       boundaries; store net::NodeId and resolve through
//                       the owning System
//   atomic-in-protocol  std::atomic outside src/sim/ — atomics order
//                       nondeterministically and break bit-determinism
//   cross-shard-call    direct System::peer() lookup in parallel-phase
//                       protocol code (core/peer.*) — during the sharded
//                       tick another peer may be mid-mutation on a
//                       different worker; cross-peer interaction goes
//                       through the deferred-effect mailbox
//                       (core/tick_effects.h); provably serial sites are
//                       annotated with an allow in place
//
// Suppression: append a lint:allow comment listing the rule ids in
// parentheses — e.g. std-random — to the offending line, or put the
// comment alone on the preceding line.  A suppression that suppresses
// nothing is itself an error (stale-allow), so dead allows cannot rot in
// the tree; `--list-allows` prints the full suppression inventory.
//
// Shared-state census (`--census=<path|->`): walks the given roots and
// emits a machine-readable JSON inventory of every mutex, atomic,
// namespace-scope mutable object and function-local static, each of which
// must carry a one-line `// census: <why>` justification on its own or the
// preceding line.  `--census-check=<file>` recomputes the inventory and
// fails unless it is byte-identical to the checked-in allowlist
// (tools/lint/shared_state.json) — any new shared state fails review
// explicitly.  Regenerate after intentional changes with
// `coolstream_lint --census=tools/lint/shared_state.json src`.
//
// Fixture mode (`--fixtures <dir>`): every expected finding in a fixture
// file is annotated e.g. `// lint:expect(std-random)` on the same line (or
// `// lint:expect-file(pragma-once)` anywhere for whole-file findings).
// The tool verifies the findings and the expectations match
// exactly in both directions, which is how the linter tests itself; every
// rule must be expected somewhere in the corpus, so none goes untested.
//
// Exit status: 0 clean / expectations met, 1 findings / mismatches,
// 2 usage or I/O error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

enum class Rule {
  kWallClock,
  kStdRandom,
  kUnorderedIter,
  kPtrKey,
  kNoFloat,
  kPragmaOnce,
  kRawNewDelete,
  kValueEscape,
  kRawProtocolInt,
  kDoubleSecondsParam,
  kIncludeLayering,
  kOdrHeaderDef,
  kHotPathString,
  kMutableGlobal,
  kStaticLocalState,
  kUnguardedMutexMember,
  kCrossPeerPtr,
  kCrossShardCall,
  kAtomicInProtocol,
  kStaleAllow,
};

struct RuleInfo {
  Rule rule;
  const char* id;
  const char* message;
};

constexpr RuleInfo kRules[] = {
    {Rule::kWallClock, "wall-clock",
     "wall-clock time source; use sim::Simulation::now() (allowed only "
     "under src/sim/)"},
    {Rule::kStdRandom, "std-random",
     "standard-library RNG; use sim::Rng, whose output is bit-exact across "
     "platforms"},
    {Rule::kUnorderedIter, "unordered-iter",
     "iteration over an unordered container in protocol code; bucket order "
     "is not deterministic — iterate a sorted copy or use a vector/map"},
    {Rule::kPtrKey, "ptr-key",
     "container keyed by pointer; address order/hash changes every run "
     "(ASLR) — key by a stable id instead"},
    {Rule::kNoFloat, "no-float",
     "single-precision float; simulated-time and sequence arithmetic must "
     "use double (or integers) to stay bit-stable"},
    {Rule::kPragmaOnce, "pragma-once", "header is missing #pragma once"},
    {Rule::kRawNewDelete, "raw-new-delete",
     "naked new/delete outside the slab engine; use containers, "
     "make_unique, or the event slab"},
    {Rule::kValueEscape, "value-escape",
     ".value() unwrap in protocol code; keep the strong type, or mark the "
     "serialization/config boundary with lint:allow(value-escape)"},
    {Rule::kRawProtocolInt, "raw-protocol-int",
     "raw integer named like protocol state (seq/tick/sub-stream); use the "
     "strong types in core/units.h"},
    {Rule::kDoubleSecondsParam, "double-seconds-param",
     "double parameter carries a time span; take units::Duration so the "
     "compiler checks the dimension"},
    {Rule::kIncludeLayering, "include-layering",
     "#include crosses the module layering upward; only units < sim < net "
     "< {logging, model, baseline} < core < workload edges are allowed"},
    {Rule::kOdrHeaderDef, "odr-header-def",
     "non-inline function definition at namespace scope in a header; mark "
     "it inline/constexpr or move it to a .cpp"},
    {Rule::kHotPathString, "hot-path-string",
     "string formatting / encode() call in a protocol hot-path file; the "
     "control plane uses packed buffer maps and arena batches — mark "
     "debug/cold-path sites with lint:allow(hot-path-string)"},
    {Rule::kMutableGlobal, "mutable-global",
     "namespace-scope mutable state in protocol code; every shard would "
     "share it — make it per-System state or const"},
    {Rule::kStaticLocalState, "static-local-state",
     "function-local static in protocol code; one instance would be shared "
     "across every shard — hoist into per-System state or make it "
     "constexpr"},
    {Rule::kUnguardedMutexMember, "unguarded-mutex-member",
     "mutex member invisible to the capability analysis; use sync::Mutex "
     "with GUARDED_BY members (core/thread_annotations.h)"},
    {Rule::kCrossPeerPtr, "cross-peer-ptr",
     "raw Peer*/System* stored in protocol state; it dangles across shard "
     "boundaries — store net::NodeId and resolve through the owning "
     "System"},
    {Rule::kCrossShardCall, "cross-shard-call",
     "direct peer() lookup in parallel-phase protocol code; the peer may "
     "be mid-mutation on another shard's worker — defer the interaction "
     "through the effect mailbox (core/tick_effects.h), or mark a "
     "provably serial site with lint:allow(cross-shard-call)"},
    {Rule::kAtomicInProtocol, "atomic-in-protocol",
     "std::atomic outside src/sim/; atomics order nondeterministically "
     "across threads and break bit-determinism"},
    {Rule::kStaleAllow, "stale-allow",
     "lint:allow here suppresses nothing; remove the stale suppression"},
};

const RuleInfo* find_rule(const std::string& id) {
  for (const auto& r : kRules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

struct Finding {
  std::string file;
  int line = 0;  // 1-based; 0 = whole file
  Rule rule = Rule::kWallClock;
};

// ---------------------------------------------------------------------------
// Source preprocessing: strip comments and literals, keep line structure
// ---------------------------------------------------------------------------

/// Replaces comments and string/char literal contents with spaces so the
/// scanners never match inside them.  Newlines are preserved, so line
/// numbers in the stripped text equal line numbers in the original.
std::string strip_comments_and_literals(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out += "  ";
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || (!isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          st = St::kRaw;
          raw_delim.clear();
          std::size_t j = i + 2;
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          out += "  ";
          out.append(raw_delim.size() + 1, ' ');
          i = j;  // at '('
        } else if (c == '"') {
          st = St::kStr;
          out += '"';
        } else if (c == '\'') {
          st = St::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          out += '"';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out += '\'';
        } else {
          out += ' ';
        }
        break;
      case St::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          st = St::kCode;
          out.append(close.size(), ' ');
          i += close.size() - 1;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

// ---------------------------------------------------------------------------
// lint:allow / lint:expect annotations (parsed from the *raw* lines,
// because they live inside comments)
// ---------------------------------------------------------------------------

/// One lint:allow annotation; `used` flips when it suppresses a finding,
/// and an unused site is a stale-allow finding of its own.
struct AllowSite {
  int origin = 0;  // line the annotation is written on (1-based)
  std::string id;
  bool used = false;
};

struct Annotations {
  std::vector<AllowSite> allows;
  // (covered line, rule id) -> indices into `allows` (an annotation alone
  // on a comment line also covers the next line).
  std::map<std::pair<int, std::string>, std::vector<std::size_t>> allow_at;
  std::map<int, std::set<std::string>> expect;  // line -> rule ids
  std::set<std::string> expect_file;
  std::vector<std::string> errors;  // unknown rule ids etc.

  /// True when (line, id) is suppressed; marks the covering sites used.
  bool consume_allow(int line, const std::string& id) {
    const auto it = allow_at.find({line, id});
    if (it == allow_at.end()) return false;
    for (const std::size_t i : it->second) allows[i].used = true;
    return true;
  }
};

void parse_marker_list(const std::string& line, const std::string& marker,
                       int lineno, std::map<int, std::set<std::string>>* out,
                       std::set<std::string>* out_file,
                       std::vector<std::string>* errors,
                       const std::string& file) {
  std::size_t pos = 0;
  while ((pos = line.find(marker, pos)) != std::string::npos) {
    const std::size_t open = pos + marker.size();
    if (open >= line.size() || line[open] != '(') {
      ++pos;
      continue;
    }
    const std::size_t close = line.find(')', open);
    if (close == std::string::npos) {
      errors->push_back(file + ":" + std::to_string(lineno) +
                        ": malformed " + marker + " annotation");
      return;
    }
    std::string list = line.substr(open + 1, close - open - 1);
    std::stringstream ss(list);
    std::string id;
    while (std::getline(ss, id, ',')) {
      id.erase(std::remove_if(id.begin(), id.end(), ::isspace), id.end());
      if (id.empty()) continue;
      if (find_rule(id) == nullptr) {
        errors->push_back(file + ":" + std::to_string(lineno) +
                          ": unknown lint rule '" + id + "'");
        continue;
      }
      if (out != nullptr) (*out)[lineno].insert(id);
      if (out_file != nullptr) out_file->insert(id);
    }
    pos = close;
  }
}

Annotations parse_annotations(const std::vector<std::string>& raw_lines,
                              const std::string& file) {
  Annotations a;
  std::map<int, std::set<std::string>> allow_lines;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;
    const std::string& raw = raw_lines[i];
    // Annotations live in // comments: parse only from the first "//" on,
    // so a string literal mentioning the marker (the linter's own
    // diagnostics, generators, ...) is never treated as an annotation.
    const std::size_t cpos = raw.find("//");
    if (cpos == std::string::npos) continue;
    const std::string line = raw.substr(cpos);
    if (line.find("lint:") == std::string::npos) continue;
    parse_marker_list(line, "lint:allow", lineno, &allow_lines, nullptr,
                      &a.errors, file);
    parse_marker_list(line, "lint:expect-file", lineno, nullptr,
                      &a.expect_file, &a.errors, file);
    // Careful: "lint:expect-file" contains "lint:expect"; mask it.
    std::string masked = line;
    std::size_t p = 0;
    while ((p = masked.find("lint:expect-file", p)) != std::string::npos) {
      masked.replace(p, 16, "                ");
    }
    parse_marker_list(masked, "lint:expect", lineno, &a.expect, nullptr,
                      &a.errors, file);
  }
  for (const auto& [lineno, ids] : allow_lines) {
    // An allow alone on a comment line also covers the next line.
    const std::string& line = raw_lines[static_cast<std::size_t>(lineno - 1)];
    const std::size_t first = line.find_first_not_of(" \t");
    const bool comment_only =
        first != std::string::npos && line.compare(first, 2, "//") == 0;
    for (const auto& id : ids) {
      const std::size_t site = a.allows.size();
      a.allows.push_back({lineno, id, false});
      a.allow_at[{lineno, id}].push_back(site);
      if (comment_only) a.allow_at[{lineno + 1, id}].push_back(site);
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Scanners
// ---------------------------------------------------------------------------

struct FileContext {
  std::string display_path;  // as reported in findings
  bool is_header = false;
  bool in_sim = false;        // under a sim/ directory
  bool is_slab = false;       // the event-queue slab engine itself
  bool protocol = false;      // src/core, src/net, src/workload
  bool value_scope = false;   // value-escape applies (protocol + baseline)
  bool raw_int_scope = false;   // raw-protocol-int applies
  bool seconds_scope = false;   // double-seconds-param applies
  bool hot_path = false;        // hot-path-string applies (per-tick files)
  bool shard_scope = false;     // mutable-global / static-local-state apply
  bool cross_peer_scope = false;  // cross-peer-ptr applies (per-peer state)
  bool parallel_phase_scope = false;  // cross-shard-call applies (files whose
                                      // code runs inside sharded tick phases)
  bool atomic_scope = false;      // atomic-in-protocol applies
  bool mutex_scope = false;       // unguarded-mutex-member applies
  std::string module;  // layering module ("" = unconstrained, e.g. bench/)
};

// ---------------------------------------------------------------------------
// Shared-state census records (see --census / --census-check)
// ---------------------------------------------------------------------------

struct CensusRecord {
  std::string kind;  // "global" | "static-local" | "mutex" | "atomic"
  std::string file;  // repo-relative (src/...)
  std::string name;  // declared identifier
  int line = 0;      // 1-based, used to locate the justification comment
};

// ---------------------------------------------------------------------------
// Module layering (cross-TU: every #include edge in the tree is checked)
// ---------------------------------------------------------------------------

// Which modules each module may include.  `units` is the pseudo-module for
// core/units.h, the one header every layer may use.
const std::map<std::string, std::set<std::string>>& allowed_includes() {
  static const std::map<std::string, std::set<std::string>> m = {
      {"units", {"units"}},
      {"sim", {"sim", "units"}},
      {"net", {"net", "sim", "units"}},
      {"logging", {"logging", "net", "units"}},
      {"model", {"model", "units"}},
      {"baseline", {"baseline", "net", "sim", "units"}},
      {"core", {"core", "logging", "model", "net", "sim", "units"}},
      {"workload",
       {"workload", "core", "logging", "model", "net", "sim", "units"}},
      {"analysis", {"analysis", "logging", "net", "sim", "units"}},
  };
  return m;
}

/// Module of an include target ("" = out of scope, e.g. bench_util.h).
/// core/units.h and core/thread_annotations.h form the bottom (`units`)
/// pseudo-module that every layer, including src/sim/, may include.
std::string include_module(const std::string& target) {
  if (target == "core/units.h") return "units";
  if (target == "core/thread_annotations.h") return "units";
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return "";
  const std::string head = target.substr(0, slash);
  return allowed_includes().count(head) > 0 ? head : "";
}

/// Module of a scanned file: the last path component that names a module
/// (so both src/core/x.cpp and tests/lint/fixtures/core/x.cpp are "core").
std::string file_module(const std::string& display_path) {
  std::string mod;
  std::string comp;
  for (std::size_t i = 0; i <= display_path.size(); ++i) {
    if (i == display_path.size() || display_path[i] == '/') {
      if (comp != "units" && allowed_includes().count(comp) > 0) mod = comp;
      comp.clear();
    } else {
      comp += display_path[i];
    }
  }
  return mod;
}

const std::regex& wall_clock_re() {
  static const std::regex re(
      R"((std\s*::\s*chrono\s*::\s*(system_clock|steady_clock|high_resolution_clock))|(\bgettimeofday\s*\()|(\bclock_gettime\s*\()|(std\s*::\s*(time|clock)\s*\()|((^|[^\w.>:])(time|clock|localtime|gmtime|mktime)\s*\())");
  return re;
}

const std::regex& std_random_re() {
  static const std::regex re(
      R"((std\s*::\s*rand\b)|((^|[^\w.>:])s?rand\s*\()|(\brandom_device\b)|(\bmt19937(_64)?\b)|(\bminstd_rand0?\b)|(\bdefault_random_engine\b)|(\b\w+_distribution\s*<))");
  return re;
}

const std::regex& ptr_key_re() {
  // A map/set whose *first* template argument is a pointer type: no comma
  // may appear between '<' and the '*'.
  static const std::regex re(
      R"(\b(unordered_map|unordered_set|map|set|multimap|multiset)\s*<[^,<>]*\*)");
  return re;
}

const std::regex& no_float_re() {
  static const std::regex re(R"(\bfloat\b)");
  return re;
}

const std::regex& new_delete_re() {
  static const std::regex re(R"((\bnew\b)|(\bdelete\b))");
  return re;
}

const std::regex& deleted_fn_re() {
  static const std::regex re(R"((=\s*delete\b)|(\bdelete\s*;))");
  return re;
}

const std::regex& replacement_alloc_re() {
  // Global replacement allocators (counting benches/tests) and the <new>
  // header are infrastructure, not naked allocation.
  static const std::regex re(
      R"((\boperator\s+new\b)|(\boperator\s+delete\b)|(#\s*include\s*<new>))");
  return re;
}

const std::regex& value_escape_re() {
  static const std::regex re(R"(\.\s*value\s*\(\s*\))");
  return re;
}

const std::regex& raw_int_decl_re() {
  // An integer-typed declaration: capture the declared name.
  static const std::regex re(
      R"(\b(?:(?:std\s*::\s*)?u?int(?:8|16|32|64)_t|int|long(?:\s+long)?|short|unsigned(?:\s+(?:int|short|long(?:\s+long)?))?|(?:std\s*::\s*)?size_t)\s+([A-Za-z_]\w*)\s*[;,)=({[])");
  return re;
}

bool is_protocol_int_name(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(), ::tolower);
  if (name.find("count") != std::string::npos) return false;  // counts OK
  return name.find("seq") != std::string::npos ||
         name.find("tick") != std::string::npos ||
         name.find("substream") != std::string::npos ||
         name.find("sub_stream") != std::string::npos;
}

const std::regex& seconds_param_re() {
  // A double function *parameter* (delimited by , or )); fields and locals
  // end in ; or = and are the config boundary, which stays raw by design.
  static const std::regex re(R"(\bdouble\s+([A-Za-z_]\w*)\s*[,)])");
  return re;
}

bool is_seconds_name(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(), ::tolower);
  const auto ends_with = [&name](const char* suf) {
    const std::string s(suf);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with("_s") || ends_with("_secs") ||
         name.find("seconds") != std::string::npos ||
         name.find("hours") != std::string::npos ||
         name.find("period") != std::string::npos ||
         name.find("delay") != std::string::npos ||
         name.find("timeout") != std::string::npos ||
         name.find("interval") != std::string::npos;
}

const std::regex& hot_path_string_re() {
  // Formatting *call sites* only: member/std-qualified spellings, so a
  // declaration like `std::string_view to_string(MessageKind)` in the same
  // file does not match.
  static const std::regex re(
      R"((\.\s*encode\s*\()|(\bstd\s*::\s*to_string\s*\()|(\.\s*to_string\s*\()|(\bstringstream\b)|(\bsn?printf\s*\()|(\bstd\s*::\s*format\s*\())");
  return re;
}

const std::regex& include_detect_re() {
  // Runs on the *stripped* line (path chars are blanked but the quotes
  // survive), so commented-out includes never match.
  static const std::regex re(R"(^\s*#\s*include\s*")");
  return re;
}

const std::regex& include_path_re() {
  static const std::regex re(R"(#\s*include\s*"([^"]+)\")");
  return re;
}

const std::regex& unordered_decl_re() {
  // Declaration of a named unordered container: capture the variable name.
  static const std::regex re(
      R"(\bunordered_(?:map|set)\s*<[^;{]*>\s+(\w+)\s*[;({=])");
  return re;
}

const std::regex& raw_mutex_member_re() {
  // A raw standard mutex declared as a member/variable: capture the name.
  static const std::regex re(
      R"(\b(?:std\s*::\s*)?(?:mutex|recursive_mutex|timed_mutex|shared_mutex|shared_timed_mutex)\s+([A-Za-z_]\w*)\s*[;{])");
  return re;
}

const std::regex& sync_mutex_member_re() {
  // The annotated wrapper: fine on its own, but the file must then carry
  // GUARDED_BY annotations (otherwise the capability protects nothing).
  static const std::regex re(
      R"(\b(?:sync\s*::\s*)?Mutex\s+([A-Za-z_]\w*)\s*[;{])");
  return re;
}

const std::regex& atomic_use_re() {
  // std::atomic<T>, std::atomic_flag/std::atomic_bool/... or a bare
  // atomic<T> spelling.  Word-bounded so e.g. "atomicity" in an
  // identifier never matches.
  static const std::regex re(
      R"((\bstd\s*::\s*atomic\w*\b)|(\batomic\s*<))");
  return re;
}

const std::regex& atomic_decl_name_re() {
  // Named atomic declaration, for the census inventory.
  static const std::regex re(
      R"(\b(?:std\s*::\s*)?atomic\w*(?:\s*<[^;{=]*>)?\s+([A-Za-z_]\w*))");
  return re;
}

const std::regex& cross_peer_ptr_re() {
  static const std::regex re(
      R"(\b(?:core\s*::\s*)?(?:Peer|System)\s*[*&])");
  return re;
}

const std::regex& cross_shard_call_re() {
  // A System::peer() lookup through any object expression (`sys_.peer(`,
  // `system->peer(`).  In parallel-phase code the resolved Peer may live on
  // another shard and be mid-mutation on that shard's worker.
  static const std::regex re(R"((?:\.|->)\s*peer\s*\()");
  return re;
}

// ---------------------------------------------------------------------------
// Structural pass: one brace-tracking walk over the stripped text drives
//   * odr-header-def   (function definitions at namespace scope in headers)
//   * mutable-global   (namespace-scope mutable objects, incl. `static
//                       inline` class members and brace-initialized forms)
//   * static-local-state (function-local mutable `static`)
//   * cross-peer-ptr   (Peer*/System* members of protocol state)
// and collects the shared-state census records for --census.
// Class bodies are skipped for ODR purposes (members are implicitly
// inline); namespace/class/function scopes are tracked on a stack.
// ---------------------------------------------------------------------------

const std::regex& fn_introducer_re() {
  // A declarator that ends with a parameter list plus trailing specifiers:
  // the shape of a function definition's introducer.
  static const std::regex re(
      R"(\)\s*(?:const\b|noexcept\b(?:\s*\([^()]*\))?|override\b|final\b|&&?|\s)*(?:->[^{;]*)?$)");
  return re;
}

const std::regex& odr_exempt_re() {
  // inline/constexpr/template/... definitions are ODR-safe; `=` catches
  // lambdas and initializers; `#` catches stray preprocessor fragments.
  static const std::regex re(
      R"(\b(?:inline|constexpr|consteval|template|static|friend|extern)\b|[=#])");
  return re;
}

const std::regex& decl_keyword_re() {
  // A declaration introducer that is definitely *not* an object definition.
  static const std::regex re(
      R"(\b(?:using|typedef|namespace|class|struct|union|enum|template|friend|extern|static_assert|concept|requires|operator|return|if|for|while|switch|case|goto|public|private|protected|asm|new|delete|throw)\b)");
  return re;
}

const std::regex& const_decl_re() {
  static const std::regex re(R"(\bconst(?:expr|init|eval)?\b)");
  return re;
}

const std::regex& var_decl_re() {
  // "<type tokens> <name> [dims] [= init]" — the shape of an object
  // definition; captures the declared name.
  static const std::regex re(
      R"(^[A-Za-z_][\w:<>,*&\s.\[\]]*[\s&*>]([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=.*)?$)");
  return re;
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Best-effort name of the object a declaration introduces (census label).
std::string declared_name(const std::string& intro) {
  std::smatch m;
  if (std::regex_match(intro, m, var_decl_re())) return m[1].str();
  static const std::regex before_init_re(R"(([A-Za-z_]\w*)\s*[({=\[])");
  if (std::regex_search(intro, m, before_init_re)) return m[1].str();
  static const std::regex id_re(R"([A-Za-z_]\w*)");
  std::string last;
  for (auto it = std::sregex_iterator(intro.begin(), intro.end(), id_re);
       it != std::sregex_iterator(); ++it) {
    last = it->str();
  }
  return last.empty() ? "<unnamed>" : last;
}

/// True when `in` declares a mutable object (not a function, type alias, or
/// const/constexpr object).  A '(' before any '=' means a parameter list or
/// constructor-style init of a function declaration — rejected; a '(' after
/// '=' is just an initializer call.
bool is_mutable_var_decl(const std::string& in) {
  const std::size_t paren = in.find('(');
  const std::size_t eq = in.find('=');
  if (paren != std::string::npos &&
      (eq == std::string::npos || paren < eq)) {
    return false;
  }
  if (std::regex_search(in, decl_keyword_re())) return false;
  if (std::regex_search(in, const_decl_re())) return false;
  return std::regex_match(in, var_decl_re());
}

void scan_structure(const FileContext& ctx, const std::string& stripped,
                    std::vector<Finding>* findings,
                    std::vector<CensusRecord>* census) {
  static const std::regex ns_re(R"(\bnamespace\b)");
  static const std::regex class_re(R"(\b(?:class|struct|union|enum)\b)");
  static const std::regex static_re(R"(\bstatic\b)");
  static const std::regex inline_re(R"(\binline\b)");
  std::vector<char> scopes;  // 'n' namespace, 'c' class, 'f'/'o' other
  std::string intro;         // declaration text since the last ; { }
  int intro_line = 0;
  int line = 1;
  bool line_start = true;

  const auto ns_scope = [&scopes] {
    return std::all_of(scopes.begin(), scopes.end(),
                       [](char k) { return k == 'n'; });
  };
  const auto fn_scope = [&scopes] {
    return std::find(scopes.begin(), scopes.end(), 'f') != scopes.end();
  };
  const auto class_top = [&scopes] {
    return !scopes.empty() && scopes.back() == 'c';
  };

  const auto record = [&](const char* kind, const std::string& in, int at) {
    if (census != nullptr) {
      census->push_back({kind, ctx.display_path, declared_name(in), at});
    }
  };

  // Namespace-scope object, or a `static inline` class data member — both
  // are one process-wide instance every shard would share.
  const auto check_global = [&](const std::string& in, int at) {
    if (ns_scope()) {
      if (!is_mutable_var_decl(in)) return;
    } else if (class_top()) {
      if (!std::regex_search(in, static_re) ||
          !std::regex_search(in, inline_re) ||
          !is_mutable_var_decl(in)) {
        return;
      }
    } else {
      return;
    }
    record("global", in, at);
    if (ctx.shard_scope) {
      findings->push_back({ctx.display_path, at, Rule::kMutableGlobal});
    }
  };

  const auto check_static_local = [&](const std::string& in, int at) {
    if (!fn_scope()) return;
    if (!std::regex_search(in, static_re)) return;
    if (std::regex_search(in, const_decl_re())) return;  // immutable: fine
    record("static-local", in, at);
    if (ctx.shard_scope) {
      findings->push_back({ctx.display_path, at, Rule::kStaticLocalState});
    }
  };

  // A ';'-terminated member declaration holding Peer*/System*&.  Anything
  // with a parameter list (functions returning Peer*) is out of scope.
  const auto check_cross_peer = [&](const std::string& in, int at) {
    if (!ctx.cross_peer_scope || !class_top()) return;
    if (in.find('(') != std::string::npos) return;
    if (std::regex_search(in, decl_keyword_re())) return;
    if (!std::regex_search(in, cross_peer_ptr_re())) return;
    findings->push_back({ctx.display_path, at, Rule::kCrossPeerPtr});
  };

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      line_start = true;
      // Keep a token separator where the declaration wraps lines.
      if (!intro.empty() && intro.back() != ' ') intro += ' ';
      continue;
    }
    if (line_start && (c == ' ' || c == '\t')) continue;
    if (line_start && c == '#') {
      // Preprocessor directive (plus any \-continued lines): no
      // declaration in here, and a multi-line #define's braces must not
      // disturb the scope stack.
      for (;;) {
        std::size_t eol = i;
        while (eol < stripped.size() && stripped[eol] != '\n') ++eol;
        bool continued = false;
        for (std::size_t k = eol; k > i;) {
          --k;
          if (stripped[k] == ' ' || stripped[k] == '\t') continue;
          continued = stripped[k] == '\\';
          break;
        }
        i = eol;
        ++line;
        if (!continued || i >= stripped.size()) break;
        ++i;  // consume the newline; keep eating the continuation line
      }
      line_start = true;
      continue;
    }
    line_start = false;
    if (c == ';') {
      const std::string in = trim(intro);
      if (!in.empty()) {
        check_global(in, intro_line);
        check_static_local(in, intro_line);
        check_cross_peer(in, intro_line);
      }
      intro.clear();
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) scopes.pop_back();
      intro.clear();
      continue;
    }
    if (c == '{') {
      const std::string in = trim(intro);
      char kind = 'o';
      if (std::regex_search(in, ns_re)) {
        kind = 'n';
      } else if (std::regex_search(in, fn_introducer_re()) &&
                 !std::regex_search(in, std::regex("="))) {
        kind = 'f';
        if (ctx.is_header && ns_scope() && !in.empty() &&
            !std::regex_search(in, odr_exempt_re())) {
          findings->push_back(
              {ctx.display_path, intro_line, Rule::kOdrHeaderDef});
        }
      } else if (std::regex_search(in, class_re)) {
        kind = 'c';
      } else if (!in.empty()) {
        // Brace-initialized object definition: `Foo g{...};` etc.
        check_global(in, intro_line);
        check_static_local(in, intro_line);
      }
      scopes.push_back(kind);
      intro.clear();
      continue;
    }
    if (intro.empty()) {
      if (c == ' ' || c == '\t') continue;
      intro_line = line;
    }
    intro += c;
  }
}

void scan_file(const FileContext& ctx, const std::vector<std::string>& lines,
               const std::vector<std::string>& raw_lines,
               std::vector<Finding>* findings,
               std::vector<CensusRecord>* census) {
  // sync::Mutex members are only useful when the file actually annotates
  // what they guard; a raw standard mutex is never visible to the analysis.
  bool file_has_guarded_by = false;
  for (const auto& l : lines) {
    if (l.find("GUARDED_BY(") != std::string::npos) {
      file_has_guarded_by = true;
      break;
    }
  }
  // Whole-file rule: headers need #pragma once.
  if (ctx.is_header) {
    bool has_pragma = false;
    for (const auto& l : lines) {
      if (l.find("#pragma once") != std::string::npos) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      findings->push_back({ctx.display_path, 0, Rule::kPragmaOnce});
    }
  }

  // Collect names of unordered containers declared in this file (heuristic:
  // single-line declarations; multi-line template spellings are rare here).
  std::set<std::string> unordered_names;
  if (ctx.protocol) {
    for (const auto& l : lines) {
      std::smatch m;
      std::string rest = l;
      while (std::regex_search(rest, m, unordered_decl_re())) {
        unordered_names.insert(m[1].str());
        rest = m.suffix();
      }
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;
    const std::string& l = lines[i];

    if (!ctx.in_sim && std::regex_search(l, wall_clock_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kWallClock});
    }
    if (std::regex_search(l, std_random_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kStdRandom});
    }
    if (std::regex_search(l, ptr_key_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kPtrKey});
    }
    if (std::regex_search(l, no_float_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kNoFloat});
    }
    if (!ctx.is_slab && std::regex_search(l, new_delete_re()) &&
        !std::regex_search(l, deleted_fn_re()) &&
        !std::regex_search(l, replacement_alloc_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kRawNewDelete});
    }
    if (ctx.value_scope && std::regex_search(l, value_escape_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kValueEscape});
    }
    if (ctx.hot_path && std::regex_search(l, hot_path_string_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kHotPathString});
    }
    if (ctx.parallel_phase_scope &&
        std::regex_search(l, cross_shard_call_re())) {
      findings->push_back({ctx.display_path, lineno, Rule::kCrossShardCall});
    }
    if (ctx.mutex_scope) {
      std::smatch m;
      if (std::regex_search(l, m, raw_mutex_member_re())) {
        if (census != nullptr) {
          census->push_back({"mutex", ctx.display_path, m[1].str(), lineno});
        }
        findings->push_back(
            {ctx.display_path, lineno, Rule::kUnguardedMutexMember});
      } else if (std::regex_search(l, m, sync_mutex_member_re())) {
        if (census != nullptr) {
          census->push_back({"mutex", ctx.display_path, m[1].str(), lineno});
        }
        if (!file_has_guarded_by) {
          findings->push_back(
              {ctx.display_path, lineno, Rule::kUnguardedMutexMember});
        }
      }
    }
    if (std::regex_search(l, atomic_use_re())) {
      if (census != nullptr) {
        std::smatch m;
        const std::string name =
            std::regex_search(l, m, atomic_decl_name_re()) ? m[1].str()
                                                           : "<expr>";
        census->push_back({"atomic", ctx.display_path, name, lineno});
      }
      if (ctx.atomic_scope) {
        findings->push_back(
            {ctx.display_path, lineno, Rule::kAtomicInProtocol});
      }
    }
    if (ctx.raw_int_scope) {
      std::smatch m;
      std::string rest = l;
      while (std::regex_search(rest, m, raw_int_decl_re())) {
        if (is_protocol_int_name(m[1].str())) {
          findings->push_back(
              {ctx.display_path, lineno, Rule::kRawProtocolInt});
          break;
        }
        rest = m.suffix();
      }
    }
    if (ctx.seconds_scope) {
      std::smatch m;
      std::string rest = l;
      while (std::regex_search(rest, m, seconds_param_re())) {
        if (is_seconds_name(m[1].str())) {
          findings->push_back(
              {ctx.display_path, lineno, Rule::kDoubleSecondsParam});
          break;
        }
        rest = m.suffix();
      }
    }
    if (!ctx.module.empty() && std::regex_search(l, include_detect_re()) &&
        i < raw_lines.size()) {
      std::smatch m;
      if (std::regex_search(raw_lines[i], m, include_path_re())) {
        const std::string target = include_module(m[1].str());
        const auto it = allowed_includes().find(ctx.module);
        if (!target.empty() && it != allowed_includes().end() &&
            it->second.count(target) == 0) {
          findings->push_back(
              {ctx.display_path, lineno, Rule::kIncludeLayering});
        }
      }
    }
    if (ctx.protocol && !unordered_names.empty()) {
      bool hit = false;
      for (const auto& name : unordered_names) {
        // Lookups compare against .end() without touching .begin(); only
        // an actual traversal (range-for or .begin()) is order-dependent.
        const std::regex iter_re(R"(for\s*\([^;)]*:\s*)" + name + R"(\b)");
        const std::regex begin_re("\\b" + name + R"(\s*\.\s*c?begin\s*\()");
        if (std::regex_search(l, iter_re) || std::regex_search(l, begin_re)) {
          hit = true;
          break;
        }
      }
      if (hit) {
        findings->push_back({ctx.display_path, lineno, Rule::kUnorderedIter});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool has_suffix(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

FileContext make_context(const fs::path& path) {
  FileContext ctx;
  ctx.display_path = path.generic_string();
  const std::string p = "/" + ctx.display_path;
  ctx.is_header = has_suffix(ctx.display_path, ".h") ||
                  has_suffix(ctx.display_path, ".hpp");
  ctx.in_sim = p.find("/sim/") != std::string::npos;
  ctx.is_slab = ctx.in_sim && (has_suffix(p, "/event_queue.h") ||
                               has_suffix(p, "/event_queue.cpp"));
  ctx.protocol = p.find("/core/") != std::string::npos ||
                 p.find("/net/") != std::string::npos ||
                 p.find("/workload/") != std::string::npos;
  const bool in_core = p.find("/core/") != std::string::npos;
  const bool in_net = p.find("/net/") != std::string::npos;
  const bool in_model = p.find("/model/") != std::string::npos;
  const bool in_workload = p.find("/workload/") != std::string::npos;
  const bool in_baseline = p.find("/baseline/") != std::string::npos;
  const bool unit_layer = has_suffix(p, "/core/units.h") ||
                          has_suffix(p, "/core/stream_types.h") ||
                          has_suffix(p, "/core/thread_annotations.h");
  const bool config = has_suffix(p, "/core/params.h");
  ctx.value_scope =
      (in_core || in_net || in_model || in_workload || in_baseline) &&
      !unit_layer;
  ctx.raw_int_scope =
      (in_core || in_net || in_model || in_workload) && !unit_layer && !config;
  ctx.seconds_scope = (in_core || in_net || in_model || in_workload) &&
                      !unit_layer && !config;
  ctx.shard_scope =
      (in_core || in_net || in_model || in_workload || in_baseline) &&
      !unit_layer;
  ctx.cross_peer_scope = (in_core || in_workload) && !unit_layer;
  // The per-tick control-plane files: one BM copy/scan per partner per
  // period.  String formatting here is either a perf bug or debug-only.
  for (const char* hot : {"/core/peer.", "/core/system.", "/core/buffer_map.",
                          "/core/sync_buffer.", "/net/transport."}) {
    if (p.find(hot) != std::string::npos) {
      ctx.hot_path = true;
      break;
    }
  }
  // Peer code runs inside the sharded tick's parallel phases, where the
  // only safe cross-peer channel is the deferred-effect mailbox.  System
  // itself is exempt: it owns the phase barriers and does the resolving.
  ctx.parallel_phase_scope = p.find("/core/peer.") != std::string::npos;
  ctx.module = file_module(ctx.display_path);
  ctx.atomic_scope = !ctx.module.empty() && !ctx.in_sim && !unit_layer;
  ctx.mutex_scope = !ctx.module.empty();
  return ctx;
}

std::vector<fs::path> collect_files(const std::vector<std::string>& roots,
                                    std::vector<std::string>* errors) {
  std::vector<fs::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        const std::string p = it->path().generic_string();
        if (has_suffix(p, ".h") || has_suffix(p, ".hpp") ||
            has_suffix(p, ".cpp") || has_suffix(p, ".cc")) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.emplace_back(root);
    } else {
      errors->push_back("cannot open: " + root);
    }
  }
  // Deterministic report order, naturally.
  std::sort(files.begin(), files.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.generic_string() < b.generic_string();
            });
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

struct FileResult {
  std::vector<Finding> findings;       // after lint:allow suppression
  Annotations annotations;
};

FileResult lint_file(const fs::path& path, std::vector<std::string>* errors,
                     std::vector<CensusRecord>* census = nullptr,
                     std::vector<std::string>* raw_out = nullptr) {
  FileResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    errors->push_back("cannot read: " + path.generic_string());
    return result;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const std::vector<std::string> raw_lines = split_lines(text);
  const std::string stripped_text = strip_comments_and_literals(text);
  const std::vector<std::string> stripped = split_lines(stripped_text);
  const FileContext ctx = make_context(path);

  result.annotations = parse_annotations(raw_lines, ctx.display_path);
  for (const auto& e : result.annotations.errors) errors->push_back(e);

  std::vector<Finding> all;
  scan_file(ctx, stripped, raw_lines, &all, census);
  scan_structure(ctx, stripped_text, &all, census);

  for (const auto& f : all) {
    const char* id = kRules[static_cast<std::size_t>(f.rule)].id;
    if (f.line > 0 && result.annotations.consume_allow(f.line, id)) {
      continue;  // suppressed (and the allow site is marked used)
    }
    result.findings.push_back(f);
  }
  // A lint:allow that suppressed nothing is dead weight that hides future
  // regressions — report the annotation itself.
  for (const auto& site : result.annotations.allows) {
    if (!site.used) {
      result.findings.push_back(
          {ctx.display_path, site.origin, Rule::kStaleAllow});
    }
  }
  if (raw_out != nullptr) *raw_out = raw_lines;
  return result;
}

void print_finding(const Finding& f) {
  const RuleInfo& info = kRules[static_cast<std::size_t>(f.rule)];
  std::fprintf(stderr, "%s:%d: error: [%s] %s\n", f.file.c_str(),
               f.line > 0 ? f.line : 1, info.id, info.message);
}

/// Fixture mode: findings and lint:expect annotations must match exactly,
/// and every rule must be expected at least once across the corpus.
int run_fixture_mode(const std::vector<fs::path>& files) {
  int mismatches = 0;
  std::vector<std::string> errors;
  std::set<std::string> covered;  // rule ids with a lint:expect somewhere
  for (const auto& path : files) {
    FileResult r = lint_file(path, &errors);
    const std::string file = path.generic_string();

    // Expected (line, rule) pairs not yet matched.
    std::set<std::pair<int, std::string>> expected;
    for (const auto& [line, ids] : r.annotations.expect) {
      for (const auto& id : ids) expected.insert({line, id});
    }
    std::set<std::string> expected_file = r.annotations.expect_file;
    for (const auto& e : expected) covered.insert(e.second);
    covered.insert(expected_file.begin(), expected_file.end());

    for (const auto& f : r.findings) {
      const char* id = kRules[static_cast<std::size_t>(f.rule)].id;
      if (f.line == 0) {
        if (expected_file.erase(id) == 0) {
          std::fprintf(stderr, "%s: unexpected whole-file finding [%s]\n",
                       file.c_str(), id);
          ++mismatches;
        }
        continue;
      }
      if (expected.erase({f.line, id}) == 0) {
        std::fprintf(stderr, "%s:%d: unexpected finding [%s]\n", file.c_str(),
                     f.line, id);
        ++mismatches;
      }
    }
    for (const auto& [line, id] : expected) {
      std::fprintf(stderr, "%s:%d: expected [%s] but the linter was silent\n",
                   file.c_str(), line, id.c_str());
      ++mismatches;
    }
    for (const auto& id : expected_file) {
      std::fprintf(stderr,
                   "%s: expected whole-file [%s] but the linter was silent\n",
                   file.c_str(), id.c_str());
      ++mismatches;
    }
  }
  for (const auto& r : kRules) {
    if (covered.count(r.id) == 0) {
      std::fprintf(stderr, "rule [%s] has no lint:expect in the fixtures\n",
                   r.id);
      ++mismatches;
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
  if (mismatches == 0 && errors.empty()) {
    std::fprintf(stderr, "coolstream_lint: %zu fixture file(s) behaved as "
                 "annotated\n", files.size());
    return 0;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Shared-state census (--census / --census-check) and --list-allows
// ---------------------------------------------------------------------------

/// Repo-relative census path: trim everything before the last "/src/"
/// component so the inventory is stable however the tool is invoked.
std::string census_path(const std::string& p) {
  const std::size_t pos = p.rfind("/src/");
  if (pos != std::string::npos) return p.substr(pos + 1);
  return p;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct CensusEntry {
  std::string kind, file, name, why;
};

/// The `// census: <why>` justification for a record, from the same line or
/// the line above it.  Empty when the declaration carries none.
std::string census_why(const std::vector<std::string>& raw_lines, int line) {
  for (const int cand : {line, line - 1}) {
    if (cand < 1 || cand > static_cast<int>(raw_lines.size())) continue;
    const std::string& l = raw_lines[static_cast<std::size_t>(cand - 1)];
    const std::size_t comment = l.find("//");
    if (comment == std::string::npos) continue;
    const std::size_t mark = l.find("census:", comment);
    if (mark == std::string::npos) continue;
    return trim(l.substr(mark + 7));
  }
  return "";
}

std::string render_census(std::vector<CensusEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const CensusEntry& a, const CensusEntry& b) {
              return std::tie(a.file, a.kind, a.name) <
                     std::tie(b.file, b.kind, b.name);
            });
  std::string out;
  out += "{\n";
  out +=
      "  \"_comment\": \"Shared-state census: every mutex, atomic, "
      "namespace-scope mutable object and function-local static under src/. "
      "Each entry carries the in-source census justification. Regenerate "
      "from the repo root with: "
      "coolstream_lint --census=tools/lint/shared_state.json src\",\n";
  out += "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CensusEntry& e = entries[i];
    out += "    {\"kind\": \"" + json_escape(e.kind) + "\", \"file\": \"" +
           json_escape(e.file) + "\", \"name\": \"" + json_escape(e.name) +
           "\", \"why\": \"" + json_escape(e.why) + "\"}";
    out += i + 1 < entries.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// --census=<path|->: emit the inventory; --census-check=<file>: recompute
/// and require it byte-identical to the checked-in allowlist.
int run_census_mode(const std::vector<fs::path>& files,
                    const std::string& out_path, bool check) {
  std::vector<std::string> errors;
  std::vector<CensusEntry> entries;
  for (const auto& path : files) {
    std::vector<CensusRecord> records;
    std::vector<std::string> raw_lines;
    (void)lint_file(path, &errors, &records, &raw_lines);
    for (const auto& rec : records) {
      const std::string why = census_why(raw_lines, rec.line);
      if (why.empty()) {
        errors.push_back(rec.file + ":" + std::to_string(rec.line) +
                         ": shared state (" + rec.kind + " '" + rec.name +
                         "') without a `// census: <why>` justification");
      }
      entries.push_back({rec.kind, census_path(rec.file), rec.name, why});
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
  if (!errors.empty()) return 1;
  const std::string rendered = render_census(std::move(entries));

  if (check) {
    std::ifstream in(out_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "coolstream_lint: cannot read census file %s\n",
                   out_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    if (buf.str() != rendered) {
      std::fprintf(stderr,
                   "coolstream_lint: shared-state census drifted from %s\n"
                   "  The tree's mutexes/atomics/globals/static-locals no "
                   "longer match the checked-in inventory.\n"
                   "  If the change is intentional, regenerate with:\n"
                   "    coolstream_lint --census=%s <roots>\n"
                   "  and justify every new entry in review.\n",
                   out_path.c_str(), out_path.c_str());
      std::fprintf(stderr, "---- recomputed census ----\n%s",
                   rendered.c_str());
      return 1;
    }
    std::fprintf(stderr, "coolstream_lint: census matches %s\n",
                 out_path.c_str());
    return 0;
  }
  if (out_path == "-") {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "coolstream_lint: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  out << rendered;
  std::fprintf(stderr, "coolstream_lint: census written to %s\n",
               out_path.c_str());
  return 0;
}

/// --list-allows: the full suppression inventory, with liveness.
int run_list_allows(const std::vector<fs::path>& files) {
  std::vector<std::string> errors;
  std::size_t total = 0, stale = 0;
  for (const auto& path : files) {
    const FileResult r = lint_file(path, &errors);
    for (const auto& site : r.annotations.allows) {
      ++total;
      if (!site.used) ++stale;
      std::printf("%s:%d: lint:allow(%s)%s\n", path.generic_string().c_str(),
                  site.origin, site.id.c_str(),
                  site.used ? "" : "  [stale]");
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
  if (!errors.empty()) return 2;
  std::fprintf(stderr, "coolstream_lint: %zu allow(s), %zu stale\n", total,
               stale);
  return stale > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool fixture_mode = false;
  bool list_allows = false;
  std::string census_out;    // --census=<path|->
  std::string census_check;  // --census-check=<file>
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fixtures") {
      fixture_mode = true;
    } else if (arg == "--list-allows") {
      list_allows = true;
    } else if (arg.rfind("--census=", 0) == 0) {
      census_out = arg.substr(9);
    } else if (arg.rfind("--census-check=", 0) == 0) {
      census_check = arg.substr(15);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(
          stderr,
          "usage: coolstream_lint [--fixtures] [--list-allows]\n"
          "                       [--census=<path|->] [--census-check=<file>]\n"
          "                       <file-or-dir>...\n");
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "coolstream_lint: no paths given\n");
    return 2;
  }

  std::vector<std::string> errors;
  const std::vector<fs::path> files = collect_files(roots, &errors);
  if (files.empty()) {
    std::fprintf(stderr, "coolstream_lint: no source files found\n");
    return 2;
  }
  if (!census_check.empty()) return run_census_mode(files, census_check, true);
  if (!census_out.empty()) return run_census_mode(files, census_out, false);
  if (list_allows) return run_list_allows(files);
  if (fixture_mode) return run_fixture_mode(files);

  std::size_t finding_count = 0;
  for (const auto& path : files) {
    FileResult r = lint_file(path, &errors);
    for (const auto& f : r.findings) print_finding(f);
    finding_count += r.findings.size();
  }
  for (const auto& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
  if (!errors.empty()) return 2;
  if (finding_count > 0) {
    std::fprintf(stderr, "coolstream_lint: %zu finding(s) in %zu file(s)\n",
                 finding_count, files.size());
    return 1;
  }
  std::fprintf(stderr, "coolstream_lint: %zu file(s) clean\n", files.size());
  return 0;
}
