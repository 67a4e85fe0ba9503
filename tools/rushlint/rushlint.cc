// rushlint — the repo-specific determinism analyzer (README "Static safety",
// DESIGN.md §5f).
//
// The plan pipeline promises bit-identical output across runs, warm/cold
// peeling and dispatch seams.  scripts/lint.sh's grep rules cannot
// see through comments, strings or types, so the checks that need token
// context live here:
//
//   D1  no nondeterminism sources — std::rand/srand, std::random_device,
//       time(nullptr/NULL/0), system_clock/steady_clock/
//       high_resolution_clock — anywhere outside src/common/rng.* and
//       bench/.  Profiling code suppresses per-line with a reason.
//   D2  no iteration over std::unordered_map/unordered_set (range-for,
//       iterator for-loops, equal_range walks) in the plan-affecting
//       directories (src/core, src/tas, src/robust, src/estimator,
//       src/cluster, src/baselines): hash iteration order is unspecified
//       and leaks into anything the loop body touches in order.
//   D3  no std::sort in those directories whose comparator is a single
//       comparison on a double-typed key (Seconds, Utility, ...): doubles
//       tie, std::sort is unstable, so tied elements land in unspecified
//       order — add an id tiebreak or use std::stable_sort.
//   D4  suppressions must parse, carry a non-empty reason, actually
//       suppress something, and stay within the checked-in per-tag budget
//       (tools/rushlint/suppressions.baseline) — the budget can only
//       shrink.
//
// v2 adds the dimensional-safety rules (DESIGN.md §5g):
//
//   D5  no bare `double` declaration of a dimension-bearing name (theta,
//       delta, eta, deadline, ...) in the plan-affecting directories: the
//       name announces a unit, so the declaration must use a unit alias
//       from src/common/types.h or a checked type from src/common/units.h.
//   D6  no `.value()` unwrapping in the plan-affecting directories outside
//       the allowlisted numeric kernels (solve loops in wcde/wcde_batch/
//       rem/slot_mapping/onion_peeling/rush_planner .cc files):
//       arithmetic should stay inside the typed algebra; kernels and
//       serialization edges are where the raw representation escapes.
//   L1  module layering: every `#include "src/<m>/..."` from src/<m'>/
//       must point at a strictly lower-ranked module (or stay inside the
//       module).  The enforced DAG, bottom-up:
//         0 common | 1 stats utility sim lp config | 2 robust estimator
//         tas | 3 cluster | 4 metrics baselines workload core state |
//         5 engine | 6 experiments daemon (src/check is exempt: the
//         invariant auditor is cyclic with cluster by design).  L1 has no
//       suppression tag — a layering violation is always fixed, never
//       waived.
//
// v3 adds the persistence/protocol schema rules (DESIGN.md §5k).  The WAL,
// the snapshot container and the rushd wire protocol are hand-serialized
// byte layouts whose crash-restore-replay guarantee is only as strong as
// serializer/deserializer symmetry staying intact as fields are added:
//
//   D7  read/write symmetry: serializer/deserializer pairs (paired by
//       naming convention — serialize_X/deserialize_X, save_state/
//       restore_state, save_warm_state/restore_warm_state, serialize/parse,
//       put_X/get_X, encode_X/decode_X — or by an explicit in-body
//       `// rushlint-pair-reader: <reader>` directive) must perform the
//       same wire operations in the same linear order.  A field written
//       but never read (or vice versa), or read in a different order, is
//       an error.  A deliberately non-linear read (e.g. a trailing
//       checksum consumed first) drops that op from both sides with
//       `// rushlint: wire-asym(<reason>)`.
//   D8  enum-sync: enums marked `// rushlint-serialized-enum` (on or above
//       the enum declaration) must stay in sync across every site that
//       dispatches on them: any switch whose case labels resolve to the
//       enum must mention every enumerator (a `default:` does not count),
//       and `// rushlint-enum-site: <Enum> <label>` marks a non-switch
//       block (e.g. a name table) that must mention every enumerator.
//   D9  version ratchet: each serializer pair owns a version constant (the
//       first `k*Version*` identifier referenced in the writer body, or an
//       explicit `// rushlint-schema-owner: kName` directive) and has a
//       canonical fingerprint — its writer op sequence — recorded in the
//       committed schema baseline.  A layout change without bumping the
//       owning constant, or any divergence from the baseline, fails;
//       `--update-schema-baseline` regenerates the file (and
//       scripts/schema_guard.sh stops a PR from regenerating it without a
//       version bump).
//   D10 raw-memory ban: no reinterpret_cast/memcpy/memmove/bit_cast or
//       host-endian conversions (htons/htonl/ntohs/ntohl) in the
//       serialization scope (src/engine/, src/state/, src/daemon/,
//       src/common/wire.h) — bytes go through the checked little-endian
//       WireWriter/WireReader helpers.  src/common/wire.cc is the one
//       exempt kernel (it implements those helpers); OS socket-API sites
//       suppress per-line with `// rushlint: raw-memory-ok(<reason>)`.
//
// Suppression syntax, on the flagged line or the line directly above:
//   // rushlint: nondeterminism-ok(<reason>)   — D1
//   // rushlint: order-insensitive(<reason>)   — D2
//   // rushlint: float-sort-ok(<reason>)       — D3
//   // rushlint: unit-ok(<reason>)             — D5
//   // rushlint: unit-escape(<reason>)         — D6
//   // rushlint: wire-asym(<reason>)           — D7 (drops one op)
//   // rushlint: enum-sync-ok(<reason>)        — D8
//   // rushlint: raw-memory-ok(<reason>)       — D10
//
// Modes:
//   rushlint --repo-root DIR [--baseline FILE]
//            [--schema-baseline FILE | --update-schema-baseline]
//       scan src/, tests/, examples/ and bench/ under DIR
//   rushlint --self-test DIR                      run the fixture corpus:
//       every file named dN_pos_*/lN_pos_* must fire exactly rule DN/LN
//       and nothing else; every dN_neg_*/lN_neg_* must be silent.  A
//       fixture opts into path-scoped rules (L1, the D6 allowlist, the
//       D10 scope) with a `// rushlint-fixture-path: src/...` line, and
//       into D9 with `// rushlint-schema-expect: <pair> <owner>=<v> <ops>`
//       lines that act as its schema baseline.
//   rushlint [--plan-dir] FILE...                 scan explicit files
//   rushlint --list-rules                         one-line rule summaries
//
// Output: `file:line: rushlint RULE: message` per finding, or with
// --github the GitHub Actions annotation form
// `::error file=F,line=L::rushlint RULE: message` plus a per-rule
// `::notice` summary, so findings surface inline on the PR diff.
//
// Exit status: 0 clean, 1 findings or budget violations, 2 usage error.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Lexer: tokens + rushlint suppression directives, with comments, string
// literals, char literals and raw strings stripped so rule patterns can
// never match inside them.

struct Token {
  std::string text;
  int line = 0;
};

struct Suppression {
  std::string tag;
  std::string reason;
  int line = 0;        // line the directive comment sits on
  bool malformed = false;
  std::string problem; // set when malformed
  bool used = false;
};

struct FileScan {
  std::string path;  // repo-relative, '/' separators
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  /// Quoted include targets, collected by a raw per-line pass (the lexer
  /// strips string literals, so the token stream cannot carry them).
  std::vector<std::pair<int, std::string>> includes;  // (line, target)
  /// Path a self-test fixture claims to live at (`// rushlint-fixture-path:`)
  /// so path-scoped rules (L1, the D6 kernel allowlist) can be exercised
  /// from the flat fixture directory.  Empty outside self-test fixtures.
  std::string fixture_path;
  /// Schema directives, collected by the raw per-line pass (they live in
  /// comments, which the lexer strips).  All are (line, payload) pairs.
  std::vector<std::pair<int, std::string>> pair_directives;      // rushlint-pair-reader:
  std::vector<std::pair<int, std::string>> owner_directives;     // rushlint-schema-owner:
  std::vector<std::pair<int, std::string>> enum_site_directives; // rushlint-enum-site:
  std::vector<std::pair<int, std::string>> schema_expects;       // rushlint-schema-expect:
  /// Lines carrying a `rushlint-serialized-enum` mark (on or directly above
  /// the enum declaration it applies to).
  std::vector<int> serialized_enum_marks;
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `rushlint: tag(reason)` directives out of one line-comment body.
void parse_directives(const std::string& comment, int line,
                      std::vector<Suppression>& out) {
  const std::string marker = "rushlint:";
  std::size_t at = comment.find(marker);
  if (at == std::string::npos) return;
  std::size_t i = at + marker.size();
  while (i < comment.size() && comment[i] == ' ') ++i;
  Suppression s;
  s.line = line;
  while (i < comment.size() &&
         (std::islower(static_cast<unsigned char>(comment[i])) ||
          comment[i] == '-')) {
    s.tag.push_back(comment[i++]);
  }
  if (s.tag.empty() || i >= comment.size() || comment[i] != '(') {
    s.malformed = true;
    s.problem = "directive must read 'rushlint: <tag>(<reason>)'";
    out.push_back(std::move(s));
    return;
  }
  const std::size_t close = comment.rfind(')');
  if (close == std::string::npos || close <= i) {
    s.malformed = true;
    s.problem = "directive is missing its closing ')'";
    out.push_back(std::move(s));
    return;
  }
  s.reason = comment.substr(i + 1, close - i - 1);
  // Trim the reason; an all-whitespace reason is no reason.
  while (!s.reason.empty() && std::isspace(static_cast<unsigned char>(s.reason.front()))) {
    s.reason.erase(s.reason.begin());
  }
  while (!s.reason.empty() && std::isspace(static_cast<unsigned char>(s.reason.back()))) {
    s.reason.pop_back();
  }
  if (s.reason.empty()) {
    s.malformed = true;
    s.problem = "suppression carries no reason";
  }
  out.push_back(std::move(s));
}

FileScan lex_file(const std::string& path, const std::string& content) {
  FileScan scan;
  scan.path = path;
  // Raw per-line pass: include targets for L1 and the fixture-path
  // directive.  Deliberately line-oriented — a commented-out include whose
  // line starts with `//` is skipped, which is the right call for a
  // layering rule (the dependency is gone).
  {
    std::istringstream lines(content);
    std::string raw;
    int ln = 0;
    while (std::getline(lines, raw)) {
      ++ln;
      const std::size_t first = raw.find_first_not_of(" \t");
      if (first != std::string::npos && raw[first] == '#' &&
          raw.find("include", first) != std::string::npos) {
        const std::size_t q1 = raw.find('"', first);
        const std::size_t q2 =
            q1 == std::string::npos ? std::string::npos : raw.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          scan.includes.emplace_back(ln, raw.substr(q1 + 1, q2 - q1 - 1));
        }
      }
      auto payload_after = [&](const char* marker) -> std::string {
        const std::size_t at = raw.find(marker);
        if (at == std::string::npos) return std::string();
        std::string rest = raw.substr(at + std::string(marker).size());
        while (!rest.empty() && std::isspace(static_cast<unsigned char>(rest.front()))) {
          rest.erase(rest.begin());
        }
        while (!rest.empty() && std::isspace(static_cast<unsigned char>(rest.back()))) {
          rest.pop_back();
        }
        return rest.empty() ? std::string("\x01") : rest;  // \x01 = marker hit, empty payload
      };
      auto collect = [&](const char* marker,
                         std::vector<std::pair<int, std::string>>& out) {
        std::string payload = payload_after(marker);
        if (payload.empty()) return;
        if (payload == "\x01") payload.clear();
        out.emplace_back(ln, payload);
      };
      {
        const std::string payload = payload_after("rushlint-fixture-path:");
        if (!payload.empty() && payload != "\x01") scan.fixture_path = payload;
      }
      collect("rushlint-pair-reader:", scan.pair_directives);
      collect("rushlint-schema-owner:", scan.owner_directives);
      collect("rushlint-enum-site:", scan.enum_site_directives);
      collect("rushlint-schema-expect:", scan.schema_expects);
      if (raw.find("rushlint-serialized-enum") != std::string::npos) {
        scan.serialized_enum_marks.push_back(ln);
      }
    }
  }
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = content.size();
  auto peek = [&](std::size_t off) -> char {
    return i + off < n ? content[i + off] : '\0';
  };
  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      std::size_t end = content.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_directives(content.substr(i + 2, end - i - 2), line,
                       scan.suppressions);
      i = end;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      std::size_t j = i + 2;
      while (j + 1 < n && !(content[j] == '*' && content[j + 1] == '/')) {
        if (content[j] == '\n') ++line;
        ++j;
      }
      i = j + 2 <= n ? j + 2 : n;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && content[j] != quote) {
        if (content[j] == '\\' && j + 1 < n) ++j;
        if (content[j] == '\n') ++line;
        ++j;
      }
      i = j < n ? j + 1 : n;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(content[j])) ++j;
      std::string ident = content.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim" (also LR/uR/UR/u8R).
      if (j < n && content[j] == '"' &&
          (ident == "R" || ident == "LR" || ident == "uR" || ident == "UR" ||
           ident == "u8R")) {
        std::size_t open = content.find('(', j);
        if (open == std::string::npos) {
          i = n;
          continue;
        }
        const std::string delim = ")" + content.substr(j + 1, open - j - 1) + "\"";
        std::size_t close = content.find(delim, open + 1);
        for (std::size_t k = j; k < std::min(n, close == std::string::npos
                                                    ? n
                                                    : close + delim.size());
             ++k) {
          if (content[k] == '\n') ++line;
        }
        i = close == std::string::npos ? n : close + delim.size();
        continue;
      }
      scan.tokens.push_back({std::move(ident), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      // pp-number: digits, idents, quotes-as-separators, dots, and +/- when
      // preceded by an exponent char.
      std::size_t j = i + 1;
      while (j < n) {
        const char d = content[j];
        if (is_ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (content[j - 1] == 'e' || content[j - 1] == 'E' ||
                    content[j - 1] == 'p' || content[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      scan.tokens.push_back({content.substr(i, j - i), line});
      i = j;
      continue;
    }
    scan.tokens.push_back({std::string(1, c), line});
    ++i;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Findings and the analyzer.

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  // "D1".."D4"
  std::string message;
};

const char* tag_for_rule(const std::string& rule) {
  if (rule == "D1") return "nondeterminism-ok";
  if (rule == "D2") return "order-insensitive";
  if (rule == "D3") return "float-sort-ok";
  if (rule == "D5") return "unit-ok";
  if (rule == "D6") return "unit-escape";
  if (rule == "D8") return "enum-sync-ok";
  if (rule == "D10") return "raw-memory-ok";
  // L1, D7 structure and D9 are unsuppressable; D7 uses wire-asym at the
  // op level (it removes an op from the comparison, not a finding).
  return "";
}

bool known_tag(const std::string& tag) {
  return tag == "nondeterminism-ok" || tag == "order-insensitive" ||
         tag == "float-sort-ok" || tag == "unit-ok" || tag == "unit-escape" ||
         tag == "wire-asym" || tag == "enum-sync-ok" || tag == "raw-memory-ok";
}

/// Identifiers whose name announces a physical dimension: declaring one as
/// a bare `double` in a plan directory defeats src/common/units.h.  Exact
/// matches only — `runtime_noise_sigma` is a dimensionless multiplier and
/// must not fire.
bool is_dimension_name(const std::string& s) {
  static const std::set<std::string> kNames = {
      "theta",    "delta",    "delta_min", "eta",       "reference_eta",
      "deadline", "horizon",  "budget",    "completion", "arrival",
      "runtime",  "now",      "makespan",  "latency",    "utility",
      "priority", "demand",   "duration",  "occupation", "start",
      "finish",   "target_completion",     "task_runtime",
      "mean_runtime"};
  return kNames.count(s) > 0;
}

/// The numeric kernels allowed to unwrap units with `.value()` (rule D6)
/// and to hold raw-double locals for the inner loops (rule D5): the solve
/// and packing kernels, where the algebra happens, plus the planner's
/// serialization edge.  Implementation files only — interfaces stay typed.
bool is_unit_kernel(const std::string& path) {
  static const char* kKernels[] = {
      "src/robust/wcde.cc",       "src/robust/wcde_batch.cc",
      "src/robust/rem.cc",        "src/tas/slot_mapping.cc",
      "src/tas/onion_peeling.cc", "src/core/rush_planner.cc"};
  for (const char* k : kKernels) {
    if (path == k) return true;
  }
  return false;
}

class Analyzer {
 public:
  /// Declaration pass: learns hash-container variables/aliases and
  /// double-typed names (including `using X = double;` aliases) from a file.
  /// Run over every file in the scan set before any check_file call, so a
  /// header's member declarations cover its .cc's loops.
  void collect_decls(const FileScan& scan) {
    const std::vector<Token>& t = scan.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      // Type aliases: `using X = double ;` / `using X = ...unordered_map...;`
      if (t[i].text == "using" && i + 2 < t.size() && t[i + 2].text == "=") {
        const std::string& alias = t[i + 1].text;
        bool aliases_hash = false;
        bool aliases_double = false;
        std::size_t j = i + 3;
        std::size_t rhs_len = 0;
        for (; j < t.size() && t[j].text != ";"; ++j, ++rhs_len) {
          if (is_hash_type(t[j].text)) aliases_hash = true;
          if (t[j].text == "double") aliases_double = true;
        }
        if (aliases_hash) hash_types_.insert(alias);
        if (aliases_double && rhs_len == 1) double_types_.insert(alias);
        continue;
      }
      if (is_hash_type(t[i].text) || hash_types_.count(t[i].text) > 0) {
        record_declared_name(t, i, hash_vars_);
      } else if (is_double_type(t[i].text)) {
        record_declared_name(t, i, double_names_);
      }
    }
  }

  /// Rule pass over one file.  `plan_dir` enables D2/D3/D5/D6; `d1_exempt`
  /// silences D1 (src/common/rng.*, bench/); `kernel_exempt` silences
  /// D5/D6 inside the allowlisted numeric kernels (is_unit_kernel).
  std::vector<Finding> check_file(const FileScan& scan, bool plan_dir,
                                  bool d1_exempt, bool kernel_exempt,
                                  std::vector<Suppression>& suppressions) const {
    std::vector<Finding> findings;
    auto emit = [&](int line, const std::string& rule, std::string message) {
      // A matching, well-formed suppression on the same line or the line
      // directly above absorbs the finding (and is marked used for D4).
      const char* tag = tag_for_rule(rule);
      for (Suppression& s : suppressions) {
        if (!s.malformed && s.tag == tag &&
            (s.line == line || s.line + 1 == line)) {
          s.used = true;
          return;
        }
      }
      findings.push_back({scan.path, line, rule, std::move(message)});
    };

    const std::vector<Token>& t = scan.tokens;
    auto text = [&](std::size_t i) -> const std::string& {
      static const std::string empty;
      return i < t.size() ? t[i].text : empty;
    };

    // ---- D1: nondeterminism sources -------------------------------------
    if (!d1_exempt) {
      for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string& w = t[i].text;
        if (w == "random_device") {
          emit(t[i].line, "D1",
               "std::random_device is a nondeterminism source; seed from "
               "src/common/rng.h instead");
        } else if ((w == "rand" || w == "srand") && text(i + 1) == "(") {
          emit(t[i].line, "D1",
               w + "() is a nondeterminism source; use src/common/rng.h");
        } else if (w == "system_clock" || w == "steady_clock" ||
                   w == "high_resolution_clock") {
          emit(t[i].line, "D1",
               "std::chrono::" + w +
                   " reads wall time; plan code must not (profiling code "
                   "suppresses with a reason)");
        } else if (w == "time" && text(i + 1) == "(" &&
                   (text(i + 2) == "nullptr" || text(i + 2) == "NULL" ||
                    text(i + 2) == "0") &&
                   text(i + 3) == ")") {
          emit(t[i].line, "D1",
               "time(" + text(i + 2) + ") is a nondeterminism source");
        }
      }
    }

    if (plan_dir) {
      // ---- D2: hash-container iteration ---------------------------------
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].text == "for" && t[i + 1].text == "(") {
          const std::size_t close = match_paren(t, i + 1);
          if (close == 0) continue;
          // Range-for: a ':' at depth 1 that is not part of '::'.
          std::size_t colon = 0;
          int depth = 0;
          for (std::size_t j = i + 1; j < close; ++j) {
            if (t[j].text == "(") ++depth;
            if (t[j].text == ")") --depth;
            if (depth == 1 && t[j].text == ":" && text(j - 1) != ":" &&
                text(j + 1) != ":") {
              colon = j;
              break;
            }
          }
          if (colon != 0) {
            for (std::size_t j = colon + 1; j < close; ++j) {
              if (hash_vars_.count(t[j].text) > 0) {
                emit(t[i].line, "D2",
                     "range-for over hash container '" + t[j].text +
                         "': iteration order is unspecified; iterate sorted "
                         "keys instead");
                break;
              }
            }
          } else {
            // Classic for: look for `<hashvar> . begin|cbegin (` in the
            // init clause (up to the first ';').
            for (std::size_t j = i + 2; j < close && t[j].text != ";"; ++j) {
              if (hash_vars_.count(t[j].text) > 0 && text(j + 1) == "." &&
                  (text(j + 2) == "begin" || text(j + 2) == "cbegin") &&
                  text(j + 3) == "(") {
                emit(t[i].line, "D2",
                     "iterator loop over hash container '" + t[j].text +
                         "': iteration order is unspecified; iterate sorted "
                         "keys instead");
                break;
              }
            }
          }
        }
        // equal_range walks: the returned bucket range has unspecified
        // internal order even for one key (multimap duplicates).
        if (hash_vars_.count(t[i].text) > 0 && text(i + 1) == "." &&
            text(i + 2) == "equal_range" && text(i + 3) == "(") {
          emit(t[i].line, "D2",
               "equal_range over hash container '" + t[i].text +
                   "': order within the range is unspecified");
        }
      }

      // ---- D3: unstable sort on double keys without a tiebreak ----------
      for (std::size_t i = 0; i + 4 < t.size(); ++i) {
        if (!(t[i].text == "std" && t[i + 1].text == ":" &&
              t[i + 2].text == ":" && t[i + 3].text == "sort" &&
              t[i + 4].text == "(")) {
          continue;
        }
        const std::size_t open = i + 4;
        const std::size_t close = match_paren(t, open);
        if (close == 0) continue;
        // Comparator = third top-level argument, if any.
        std::size_t arg_start = open + 1;
        int commas = 0;
        std::size_t comp_start = 0;
        int depth = 0;
        for (std::size_t j = open; j <= close; ++j) {
          if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
          if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
          if (depth == 1 && t[j].text == ",") {
            ++commas;
            if (commas == 2) comp_start = j + 1;
          }
        }
        static_cast<void>(arg_start);
        if (comp_start == 0) continue;  // two-arg sort: keys have no payload
        if (comparator_lacks_double_tiebreak(t, comp_start, close)) {
          emit(t[i].line, "D3",
               "std::sort comparator keys on a double with no tiebreak: "
               "tied keys land in unspecified order (std::sort is "
               "unstable); add an id tiebreak or use std::stable_sort");
        }
      }

      // ---- D5: bare double where the name announces a dimension ---------
      if (!kernel_exempt) {
        for (std::size_t i = 0; i + 2 < t.size(); ++i) {
          if (t[i].text != "double") continue;
          const std::string& name = t[i + 1].text;
          const std::string& after = t[i + 2].text;
          if (!is_dimension_name(name)) continue;
          if (after != "," && after != ")" && after != ";" && after != "=" &&
              after != "{") {
            continue;
          }
          emit(t[i + 1].line, "D5",
               "'" + name +
                   "' names a dimensioned quantity but is declared as a "
                   "bare double; use a unit alias from src/common/types.h "
                   "or a checked type from src/common/units.h");
        }

        // ---- D6: .value() unwrapping outside the kernel allowlist -------
        for (std::size_t i = 0; i + 2 < t.size(); ++i) {
          if (t[i].text == "." && t[i + 1].text == "value" &&
              t[i + 2].text == "(") {
            emit(t[i + 1].line, "D6",
                 ".value() unwraps a unit outside the numeric-kernel "
                 "allowlist; keep the arithmetic inside the typed algebra "
                 "or move the escape to a kernel/serialization edge");
          }
        }
      }
    }

    return findings;
  }

 private:
  static bool is_hash_type(const std::string& s) {
    return s == "unordered_map" || s == "unordered_set" ||
           s == "unordered_multimap" || s == "unordered_multiset";
  }
  bool is_double_type(const std::string& s) const {
    return double_types_.count(s) > 0;
  }

  /// After a container/double type name at t[i], finds the declared
  /// identifier (skipping template arguments and `&`/`*`/`const`) and
  /// records it.
  void record_declared_name(const std::vector<Token>& t, std::size_t i,
                            std::set<std::string>& into) {
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") {
      int depth = 1;
      ++j;
      while (j < t.size() && depth > 0) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") --depth;
        ++j;
      }
    }
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && is_ident_start(t[j].text[0])) into.insert(t[j].text);
  }

  static std::size_t match_paren(const std::vector<Token>& t,
                                 std::size_t open) {
    int depth = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") {
        --depth;
        if (depth == 0) return j;
      }
    }
    return 0;
  }

  /// True when the comparator tokens in (start, end) hold a lambda whose
  /// return expression is a single `<`/`>` comparison whose left terminal is
  /// a known double-typed name, with no `||`/std::tie secondary key.
  bool comparator_lacks_double_tiebreak(const std::vector<Token>& t,
                                        std::size_t start,
                                        std::size_t end) const {
    bool is_lambda = false;
    std::size_t ret = 0;
    for (std::size_t j = start; j < end; ++j) {
      if (t[j].text == "[") is_lambda = true;
      if (is_lambda && t[j].text == "return") {
        ret = j;
        break;
      }
    }
    if (ret == 0) return false;
    std::size_t stop = ret;
    while (stop < end && t[stop].text != ";") ++stop;
    int comparisons = 0;
    std::size_t comparison_at = 0;
    for (std::size_t j = ret + 1; j < stop; ++j) {
      const std::string& w = t[j].text;
      if (w == "|" || w == "&") return false;  // '||' tiebreak (or bit ops)
      if (w == "tie") return false;            // std::tie lexicographic key
      if ((w == "<" || w == ">") && t[j - 1].text != "-" &&
          t[j - 1].text != "<" && t[j - 1].text != ">") {
        ++comparisons;
        comparison_at = j;
      }
    }
    if (comparisons != 1) return false;  // 0 or 2+: assume composite key
    // Left terminal of the comparison: an identifier, or the function name
    // behind a call's closing paren.
    std::size_t k = comparison_at - 1;
    if (t[k].text == ")") {
      int depth = 0;
      while (k > ret) {
        if (t[k].text == ")") ++depth;
        if (t[k].text == "(") {
          --depth;
          if (depth == 0) break;
        }
        --k;
      }
      if (k == ret) return false;
      --k;  // token before the '(' names the callee
    }
    return is_ident_start(t[k].text.empty() ? '\0' : t[k].text[0]) &&
           double_names_.count(t[k].text) > 0;
  }

  std::set<std::string> hash_types_;  // alias names for hash containers
  std::set<std::string> double_types_{"double"};
  std::set<std::string> hash_vars_;
  std::set<std::string> double_names_;
};

// ---------------------------------------------------------------------------
// Scan-set assembly and modes.

bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_plan_dir(const std::string& path) {
  static const char* kPlanDirs[] = {"src/core/",      "src/tas/",
                                    "src/robust/",    "src/estimator/",
                                    "src/cluster/",   "src/baselines/",
                                    "src/engine/"};
  for (const char* dir : kPlanDirs) {
    if (starts_with(path, dir)) return true;
  }
  return false;
}

bool is_d1_exempt(const std::string& path) {
  // src/daemon is the wall-clock layer by design: it exists to stamp
  // socket events with host time.  Everything below it (engine, planner)
  // stays clock-free — replay determinism depends on it.
  return starts_with(path, "bench/") || starts_with(path, "src/common/rng.") ||
         starts_with(path, "src/daemon/");
}

// ---------------------------------------------------------------------------
// v3: the persistence/protocol schema passes (D7-D10).  DESIGN.md §5k.

/// A well-formed suppression with `tag` on `line` or the line directly
/// above absorbs a finding and is marked used (for the D4 stale check).
bool absorb_suppression(FileScan& scan, int line, const char* tag) {
  for (Suppression& s : scan.suppressions) {
    if (!s.malformed && s.tag == tag && (s.line == line || s.line + 1 == line)) {
      s.used = true;
      return true;
    }
  }
  return false;
}

/// D10 scope: the layers that serialize bytes.  src/common/wire.cc is the
/// one exempt kernel — it *implements* the checked little-endian helpers
/// and legitimately touches raw memory to do so.
bool is_raw_memory_scope(const std::string& path) {
  if (path == "src/common/wire.cc") return false;
  return path == "src/common/wire.h" || starts_with(path, "src/engine/") ||
         starts_with(path, "src/state/") || starts_with(path, "src/daemon/");
}

/// D10: raw-memory and host-endian constructs are banned in serialization
/// scope; every byte goes through WireWriter/WireReader.  OS socket-API
/// call sites suppress per-line with `rushlint: raw-memory-ok(reason)`.
std::vector<Finding> raw_memory_findings(FileScan& scan,
                                         const std::string& path) {
  std::vector<Finding> findings;
  if (!is_raw_memory_scope(path)) return findings;
  static const std::map<std::string, const char*> kBanned = {
      {"reinterpret_cast", "type-punning bypasses the checked wire helpers"},
      {"memcpy", "a struct memcpy serializes host memory layout"},
      {"memmove", "a struct memmove serializes host memory layout"},
      {"bit_cast", "bit_cast round-trips the host representation"},
      {"htons", "host-endian conversion bakes byte order into the stream"},
      {"htonl", "host-endian conversion bakes byte order into the stream"},
      {"ntohs", "host-endian conversion bakes byte order into the stream"},
      {"ntohl", "host-endian conversion bakes byte order into the stream"}};
  for (const Token& tok : scan.tokens) {
    const auto it = kBanned.find(tok.text);
    if (it == kBanned.end()) continue;
    if (absorb_suppression(scan, tok.line, "raw-memory-ok")) continue;
    findings.push_back(
        {scan.path, tok.line, "D10",
         tok.text + " in serialization scope: " + std::string(it->second) +
             "; use WireWriter/WireReader (src/common/wire.h) instead"});
  }
  return findings;
}

/// One D9 baseline entry: the canonical fingerprint of a serializer pair.
struct SchemaEntry {
  std::string id;     // "<writer>-><reader>", qualified names
  std::string owner;  // owning version constant (k*Version*)
  long long value = 0;
  std::string ops;    // comma-joined writer op sequence; "-" when empty
  std::string file;   // writer location, for findings (not serialized)
  int line = 0;
};

/// Parses one `<id> <owner>=<value> <ops>` baseline line.
bool parse_schema_entry(const std::string& line, SchemaEntry& e) {
  std::istringstream fields(line);
  std::string owner_eq;
  if (!(fields >> e.id >> owner_eq >> e.ops)) return false;
  const std::size_t eq = owner_eq.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= owner_eq.size()) {
    return false;
  }
  for (std::size_t i = eq + 1; i < owner_eq.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(owner_eq[i])) &&
        !(i == eq + 1 && owner_eq[i] == '-')) {
      return false;
    }
  }
  e.owner = owner_eq.substr(0, eq);
  e.value = std::strtoll(owner_eq.c_str() + eq + 1, nullptr, 10);
  return e.id.find("->") != std::string::npos;
}

std::map<std::string, SchemaEntry> read_schema_baseline(
    const std::string& path, std::vector<Finding>& errors) {
  std::map<std::string, SchemaEntry> entries;
  std::ifstream in(path);
  if (!in) {
    errors.push_back({path, 0, "D9",
                      "cannot read the schema baseline — create it with "
                      "rushlint --update-schema-baseline and commit it"});
    return entries;
  }
  std::string line;
  int ln = 0;
  while (std::getline(in, line)) {
    ++ln;
    if (line.empty() || line[0] == '#') continue;
    SchemaEntry e;
    if (!parse_schema_entry(line, e)) {
      errors.push_back({path, ln, "D9",
                        "malformed schema baseline line (want "
                        "'<writer->reader> <owner>=<value> <ops>')"});
      continue;
    }
    entries[e.id] = std::move(e);
  }
  return entries;
}

bool write_schema_baseline(const std::string& path,
                           const std::map<std::string, SchemaEntry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# rushlint schema baseline (rule D9): one canonical fingerprint per\n"
         "# serializer pair, as '<writer->reader> <owner>=<value> <ops>'.\n"
         "# A fingerprint may only change together with a bump of its owning\n"
         "# version constant; scripts/schema_guard.sh enforces that ratchet\n"
         "# in CI.  Regenerate (after bumping the owner) with:\n"
         "#   rushlint --repo-root . --update-schema-baseline\n";
  for (const auto& [id, e] : entries) {
    out << id << " " << e.owner << "=" << e.value << " "
        << (e.ops.empty() ? "-" : e.ops) << "\n";
  }
  return static_cast<bool>(out);
}

/// The multi-pass schema analyzer: pairs serializers with deserializers
/// (D7), checks serialized-enum sync sites (D8), and computes the schema
/// fingerprints the D9 ratchet compares against the committed baseline.
class SchemaAnalyzer {
 public:
  explicit SchemaAnalyzer(std::vector<FileScan>& scans) : scans_(scans) {}

  /// Collection + pairing + op comparison + enum-sync.  Call once.
  std::vector<Finding> analyze() {
    std::vector<Finding> findings;
    for (std::size_t si = 0; si < scans_.size(); ++si) {
      collect_versions(si);
      collect_enums(si);
      collect_defs(si, findings);
    }
    build_pairs(findings);
    compare_pairs(findings);
    for (std::size_t si = 0; si < scans_.size(); ++si) {
      enum_sync(si, findings);
    }
    return findings;
  }

  /// Current D9 fingerprints; owner-resolution failures land in `errors`.
  /// Requires analyze() to have run.
  std::map<std::string, SchemaEntry> current_schema(
      std::vector<Finding>& errors) const {
    std::map<std::string, SchemaEntry> current;
    for (const PairInfo& p : pairs_) {
      const FunctionDef& w = defs_[p.writer];
      const FileScan& scan = scans_[w.scan];
      SchemaEntry e;
      e.id = p.id;
      e.file = scan.path;
      e.line = w.line;
      std::string joined;
      for (const WireOp& op : p.writer_ops) {
        if (!joined.empty()) joined += ",";
        joined += op.op;
      }
      e.ops = joined.empty() ? "-" : joined;
      std::string owner = w.schema_owner;
      if (owner.empty()) {
        // First version constant the writer body references owns the layout.
        const std::vector<Token>& t = scan.tokens;
        for (std::size_t j = w.body_open; j < w.body_close; ++j) {
          if (is_version_const(t[j].text)) {
            owner = t[j].text;
            break;
          }
        }
      }
      if (owner.empty()) {
        errors.push_back(
            {scan.path, w.line, "D9",
             "serializer '" + w.qualified +
                 "' has no owning version constant: reference a k*Version* "
                 "constant in the writer or add '// rushlint-schema-owner: "
                 "kName' inside its body"});
        continue;
      }
      const auto it = version_values_.find(owner);
      if (it == version_values_.end()) {
        errors.push_back({scan.path, w.line, "D9",
                          "serializer '" + w.qualified +
                              "' names version constant '" + owner +
                              "' but rushlint cannot find its value "
                              "(expected '" + owner + " = <integer>')"});
        continue;
      }
      e.owner = owner;
      e.value = it->second;
      current[e.id] = std::move(e);
    }
    return current;
  }

  /// D9: the committed baseline must exactly match the current schema, and
  /// a layout change must ride on a version bump.
  static std::vector<Finding> compare_schema(
      const std::map<std::string, SchemaEntry>& current,
      const std::map<std::string, SchemaEntry>& baseline,
      const std::string& baseline_label) {
    std::vector<Finding> findings;
    for (const auto& [id, cur] : current) {
      const auto it = baseline.find(id);
      if (it == baseline.end()) {
        findings.push_back({cur.file, cur.line, "D9",
                            "serializer pair '" + id +
                                "' is not in the schema baseline (" +
                                baseline_label +
                                ") — regenerate it with "
                                "--update-schema-baseline and commit"});
        continue;
      }
      const SchemaEntry& base = it->second;
      if (cur.ops != base.ops) {
        if (cur.owner == base.owner && cur.value == base.value) {
          findings.push_back(
              {cur.file, cur.line, "D9",
               "layout of '" + id + "' changed but its version constant " +
                   cur.owner + " is still " + std::to_string(cur.value) +
                   " — bump it, then regenerate the baseline with "
                   "--update-schema-baseline"});
        } else {
          findings.push_back(
              {cur.file, cur.line, "D9",
               "layout of '" + id + "' changed (version " + base.owner + "=" +
                   std::to_string(base.value) + " -> " + cur.owner + "=" +
                   std::to_string(cur.value) +
                   ") — regenerate the baseline with "
                   "--update-schema-baseline"});
        }
      } else if (cur.owner != base.owner || cur.value != base.value) {
        findings.push_back(
            {cur.file, cur.line, "D9",
             "version owner of '" + id + "' moved from " + base.owner + "=" +
                 std::to_string(base.value) + " to " + cur.owner + "=" +
                 std::to_string(cur.value) +
                 " without a layout change — regenerate the baseline"});
      }
    }
    for (const auto& [id, base] : baseline) {
      if (current.count(id) == 0) {
        findings.push_back({baseline_label, 0, "D9",
                            "stale schema baseline entry '" + id +
                                "': the serializer pair no longer exists — "
                                "regenerate the baseline"});
      }
    }
    return findings;
  }

 private:
  struct FunctionDef {
    std::string qualified;  // "Snapshot::parse", "serialize_event"
    std::string base;       // last identifier
    std::size_t scan = 0;
    int line = 0;
    std::size_t body_open = 0;   // token index of '{'
    std::size_t body_close = 0;  // token index of the matching '}'
    std::string pair_reader;     // in-body rushlint-pair-reader directive
    std::string schema_owner;    // in-body rushlint-schema-owner directive
  };

  struct WireOp {
    std::string op;
    int line = 0;
  };

  struct EnumInfo {
    std::string fullname;  // "EngineEvent::Kind" (enclosing record scopes)
    std::size_t scan = 0;
    int line = 0;
    std::vector<std::string> enumerators;
  };

  struct PairInfo {
    std::size_t writer = 0;
    std::size_t reader = 0;
    std::string id;
    std::vector<WireOp> writer_ops;
    std::vector<WireOp> reader_ops;
  };

  static const std::string& epath(const FileScan& scan) {
    return scan.fixture_path.empty() ? scan.path : scan.fixture_path;
  }

  static bool is_version_const(const std::string& s) {
    return s.size() > 1 && s[0] == 'k' &&
           s.find("Version") != std::string::npos;
  }

  /// src/common/wire.{h,cc} define the primitives themselves; their defs
  /// must not enter the pairing universe.
  static bool is_wire_primitive_file(const std::string& path) {
    return path == "src/common/wire.h" || path == "src/common/wire.cc";
  }

  static std::size_t match_group(const std::vector<Token>& t,
                                 std::size_t open, const char* o,
                                 const char* c) {
    int depth = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].text == o) {
        ++depth;
      } else if (t[j].text == c) {
        --depth;
        if (depth == 0) return j;
      }
    }
    return 0;
  }

  static bool is_wire_primitive_suffix(const std::string& s) {
    static const std::set<std::string> kPrims = {
        "u8",     "u16",  "u32",    "u64", "i8",    "i16",  "i32",  "i64",
        "double", "bool", "string", "raw", "bytes", "count", "float"};
    return kPrims.count(s) > 0;
  }

  /// put_u8 -> "u8" etc.  get_bytes is the read side of put_raw; get_count
  /// is the bounds-checked read side of a put_u64 element count.
  static const std::map<std::string, std::string>& prim_ops() {
    static const std::map<std::string, std::string> kOps = {
        {"put_u8", "u8"},         {"put_u32", "u32"},
        {"put_u64", "u64"},       {"put_i64", "i64"},
        {"put_double", "double"}, {"put_bool", "bool"},
        {"put_string", "string"}, {"put_raw", "raw"},
        {"get_u8", "u8"},         {"get_u32", "u32"},
        {"get_u64", "u64"},       {"get_i64", "i64"},
        {"get_double", "double"}, {"get_bool", "bool"},
        {"get_string", "string"}, {"get_bytes", "raw"},
        {"get_count", "u64"}};
    return kOps;
  }

  /// The reader name a convention-named writer implies, or "".
  static std::string reader_base_for(const std::string& base) {
    if (base == "serialize") return "parse";
    if (starts_with(base, "serialize")) return "de" + base;
    if (base == "save_state") return "restore_state";
    if (base == "save_warm_state") return "restore_warm_state";
    if (starts_with(base, "put_") && !is_wire_primitive_suffix(base.substr(4))) {
      return "get_" + base.substr(4);
    }
    if (starts_with(base, "encode_")) return "decode_" + base.substr(7);
    return "";
  }

  /// Reader-convention names that must not dangle without a writer.
  /// (get_* readers are deliberately absent: the put_* writer side already
  /// pins the pairing, and bare get_<noun> helper names are common.)
  static bool looks_like_reader_base(const std::string& base) {
    return starts_with(base, "deserialize") || base == "parse" ||
           base == "restore_state" || base == "restore_warm_state" ||
           starts_with(base, "decode_");
  }

  void collect_versions(std::size_t si) {
    const std::vector<Token>& t = scans_[si].tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (is_version_const(t[i].text) && t[i + 1].text == "=" &&
          !t[i + 2].text.empty() &&
          std::isdigit(static_cast<unsigned char>(t[i + 2].text[0]))) {
        if (version_values_.count(t[i].text) == 0) {
          version_values_[t[i].text] =
              std::strtoll(t[i + 2].text.c_str(), nullptr, 0);
        }
      }
    }
  }

  /// Registers enums marked `rushlint-serialized-enum` (mark on the enum's
  /// declaration line or the line directly above), with their fullname
  /// under enclosing struct/class scopes.
  void collect_enums(std::size_t si) {
    const FileScan& scan = scans_[si];
    const std::vector<Token>& t = scan.tokens;
    int depth = 0;
    std::vector<std::pair<std::string, int>> scopes;  // (name, open depth)
    std::string pending;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string& w = t[i].text;
      if ((w == "struct" || w == "class") &&
          !(i > 0 && t[i - 1].text == "enum") && i + 1 < t.size() &&
          is_ident_start(t[i + 1].text[0])) {
        pending = t[i + 1].text;
      } else if (w == ";" || w == "=") {
        pending.clear();
      } else if (w == "{") {
        if (!pending.empty()) {
          scopes.emplace_back(pending, depth);
          pending.clear();
        }
        ++depth;
      } else if (w == "}") {
        --depth;
        while (!scopes.empty() && scopes.back().second >= depth) {
          scopes.pop_back();
        }
      } else if (w == "enum") {
        std::size_t j = i + 1;
        if (j < t.size() && (t[j].text == "class" || t[j].text == "struct")) {
          ++j;
        }
        if (j >= t.size() || !is_ident_start(t[j].text[0])) continue;
        EnumInfo info;
        info.scan = si;
        info.line = t[i].line;
        for (const auto& [name, at] : scopes) {
          (void)at;
          info.fullname += name + "::";
        }
        info.fullname += t[j].text;
        std::size_t k = j + 1;
        while (k < t.size() && t[k].text != "{" && t[k].text != ";") ++k;
        if (k >= t.size() || t[k].text != "{") continue;
        bool marked = false;
        for (const int mark : scan.serialized_enum_marks) {
          if (mark == info.line || mark + 1 == info.line) marked = true;
        }
        int d = 1;
        bool expecting = true;
        std::size_t m = k + 1;
        for (; m < t.size() && d > 0; ++m) {
          const std::string& e = t[m].text;
          if (e == "{") {
            ++d;
          } else if (e == "}") {
            --d;
          } else if (d == 1) {
            if (expecting && is_ident_start(e[0])) {
              info.enumerators.push_back(e);
              expecting = false;
            } else if (e == ",") {
              expecting = true;
            }
          }
        }
        if (marked && !info.enumerators.empty()) {
          enums_.push_back(std::move(info));
        }
        i = m > 0 ? m - 1 : i;  // resume after the enum body
        pending.clear();
      }
    }
  }

  /// Extracts function definitions (qualified name + body token span) from
  /// wire-relevant files, and attaches in-body schema directives.
  void collect_defs(std::size_t si, std::vector<Finding>& findings) {
    FileScan& scan = scans_[si];
    const std::vector<Token>& t = scan.tokens;
    bool wire = false;
    for (const Token& tok : t) {
      if (tok.text == "WireWriter" || tok.text == "WireReader") {
        wire = true;
        break;
      }
    }
    const bool collect = wire && !is_wire_primitive_file(epath(scan));
    const std::size_t first_def = defs_.size();
    if (collect) {
      static const std::set<std::string> kNotAFunction = {
          "if",        "while",    "for",        "switch",   "catch",
          "return",    "sizeof",   "alignof",    "decltype", "constexpr",
          "static_assert", "throw", "new",       "delete",   "assert",
          "defined",   "co_await", "co_return",  "co_yield", "requires"};
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!is_ident_start(t[i].text[0]) || t[i + 1].text != "(") continue;
        if (kNotAFunction.count(t[i].text) > 0) continue;
        const std::size_t close = match_group(t, i + 1, "(", ")");
        if (close == 0) continue;
        std::size_t j = close + 1;
        while (j < t.size()) {
          const std::string& w = t[j].text;
          if (w == "const" || w == "noexcept" || w == "override" ||
              w == "final" || w == "mutable" || w == "&") {
            ++j;
            continue;
          }
          if (w == "-" && j + 1 < t.size() && t[j + 1].text == ">") {
            // Trailing return type: skip to the body or terminator.
            j += 2;
            while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
            continue;
          }
          if (w == ":") {
            // Constructor initializer list: skip name-plus-group pairs.
            ++j;
            while (j < t.size()) {
              while (j < t.size() && t[j].text != "(" && t[j].text != "{" &&
                     t[j].text != ";") {
                ++j;
              }
              if (j >= t.size() || t[j].text == ";") break;
              const std::size_t g = t[j].text == "("
                                        ? match_group(t, j, "(", ")")
                                        : match_group(t, j, "{", "}");
              if (g == 0) {
                j = t.size();
                break;
              }
              // An initializer's '{' group may itself be the body start
              // (brace-init vs body is ambiguous token-wise); the comma
              // check below disambiguates.
              j = g + 1;
              if (j < t.size() && t[j].text == ",") {
                ++j;
                continue;
              }
              break;
            }
            continue;
          }
          break;
        }
        if (j >= t.size() || t[j].text != "{") continue;
        const std::size_t end = match_group(t, j, "{", "}");
        if (end == 0) continue;
        FunctionDef def;
        def.base = t[i].text;
        def.qualified = def.base;
        std::size_t b = i;
        while (b >= 3 && t[b - 1].text == ":" && t[b - 2].text == ":" &&
               is_ident_start(t[b - 3].text[0])) {
          def.qualified = t[b - 3].text + "::" + def.qualified;
          b -= 3;
        }
        def.scan = si;
        def.line = t[i].line;
        def.body_open = j;
        def.body_close = end;
        defs_.push_back(std::move(def));
      }
    }
    // Attach in-body directives to the innermost containing definition.
    auto attach = [&](const std::vector<std::pair<int, std::string>>& dirs,
                      const char* what, bool to_pair_reader) {
      for (const auto& [line, payload] : dirs) {
        FunctionDef* best = nullptr;
        for (std::size_t d = first_def; d < defs_.size(); ++d) {
          FunctionDef& def = defs_[d];
          if (line < t[def.body_open].line || line > t[def.body_close].line) {
            continue;
          }
          if (best == nullptr ||
              t[def.body_open].line >= t[best->body_open].line) {
            best = &def;
          }
        }
        if (best == nullptr) {
          findings.push_back(
              {scan.path, line, "D7",
               std::string(what) +
                   " directive is not inside a serializer body in a "
                   "wire-relevant file"});
        } else if (payload.empty()) {
          findings.push_back({scan.path, line, "D7",
                              std::string(what) + " directive has no value"});
        } else if (to_pair_reader) {
          best->pair_reader = payload;
        } else {
          best->schema_owner = payload;
        }
      }
    };
    attach(scan.pair_directives, "rushlint-pair-reader", true);
    attach(scan.owner_directives, "rushlint-schema-owner", false);
  }

  void build_pairs(std::vector<Finding>& findings) {
    std::map<std::string, std::vector<std::size_t>> by_base;
    std::map<std::string, std::vector<std::size_t>> by_qual;
    for (std::size_t d = 0; d < defs_.size(); ++d) {
      by_base[defs_[d].base].push_back(d);
      by_qual[defs_[d].qualified].push_back(d);
    }
    std::vector<char> as_writer(defs_.size(), 0);
    std::vector<char> as_reader(defs_.size(), 0);
    auto pick = [&](const std::vector<std::size_t>* cands,
                    std::size_t near_scan) -> long {
      if (cands == nullptr || cands->empty()) return -1;
      for (const std::size_t c : *cands) {
        if (defs_[c].scan == near_scan && !as_reader[c]) {
          return static_cast<long>(c);
        }
      }
      for (const std::size_t c : *cands) {
        if (!as_reader[c]) return static_cast<long>(c);
      }
      return -1;
    };
    auto lookup = [&](const std::map<std::string, std::vector<std::size_t>>& m,
                      const std::string& key)
        -> const std::vector<std::size_t>* {
      const auto it = m.find(key);
      return it == m.end() ? nullptr : &it->second;
    };
    for (std::size_t w = 0; w < defs_.size(); ++w) {
      const FunctionDef& writer = defs_[w];
      std::string reader_name;
      bool explicit_pair = false;
      if (!writer.pair_reader.empty()) {
        reader_name = writer.pair_reader;
        explicit_pair = true;
      } else {
        reader_name = reader_base_for(writer.base);
        if (reader_name.empty()) continue;
        if (writer.qualified != writer.base) {
          // Member writer: the reader lives on the same record.
          reader_name =
              writer.qualified.substr(
                  0, writer.qualified.size() - writer.base.size()) +
              reader_name;
        }
      }
      long r = pick(lookup(by_qual, reader_name), writer.scan);
      if (r < 0) r = pick(lookup(by_base, reader_name), writer.scan);
      if (r < 0) {
        findings.push_back(
            {scans_[writer.scan].path, writer.line, "D7",
             explicit_pair
                 ? "rushlint-pair-reader names '" + reader_name +
                       "', but no such function definition exists"
                 : "serializer '" + writer.qualified +
                       "' has no deserializer '" + reader_name +
                       "': every writer needs a paired reader (or an "
                       "explicit '// rushlint-pair-reader: <name>')"});
        continue;
      }
      as_writer[w] = 1;
      as_reader[static_cast<std::size_t>(r)] = 1;
      PairInfo p;
      p.writer = w;
      p.reader = static_cast<std::size_t>(r);
      p.id = writer.qualified + "->" + defs_[p.reader].qualified;
      pairs_.push_back(std::move(p));
    }
    for (std::size_t d = 0; d < defs_.size(); ++d) {
      if (!as_reader[d] && !as_writer[d] &&
          looks_like_reader_base(defs_[d].base)) {
        findings.push_back(
            {scans_[defs_[d].scan].path, defs_[d].line, "D7",
             "deserializer '" + defs_[d].qualified +
                 "' has no paired serializer: a read path nothing writes "
                 "is drift"});
      }
    }
    std::sort(pairs_.begin(), pairs_.end(),
              [](const PairInfo& a, const PairInfo& b) { return a.id < b.id; });
    for (const PairInfo& p : pairs_) {
      writer_bases_.insert(defs_[p.writer].base);
      reader_to_writer_base_[defs_[p.reader].base] = defs_[p.writer].base;
    }
  }

  /// Linear wire-op sequence of a definition body.  Primitive puts/gets map
  /// to their wire type; calls into paired serializers map to
  /// "call:<writer base>" on both sides (a call to the wrong side keeps a
  /// side marker so it can never compare equal).  A `wire-asym` suppression
  /// on the call line drops that op from the comparison.
  std::vector<WireOp> extract_ops(const FunctionDef& def, bool writer_side) {
    FileScan& scan = scans_[def.scan];
    const std::vector<Token>& t = scan.tokens;
    std::vector<WireOp> ops;
    for (std::size_t j = def.body_open; j + 1 < t.size() && j < def.body_close;
         ++j) {
      if (!is_ident_start(t[j].text[0]) || t[j + 1].text != "(") continue;
      const std::string& name = t[j].text;
      std::string op;
      const auto prim = prim_ops().find(name);
      if (prim != prim_ops().end()) {
        op = prim->second;
      } else if (writer_side) {
        if (writer_bases_.count(name) > 0) {
          op = "call:" + name;
        } else if (reader_to_writer_base_.count(name) > 0) {
          op = "call:" + reader_to_writer_base_[name] + "[reader-side]";
        }
      } else {
        if (reader_to_writer_base_.count(name) > 0) {
          op = "call:" + reader_to_writer_base_[name];
        } else if (writer_bases_.count(name) > 0) {
          op = "call:" + name + "[writer-side]";
        }
      }
      if (op.empty()) continue;
      if (absorb_suppression(scan, t[j].line, "wire-asym")) continue;
      ops.push_back({std::move(op), t[j].line});
    }
    return ops;
  }

  void compare_pairs(std::vector<Finding>& findings) {
    for (PairInfo& p : pairs_) {
      p.writer_ops = extract_ops(defs_[p.writer], /*writer_side=*/true);
      p.reader_ops = extract_ops(defs_[p.reader], /*writer_side=*/false);
      const std::size_t n =
          std::min(p.writer_ops.size(), p.reader_ops.size());
      std::size_t k = 0;
      while (k < n && p.writer_ops[k].op == p.reader_ops[k].op) ++k;
      if (k == p.writer_ops.size() && k == p.reader_ops.size()) continue;
      const FunctionDef& w = defs_[p.writer];
      const FunctionDef& r = defs_[p.reader];
      const std::string wat =
          k < p.writer_ops.size()
              ? p.writer_ops[k].op + " (" + scans_[w.scan].path + ":" +
                    std::to_string(p.writer_ops[k].line) + ")"
              : "ends";
      const std::string rat =
          k < p.reader_ops.size()
              ? p.reader_ops[k].op + " (" + scans_[r.scan].path + ":" +
                    std::to_string(p.reader_ops[k].line) + ")"
              : "ends";
      const int at = k < p.writer_ops.size() ? p.writer_ops[k].line : w.line;
      findings.push_back(
          {scans_[w.scan].path, at, "D7",
           "serializer pair '" + p.id + "' drifts at step " +
               std::to_string(k + 1) + ": writer " + wat + " vs reader " +
               rat +
               " — every field must be written and read in the same order "
               "(a deliberately non-linear read drops its op with "
               "'// rushlint: wire-asym(reason)')"});
    }
  }

  /// D8: every switch whose case labels resolve to a registered serialized
  /// enum, and every `rushlint-enum-site:` block, must mention all of the
  /// enum's enumerators.  A `default:` does not keep new kinds in sync.
  void enum_sync(std::size_t si, std::vector<Finding>& findings) {
    FileScan& scan = scans_[si];
    const std::vector<Token>& t = scan.tokens;
    auto emit = [&](int line, std::string message) {
      if (absorb_suppression(scan, line, "enum-sync-ok")) return;
      findings.push_back({scan.path, line, "D8", std::move(message)});
    };
    auto require_all = [&](const EnumInfo& info, std::size_t from,
                           std::size_t to, int line,
                           const std::string& site) {
      for (const std::string& enumerator : info.enumerators) {
        bool present = false;
        for (std::size_t j = from; j < to; ++j) {
          if (t[j].text == enumerator) {
            present = true;
            break;
          }
        }
        if (!present) {
          emit(line, site + " is a sync site for serialized enum '" +
                         info.fullname + "' but never mentions enumerator '" +
                         enumerator + "'");
        }
      }
    };
    // Switch sites.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].text != "switch" || t[i + 1].text != "(") continue;
      const std::size_t close = match_group(t, i + 1, "(", ")");
      if (close == 0 || close + 1 >= t.size() || t[close + 1].text != "{") {
        continue;
      }
      const std::size_t end = match_group(t, close + 1, "{", "}");
      if (end == 0) continue;
      std::set<const EnumInfo*> hit;
      for (std::size_t j = close + 1; j < end; ++j) {
        if (t[j].text != "case") continue;
        // Label span: up to the first ':' that is not part of a '::'.
        std::size_t label_end = j + 1;
        while (label_end < end) {
          if (t[label_end].text == ":" &&
              (label_end + 1 >= end || t[label_end + 1].text != ":") &&
              t[label_end - 1].text != ":") {
            break;
          }
          ++label_end;
        }
        for (std::size_t m = j + 1; m < label_end; ++m) {
          if (!is_ident_start(t[m].text[0])) continue;
          // Chain-terminal identifier: not followed by '::'.
          if (m + 2 < label_end && t[m + 1].text == ":" &&
              t[m + 2].text == ":") {
            continue;
          }
          const std::string& enumerator = t[m].text;
          std::string qualifier;
          std::size_t b = m;
          while (b >= 3 && t[b - 1].text == ":" && t[b - 2].text == ":" &&
                 is_ident_start(t[b - 3].text[0])) {
            qualifier = qualifier.empty()
                            ? t[b - 3].text
                            : t[b - 3].text + "::" + qualifier;
            b -= 3;
          }
          const EnumInfo* match = nullptr;
          bool ambiguous = false;
          for (const EnumInfo& info : enums_) {
            if (std::find(info.enumerators.begin(), info.enumerators.end(),
                          enumerator) == info.enumerators.end()) {
              continue;
            }
            if (!qualifier.empty() && info.fullname != qualifier &&
                !(info.fullname.size() > qualifier.size() + 2 &&
                  info.fullname.compare(
                      info.fullname.size() - qualifier.size() - 2, 2, "::") ==
                      0 &&
                  info.fullname.compare(
                      info.fullname.size() - qualifier.size(),
                      qualifier.size(), qualifier) == 0)) {
              continue;
            }
            if (match != nullptr && match != &info) ambiguous = true;
            match = &info;
          }
          if (match != nullptr && !ambiguous) hit.insert(match);
        }
        j = label_end;
      }
      for (const EnumInfo* info : hit) {
        require_all(*info, close + 1, end, t[i].line, "this switch");
      }
    }
    // Directive sites: the next '{'..'}' block at/after the directive line.
    for (const auto& [line, payload] : scan.enum_site_directives) {
      std::istringstream fields(payload);
      std::string enum_name;
      std::string label;
      fields >> enum_name;
      std::getline(fields, label);
      while (!label.empty() && label.front() == ' ') label.erase(label.begin());
      if (label.empty()) label = scan.path + ":" + std::to_string(line);
      const EnumInfo* match = nullptr;
      bool ambiguous = false;
      for (const EnumInfo& info : enums_) {
        if (info.fullname == enum_name ||
            (info.fullname.size() > enum_name.size() + 2 &&
             info.fullname.compare(info.fullname.size() - enum_name.size() - 2,
                                   2, "::") == 0 &&
             info.fullname.compare(info.fullname.size() - enum_name.size(),
                                   enum_name.size(), enum_name) == 0)) {
          if (match != nullptr) ambiguous = true;
          match = &info;
        }
      }
      if (match == nullptr || ambiguous) {
        emit(line, "rushlint-enum-site names " +
                       std::string(ambiguous ? "ambiguous" : "unknown") +
                       " serialized enum '" + enum_name +
                       "' (mark the enum with 'rushlint-serialized-enum')");
        continue;
      }
      std::size_t open = 0;
      for (std::size_t j = 0; j < t.size(); ++j) {
        if (t[j].line >= line && t[j].text == "{") {
          open = j;
          break;
        }
      }
      const std::size_t end_block =
          open == 0 ? 0 : match_group(t, open, "{", "}");
      if (end_block == 0) {
        emit(line, "rushlint-enum-site '" + label +
                       "' has no '{...}' block after it to check");
        continue;
      }
      require_all(*match, open, end_block, line, "enum site '" + label + "'");
    }
  }

  std::vector<FileScan>& scans_;
  std::vector<FunctionDef> defs_;
  std::vector<EnumInfo> enums_;
  std::vector<PairInfo> pairs_;
  std::map<std::string, long long> version_values_;
  std::set<std::string> writer_bases_;
  std::map<std::string, std::string> reader_to_writer_base_;
};

// ---------------------------------------------------------------------------
// L1: the module layering DAG.  Rank is position from the bottom; an include
// is legal only into the same module or a strictly lower rank.  The table
// mirrors DESIGN.md §5g and the CMake target graph — adding a module means
// adding it here, consciously, at a rank.

int module_rank(const std::string& module) {
  static const std::map<std::string, int> kRank = {
      {"common", 0},
      {"stats", 1},   {"utility", 1},   {"sim", 1},      {"lp", 1},
      {"config", 1},
      {"robust", 2},  {"estimator", 2}, {"tas", 2},
      {"cluster", 3},
      {"metrics", 4}, {"baselines", 4}, {"workload", 4}, {"core", 4},
      {"state", 4},
      {"engine", 5},
      {"experiments", 6}, {"daemon", 6}};
  const auto it = kRank.find(module);
  return it == kRank.end() ? -1 : it->second;
}

/// The `src/<module>/` component of a path, or "" when not under src/.
std::string module_of(const std::string& path) {
  if (!starts_with(path, "src/")) return "";
  const std::size_t slash = path.find('/', 4);
  return slash == std::string::npos ? "" : path.substr(4, slash - 4);
}

/// Layering findings for one file.  `path` is the effective path (a
/// fixture's claimed path in self-test).  src/check is exempt in both
/// directions: the invariant auditor is cyclic with cluster by design.
std::vector<Finding> layering_findings(const FileScan& scan,
                                       const std::string& path) {
  std::vector<Finding> findings;
  const std::string module = module_of(path);
  if (module.empty() || module == "check") return findings;
  const int from = module_rank(module);
  if (from < 0) return findings;  // unranked module: not yet in the DAG
  for (const auto& [line, target] : scan.includes) {
    const std::string included = module_of(target);
    if (included.empty() || included == module || included == "check") continue;
    const int to = module_rank(included);
    if (to < 0 || to < from) continue;
    findings.push_back(
        {path, line, "L1",
         "src/" + module + "/ (rank " + std::to_string(from) +
             ") must not include src/" + included + "/ (rank " +
             std::to_string(to) +
             "): the layering DAG admits only strictly-downward includes"});
  }
  return findings;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Options {
  std::string repo_root;
  std::string baseline;
  std::string schema_baseline;
  std::string self_test_dir;
  bool force_plan_dir = false;
  bool github = false;
  bool update_schema_baseline = false;
  std::vector<std::string> files;
};

int usage() {
  std::cerr << "usage: rushlint --repo-root DIR [--baseline FILE]\n"
               "                [--schema-baseline FILE | "
               "--update-schema-baseline] [--github]\n"
               "       rushlint --self-test FIXTURE_DIR\n"
               "       rushlint [--plan-dir] [--github] FILE...\n"
               "       rushlint --list-rules\n";
  return 2;
}

int list_rules() {
  std::cout
      << "rushlint rules (suppression tag in [brackets]; see "
         "tools/rushlint/README.md):\n"
         "  D1   nondeterminism sources (random_device, rand, wall clocks) "
         "banned outside bench/, rng, daemon [nondeterminism-ok]\n"
         "  D2   iteration over unordered containers in plan-affecting code "
         "[order-insensitive]\n"
         "  D3   sorts keyed on a double without a deterministic tiebreak "
         "[float-sort-ok]\n"
         "  D4   suppression hygiene: reasons required, no unknown tags, no "
         "stale directives, budget ratchet (unsuppressable)\n"
         "  D5   dimension-named locals declared as bare double in plan dirs "
         "[unit-ok]\n"
         "  D6   .value() unit unwrapping outside the kernel allowlist "
         "[unit-escape]\n"
         "  D7   serializer/deserializer read-write symmetry: same wire ops, "
         "same order (per-op [wire-asym] drops a deliberate non-linear op)\n"
         "  D8   serialized-enum sync: every dispatch switch and marked enum "
         "site mentions every enumerator [enum-sync-ok]\n"
         "  D9   schema version ratchet: fingerprints must match the "
         "committed schema.baseline; layout changes need a version bump "
         "(unsuppressable; scripts/schema_guard.sh enforces in CI)\n"
         "  D10  raw-memory ban in serialization scope: no reinterpret_cast/"
         "memcpy/memmove/bit_cast/hton*/ntoh* [raw-memory-ok]\n"
         "  L1   module layering DAG: includes only point strictly downward "
         "(unsuppressable)\n"
         "  R1-R4  grep rules in scripts/lint.sh: #pragma once in headers; "
         "no 'using namespace' in headers; require()/ensure()/RUSH_DCHECK() "
         "carry messages; no bare 'throw std::...' outside error.h "
         "[R4-ok]\n";
  return 0;
}

void print_findings(const std::vector<Finding>& findings, bool github = false) {
  for (const Finding& f : findings) {
    if (github) {
      // GitHub Actions workflow-command form: the annotation lands on the
      // PR diff at file:line.  Messages are single-line by construction.
      std::cout << "::error file=" << f.file << ",line=" << f.line
                << "::rushlint " << f.rule << ": " << f.message << "\n";
    } else {
      std::cout << f.file << ":" << f.line << ": rushlint " << f.rule << ": "
                << f.message << "\n";
    }
  }
}

/// D4 findings shared by every mode: malformed/unreasoned directives,
/// unknown tags, and stale (unused) suppressions.
std::vector<Finding> suppression_findings(const FileScan& scan) {
  std::vector<Finding> findings;
  for (const Suppression& s : scan.suppressions) {
    if (s.malformed) {
      findings.push_back({scan.path, s.line, "D4", s.problem});
    } else if (!known_tag(s.tag)) {
      findings.push_back({scan.path, s.line, "D4",
                          "unknown suppression tag '" + s.tag +
                              "' (expected nondeterminism-ok, "
                              "order-insensitive, float-sort-ok, unit-ok, "
                              "unit-escape, wire-asym, enum-sync-ok or "
                              "raw-memory-ok)"});
    } else if (!s.used) {
      findings.push_back({scan.path, s.line, "D4",
                          "stale suppression '" + s.tag +
                              "': nothing on this line or the next matches "
                              "the rule it silences"});
    }
  }
  return findings;
}

int run_self_test(const std::string& dir) {
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && has_cxx_extension(entry.path())) {
      fixtures.push_back(entry.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::cerr << "rushlint --self-test: no fixtures in " << dir << "\n";
    return 2;
  }
  int failures = 0;
  for (const fs::path& fixture : fixtures) {
    const std::string name = fixture.filename().string();
    // Expectation from the name: dN_pos_*/lN_pos_* fires exactly rule
    // DN/LN once; dN_neg_*/lN_neg_* is silent.  N may be multi-digit.
    std::size_t digits = 0;
    while (1 + digits < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[1 + digits]))) {
      ++digits;
    }
    if ((name[0] != 'd' && name[0] != 'l') || digits == 0 ||
        name.size() < digits + 6 || name[1 + digits] != '_') {
      std::cerr << "rushlint --self-test: fixture '" << name
                << "' must be named dN_pos_*.cc, dN_neg_*.cc, lN_pos_*.cc "
                   "or lN_neg_*.cc\n";
      ++failures;
      continue;
    }
    const std::string rule =
        std::string(1, static_cast<char>(std::toupper(name[0]))) +
        name.substr(1, digits);
    const bool expect_fire = name.substr(2 + digits, 3) == "pos";

    // Each fixture is analyzed in isolation with plan-dir rules forced on,
    // so a fixture declares exactly the state it exercises.  Path-scoped
    // rules (L1, the D6 kernel allowlist, the D10 scope) see the path the
    // fixture claims via `// rushlint-fixture-path:`, not the fixture
    // directory, and `// rushlint-schema-expect:` lines act as the
    // fixture's D9 baseline.
    std::vector<FileScan> scans;
    scans.push_back(lex_file(name, read_file(fixture)));
    FileScan& scan = scans.back();
    const std::string effective_path =
        scan.fixture_path.empty() ? scan.path : scan.fixture_path;
    Analyzer analyzer;
    analyzer.collect_decls(scan);
    std::vector<Finding> findings = analyzer.check_file(
        scan, /*plan_dir=*/true, is_d1_exempt(effective_path),
        is_unit_kernel(effective_path), scan.suppressions);
    for (Finding& f : layering_findings(scan, effective_path)) {
      findings.push_back(std::move(f));
    }
    for (Finding& f : raw_memory_findings(scan, effective_path)) {
      findings.push_back(std::move(f));
    }
    SchemaAnalyzer schema(scans);
    for (Finding& f : schema.analyze()) findings.push_back(std::move(f));
    if (!scan.schema_expects.empty()) {
      std::map<std::string, SchemaEntry> baseline;
      for (const auto& [line, payload] : scan.schema_expects) {
        SchemaEntry e;
        if (!parse_schema_entry(payload, e)) {
          findings.push_back({scan.path, line, "D9",
                              "malformed rushlint-schema-expect line"});
          continue;
        }
        baseline[e.id] = std::move(e);
      }
      std::vector<Finding> errs;
      const std::map<std::string, SchemaEntry> current =
          schema.current_schema(errs);
      for (Finding& f : errs) findings.push_back(std::move(f));
      for (Finding& f : SchemaAnalyzer::compare_schema(
               current, baseline, name + " (schema-expect)")) {
        findings.push_back(std::move(f));
      }
    }
    // D4 runs last: the schema passes mark wire-asym suppressions used.
    for (Finding& f : suppression_findings(scan)) findings.push_back(std::move(f));

    bool ok;
    if (expect_fire) {
      ok = findings.size() == 1 && findings[0].rule == rule;
    } else {
      ok = findings.empty();
    }
    if (ok) {
      std::cout << "PASS " << name << "\n";
    } else {
      ++failures;
      std::cout << "FAIL " << name << ": expected "
                << (expect_fire ? "exactly one " + rule + " finding"
                                : std::string("silence"))
                << ", got " << findings.size() << " finding(s)\n";
      print_findings(findings);
    }
  }
  if (failures > 0) {
    std::cout << "rushlint self-test: FAILED (" << failures << " fixture(s))\n";
    return 1;
  }
  std::cout << "rushlint self-test: OK (" << fixtures.size() << " fixtures)\n";
  return 0;
}

std::map<std::string, int> read_baseline(const std::string& path) {
  std::map<std::string, int> budget;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    int count = 0;
    if (fields >> tag >> count) budget[tag] = count;
  }
  return budget;
}

int run_scan(const Options& options) {
  // Assemble the scan set.
  std::vector<std::pair<fs::path, std::string>> files;  // (disk path, label)
  if (!options.repo_root.empty()) {
    const fs::path root(options.repo_root);
    // bench/ joined the scan set in v3: it is D1-exempt and not a plan
    // dir, but its daemon drivers dispatch on serialized enums (D8).
    for (const char* top : {"src", "tests", "examples", "bench"}) {
      const fs::path dir = root / top;
      if (!fs::exists(dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() && has_cxx_extension(entry.path())) {
          files.emplace_back(entry.path(),
                             fs::relative(entry.path(), root).generic_string());
        }
      }
    }
  }
  for (const std::string& f : options.files) {
    files.emplace_back(fs::path(f), fs::path(f).generic_string());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  if (files.empty()) return usage();

  std::vector<FileScan> scans;
  scans.reserve(files.size());
  Analyzer analyzer;
  for (const auto& [disk, label] : files) {
    scans.push_back(lex_file(label, read_file(disk)));
    analyzer.collect_decls(scans.back());
  }

  std::vector<Finding> findings;
  for (FileScan& scan : scans) {
    const bool plan_dir = options.force_plan_dir || is_plan_dir(scan.path);
    std::vector<Finding> file_findings =
        analyzer.check_file(scan, plan_dir, is_d1_exempt(scan.path),
                            is_unit_kernel(scan.path), scan.suppressions);
    for (Finding& f : file_findings) findings.push_back(std::move(f));
    for (Finding& f : layering_findings(scan, scan.path)) {
      findings.push_back(std::move(f));
    }
    for (Finding& f : raw_memory_findings(scan, scan.path)) {
      findings.push_back(std::move(f));
    }
  }

  // Schema passes run over the whole scan set at once: serializer pairs
  // and enum sync sites cross file boundaries.
  SchemaAnalyzer schema(scans);
  for (Finding& f : schema.analyze()) findings.push_back(std::move(f));
  if (options.update_schema_baseline) {
    std::vector<Finding> errs;
    const std::map<std::string, SchemaEntry> current =
        schema.current_schema(errs);
    for (Finding& f : errs) findings.push_back(std::move(f));
    if (errs.empty()) {
      std::string path = options.schema_baseline;
      if (path.empty()) {
        path = (fs::path(options.repo_root.empty() ? "." : options.repo_root) /
                "tools/rushlint/schema.baseline")
                   .generic_string();
      }
      if (!write_schema_baseline(path, current)) {
        std::cerr << "rushlint: cannot write schema baseline " << path << "\n";
        return 2;
      }
      std::cerr << "rushlint: wrote " << current.size()
                << " schema fingerprint(s) to " << path << "\n";
    }
  } else if (!options.schema_baseline.empty()) {
    std::vector<Finding> errs;
    const std::map<std::string, SchemaEntry> current =
        schema.current_schema(errs);
    for (Finding& f : errs) findings.push_back(std::move(f));
    std::vector<Finding> baseline_errs;
    const std::map<std::string, SchemaEntry> baseline =
        read_schema_baseline(options.schema_baseline, baseline_errs);
    for (Finding& f : baseline_errs) findings.push_back(std::move(f));
    for (Finding& f : SchemaAnalyzer::compare_schema(
             current, baseline, options.schema_baseline)) {
      findings.push_back(std::move(f));
    }
  }

  // D4 runs last: the schema passes mark wire-asym suppressions used.
  std::map<std::string, int> used_suppressions;
  for (FileScan& scan : scans) {
    for (Finding& f : suppression_findings(scan)) findings.push_back(std::move(f));
    for (const Suppression& s : scan.suppressions) {
      if (s.used) ++used_suppressions[s.tag];
    }
  }

  print_findings(findings, options.github);
  std::map<std::string, int> per_rule;
  for (const Finding& f : findings) ++per_rule[f.rule];
  if (options.github) {
    for (const auto& [rule, count] : per_rule) {
      std::cout << "::notice::rushlint " << rule << ": " << count
                << " finding(s)\n";
    }
  }

  bool budget_failed = false;
  if (!options.baseline.empty()) {
    // D4 ratchet: the suppression budget can only shrink.  More used
    // suppressions than the baseline fails; fewer prints a reminder to
    // tighten the checked-in numbers.
    const std::map<std::string, int> budget = read_baseline(options.baseline);
    for (const auto& [tag, used] : used_suppressions) {
      const auto it = budget.find(tag);
      const int allowed = it == budget.end() ? 0 : it->second;
      if (used > allowed) {
        std::cout << "rushlint D4: " << used << " '" << tag
                  << "' suppressions in use, but the baseline allows only "
                  << allowed << " (" << options.baseline
                  << ") — fix the code instead of suppressing\n";
        budget_failed = true;
        ++per_rule["D4"];
      }
    }
    for (const auto& [tag, allowed] : budget) {
      const auto it = used_suppressions.find(tag);
      const int used = it == used_suppressions.end() ? 0 : it->second;
      if (used < allowed) {
        std::cerr << "rushlint: note: only " << used << " '" << tag
                  << "' suppressions remain (baseline " << allowed
                  << ") — ratchet " << options.baseline << " down\n";
      }
    }
  }

  if (!findings.empty() || budget_failed) {
    std::cout << "rushlint: FAILED (";
    bool first = true;
    for (const auto& [rule, count] : per_rule) {
      if (!first) std::cout << ", ";
      std::cout << rule << ": " << count;
      first = false;
    }
    std::cout << ")\n";
    return 1;
  }
  std::cout << "rushlint: OK (" << files.size() << " files";
  if (!used_suppressions.empty()) {
    std::cout << ",";
    for (const auto& [tag, used] : used_suppressions) {
      std::cout << " " << used << " " << tag;
    }
    std::cout << " suppression(s)";
  }
  std::cout << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--repo-root" && a + 1 < argc) {
      options.repo_root = argv[++a];
    } else if (arg == "--baseline" && a + 1 < argc) {
      options.baseline = argv[++a];
    } else if (arg == "--schema-baseline" && a + 1 < argc) {
      options.schema_baseline = argv[++a];
    } else if (arg == "--update-schema-baseline") {
      options.update_schema_baseline = true;
    } else if (arg == "--list-rules") {
      return list_rules();
    } else if (arg == "--self-test" && a + 1 < argc) {
      options.self_test_dir = argv[++a];
    } else if (arg == "--plan-dir") {
      options.force_plan_dir = true;
    } else if (arg == "--github") {
      options.github = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      options.files.push_back(arg);
    }
  }
  if (!options.self_test_dir.empty()) return run_self_test(options.self_test_dir);
  if (options.repo_root.empty() && options.files.empty()) return usage();
  return run_scan(options);
}
