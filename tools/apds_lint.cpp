// apds_lint: in-repo static invariant checker for the apds codebase.
//
//   apds_lint [--json] [--root <dir>] [--list-rules] <path>...
//   apds_lint --include-graph [--dot <file>] [--root <dir>] <path>...
//
// The moment-propagation math is only correct if a set of silent project
// invariants holds everywhere; generic compiler warnings do not know about
// them, so this tool does. It is a line/token scanner (no libclang): each
// C++ file is masked — comments, string literals and char literals replaced
// by spaces, offsets preserved — and the rules below run over the masked
// text, so prose and log strings never trigger them.
//
// Most rules are per-file. One is whole-program: the scan first loads
// every file into a corpus (masked text + its #include references), then
// `layer-dag` checks the module dependency order over the include graph.
// `--include-graph` prints the module-level include graph that rule
// computed (with `--dot` as Graphviz).
//
// Rules (id — what it rejects):
//   no-unseeded-rng   rand()/srand()/std::random_device anywhere except the
//                     seeded RNG implementation (src/common/rng.*). Ad-hoc
//                     entropy breaks run-to-run reproducibility and the
//                     split-stream determinism the parallel kernels rely on.
//   float-equal       == / != with a floating-point literal operand.
//                     Exact FP sentinel compares are occasionally right but
//                     must be annotated (see suppressions below).
//   pow-square        std::pow(x, 2) in library code (src/). pow is a
//                     transcendental call; use square()/x*x.
//   naked-new         new / delete expressions. The codebase is
//                     container/value based; owning raw pointers leak under
//                     the exception paths APDS_CHECK creates.
//   raw-io            printf/fprintf/puts/std::cout/std::cerr in library
//                     code (src/) outside the sanctioned TUs
//                     (common/logging.cpp, obs/run_options.cpp). Library
//                     code logs through log_line so ctest output stays
//                     parseable and levels apply.
//   f32-double-literal  an f-suffix-less floating literal inside the
//                     f32-only TUs (stats/fast_math.{h,cpp}, the
//                     runtime-dispatched kernel TUs under
//                     tensor/kernels/). A double literal
//                     silently promotes the whole expression and
//                     de-vectorizes the SIMD fast path.
//   f32-libm-double   std::exp/std::erf/... (double libm transcendentals)
//                     inside the f32-only TUs; they must use the fast_math
//                     vectorizable approximations.
//   trapping-math     -fno-trapping-math in a CMakeLists.txt outside the
//                     allowlisted f32 TUs. The flag is only safe where the
//                     f64 reference path cannot be affected.
//   kernel-isa-flags  a per-TU -m ISA flag (-mavx*, -mfma*, -msse*) in a
//                     CMakeLists.txt applied to anything but the
//                     runtime-dispatched kernel TUs (kernels_avx2.cpp,
//                     kernels_avx512.cpp). The binary must boot on the
//                     weakest device and pick wider tiers via CPUID, so
//                     ISA flags may never leak onto ordinarily-called
//                     code.
//   hot-path-thread-local  thread_local state in src/core/ or src/tensor/
//                     outside the arena TU (src/core/arena.cpp). Hot-path
//                     scratch belongs in the InferenceSession's planned
//                     arena; ad-hoc thread_local buffers hide allocations
//                     from the memory plan and defeat the zero-alloc
//                     steady-state guarantee.
//   layer-dag         [cross-TU] a src/ file including a module at the
//                     same or a higher layer of the DESIGN.md dependency
//                     order (common < stats < platform < tensor < obs <
//                     nn < core < conv < uncertainty < metrics < data <
//                     eval), or any include cycle. Same-module includes
//                     are free; two per-file overrides exist
//                     (obs/request_context.h sits at the common layer,
//                     platform/cost_model.* at the metrics layer — see
//                     docs/STATIC_ANALYSIS.md).
//
// Suppressions (in a comment on the violation line or the line above):
//   // apds-lint: allow(<rule>[, <rule>...])   — suppress on this/next line
//   // apds-lint: allow-file(<rule>)           — suppress in the whole file
//
// Output: one "file:line: [rule] message" per violation plus a summary
// line, or a machine-readable report with --json (which also carries
// per-rule wall-clock timing under "rule_timing_ms").
// Exit codes: 0 = clean, 1 = violations found, 2 = usage / IO error.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Masked source: same length as the input, with comments and string/char
// literals blanked so rules only ever see code. Comment text is kept per
// line for suppression scanning.
// ---------------------------------------------------------------------------

struct MaskedSource {
  std::string code;                    ///< masked text, offsets == original
  std::vector<std::string> comments;   ///< comment text, index = line - 1
  std::vector<std::size_t> line_start; ///< offset of each line's first char

  std::size_t line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(line_start.begin(), line_start.end(), offset);
    return static_cast<std::size_t>(it - line_start.begin());
  }
};

void index_lines(const std::string& text, MaskedSource* out) {
  out->line_start.push_back(0);
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') out->line_start.push_back(i + 1);
  out->comments.assign(out->line_start.size(), "");
}

/// Mask C++ comments and literals. Handles //, /* */, "..." with escapes,
/// '...' with escapes, and R"delim(...)delim" raw strings.
MaskedSource mask_cpp(const std::string& text) {
  MaskedSource out;
  index_lines(text, &out);
  out.code = text;
  std::size_t line = 0;  // 0-based
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto blank = [&](std::size_t pos) {
    if (out.code[pos] != '\n') out.code[pos] = ' ';
  };
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') {
        out.comments[line].push_back(text[i]);
        blank(i);
        ++i;
      }
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      blank(i);
      blank(i + 1);
      i += 2;
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        if (text[i] == '\n')
          ++line;
        else
          out.comments[line].push_back(text[i]);
        blank(i);
        ++i;
      }
      if (i < n) {  // closing */
        blank(i);
        blank(i + 1);
        i += 2;
      }
      continue;
    }
    if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
        (i == 0 || !is_ident(text[i - 1]))) {
      // Raw string: R"delim( ... )delim"
      std::size_t d = i + 2;
      while (d < n && text[d] != '(' && d - i < 20) ++d;
      const std::string close =
          ")" + text.substr(i + 2, d - (i + 2)) + "\"";
      std::size_t end = text.find(close, d);
      if (end == std::string::npos) end = n;
      else end += close.size();
      for (std::size_t k = i; k < end; ++k) {
        if (text[k] == '\n') ++line;
        blank(k);
      }
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      blank(i);
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          blank(i);
          ++i;
        }
        if (i < n) {
          if (text[i] == '\n') ++line;  // unterminated; keep line count sane
          blank(i);
          ++i;
        }
      }
      if (i < n) {
        blank(i);
        ++i;
      }
      continue;
    }
    ++i;
  }
  return out;
}

/// Mask CMake '#' comments only; quoted strings stay visible (flags live
/// inside COMPILE_OPTIONS "..." strings).
MaskedSource mask_cmake(const std::string& text) {
  MaskedSource out;
  index_lines(text, &out);
  out.code = text;
  std::size_t line = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      in_string = false;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (c == '#' && !in_string) {
      while (i < text.size() && text[i] != '\n') {
        out.comments[line].push_back(text[i]);
        out.code[i] = ' ';
        ++i;
      }
      --i;  // let the loop handle the newline
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule plumbing
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* description;
};

constexpr RuleInfo kRules[] = {
    {"no-unseeded-rng",
     "rand()/srand()/std::random_device outside src/common/rng.* — use the "
     "seeded apds::Rng"},
    {"float-equal",
     "floating-point == / != against an FP literal — compare with a "
     "tolerance or annotate the exact-sentinel intent"},
    {"pow-square",
     "std::pow(x, 2) in src/ — use square(x) (tensor/ops.h) or x*x"},
    {"naked-new",
     "naked new/delete expression — use containers or std::make_unique"},
    {"raw-io",
     "printf/fprintf/puts/std::cout/std::cerr in src/ outside "
     "common/logging.cpp and obs/run_options.cpp — use APDS_LOG/log_line"},
    {"f32-double-literal",
     "double literal in an f32-only TU — add an f suffix (double promotion "
     "de-vectorizes the fast path)"},
    {"f32-libm-double",
     "double libm transcendental (std::exp/std::erf/...) in an f32-only TU "
     "— use stats/fast_math.h"},
    {"trapping-math",
     "-fno-trapping-math outside the allowlisted f32 TUs "
     "(fast_math.cpp and the tensor/kernels/ kernel TUs)"},
    {"kernel-isa-flags",
     "per-TU -m ISA flag (-mavx*/-mfma*/-msse*) outside the "
     "runtime-dispatched kernel TUs (kernels_avx2.cpp, kernels_avx512.cpp) "
     "— the binary must boot on the weakest device"},
    {"perf-syscall",
     "perf_event_open / timer_create / sigaction outside "
     "src/obs/perf_counters.* and src/obs/sampling_profiler.* — counter "
     "groups and profiling signal handlers live in the profiling layer"},
    {"hot-path-thread-local",
     "thread_local in src/core/ or src/tensor/ outside src/core/arena.cpp "
     "— hot-path scratch must be planned into the session arena"},
    {"layer-dag",
     "[cross-TU] include into a same-or-higher layer of the DESIGN.md "
     "module order (common < stats < platform < tensor < obs < nn < core < "
     "conv < uncertainty < metrics < data < eval), or an include cycle"},
};

/// Per-file suppression state parsed from comment text.
struct Suppressions {
  std::set<std::string> file_wide;
  // line (1-based) -> rules allowed on that line and the next.
  std::vector<std::set<std::string>> by_line;

  /// A line allow covers its own line and the one below it.
  bool allows(const std::string& rule, std::size_t line) const {
    if (file_wide.count(rule)) return true;
    if (line >= 1 && line <= by_line.size() &&
        by_line[line - 1].count(rule))
      return true;
    if (line >= 2 && line - 1 <= by_line.size() &&
        by_line[line - 2].count(rule))
      return true;
    return false;
  }
};

Suppressions parse_suppressions(const MaskedSource& src) {
  Suppressions sup;
  sup.by_line.resize(src.comments.size());
  static const std::regex re(
      R"(apds-lint:\s*(allow|allow-file)\s*\(([^)]*)\))");
  for (std::size_t l = 0; l < src.comments.size(); ++l) {
    const std::string& comment = src.comments[l];
    auto begin = std::sregex_iterator(comment.begin(), comment.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const bool file_wide = (*it)[1].str() == "allow-file";
      std::stringstream rules((*it)[2].str());
      std::string rule;
      while (std::getline(rules, rule, ',')) {
        rule.erase(0, rule.find_first_not_of(" \t"));
        rule.erase(rule.find_last_not_of(" \t") + 1);
        if (rule.empty()) continue;
        if (file_wide)
          sup.file_wide.insert(rule);
        else
          sup.by_line[l].insert(rule);
      }
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

bool has_suffix(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool has_prefix(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool is_cpp_file(const std::string& rel) {
  return has_suffix(rel, ".cpp") || has_suffix(rel, ".cc") ||
         has_suffix(rel, ".h") || has_suffix(rel, ".hpp") ||
         has_suffix(rel, ".inl");
}

bool is_cmake_file(const std::string& rel) {
  return has_suffix(rel, "CMakeLists.txt") || has_suffix(rel, ".cmake");
}

/// The TUs that must stay free of double contamination: the fast_math
/// approximations plus the runtime-dispatched kernel tiers (shared f32/i8
/// body + per-ISA TUs). The f64 moment tile's body
/// (kernels/kernel_body_f64.inl) sits outside the set on purpose: double
/// is its working type, and keeping it in its own file is what lets
/// kernel_body.inl stay double-free while the tiers still dispatch it.
bool is_f32_tu(const std::string& rel) {
  return has_suffix(rel, "src/stats/fast_math.cpp") ||
         has_suffix(rel, "src/stats/fast_math.h") ||
         has_suffix(rel, "src/stats/fast_math_body.inl") ||
         has_suffix(rel, "src/tensor/kernels/kernel_body.inl") ||
         has_suffix(rel, "src/tensor/kernels/kernels_scalar.cpp") ||
         has_suffix(rel, "src/tensor/kernels/kernels_avx2.cpp") ||
         has_suffix(rel, "src/tensor/kernels/kernels_avx512.cpp");
}

/// TUs sanctioned for raw console I/O: the logging sink itself and the
/// ObsSession export summary.
bool is_raw_io_sanctioned(const std::string& rel) {
  return has_suffix(rel, "src/common/logging.cpp") ||
         has_suffix(rel, "src/obs/run_options.cpp");
}

/// TUs sanctioned for raw perf_event_open syscalls and signal-handler
/// installation: the hardware-counter wrapper and the sampling profiler.
/// (std::signal is deliberately not covered — the flight recorder's
/// SIGUSR1 dump hook is a separate, sanctioned mechanism.)
bool is_perf_syscall_sanctioned(const std::string& rel) {
  return has_suffix(rel, "src/obs/perf_counters.h") ||
         has_suffix(rel, "src/obs/perf_counters.cpp") ||
         has_suffix(rel, "src/obs/sampling_profiler.h") ||
         has_suffix(rel, "src/obs/sampling_profiler.cpp");
}

/// The single TU sanctioned to own thread_local state on the hot path: the
/// arena layer (per-thread legacy scratch + the session-arena cache).
bool is_thread_local_sanctioned(const std::string& rel) {
  return has_suffix(rel, "src/core/arena.cpp");
}

bool is_rng_tu(const std::string& rel) {
  return has_suffix(rel, "src/common/rng.cpp") ||
         has_suffix(rel, "src/common/rng.h");
}

/// Basenames allowed to carry -fno-trapping-math in CMake source props:
/// the fast_math f32 TU plus the per-ISA kernel TUs (whose loops need
/// FP-compare if-conversion to vectorize).
bool is_trapping_math_allowlisted(const std::string& file_token) {
  const std::string base = fs::path(file_token).filename().string();
  return base == "fast_math.cpp" || base == "kernels_scalar.cpp" ||
         base == "kernels_avx2.cpp" || base == "kernels_avx512.cpp";
}

/// Basenames allowed to carry per-TU -m ISA flags: only the AVX kernel
/// tiers, which are never called unless CPUID proves support.
bool is_isa_flag_allowlisted(const std::string& file_token) {
  const std::string base = fs::path(file_token).filename().string();
  return base == "kernels_avx2.cpp" || base == "kernels_avx512.cpp";
}

// ---------------------------------------------------------------------------
// C++ rules
// ---------------------------------------------------------------------------

using Emit = std::vector<Violation>&;

void emit(Emit out, const std::string& rel, std::size_t line,
          const char* rule, const std::string& message) {
  out.push_back({rel, line, rule, message});
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// All floating-point literal spans [begin, end) in the masked text.
/// `double_only` keeps just the ones without an f/F suffix.
std::vector<std::pair<std::size_t, std::size_t>> float_literal_spans(
    const std::string& code, bool double_only) {
  static const std::regex re(
      R"((\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?[fFlL]*)");
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::string m = it->str();
    const auto begin = static_cast<std::size_t>(it->position());
    const std::size_t end = begin + m.size();
    // Must actually be floating: contains '.' or an exponent or f suffix.
    const bool floating =
        m.find('.') != std::string::npos ||
        m.find('e') != std::string::npos || m.find('E') != std::string::npos;
    if (!floating) continue;
    // Reject matches embedded in identifiers (v1.x member access can't
    // happen: '.' requires adjacent digits to match).
    if (begin > 0 && ident_char(code[begin - 1])) continue;
    if (end < code.size() && ident_char(code[end])) continue;
    if (double_only &&
        (m.find('f') != std::string::npos || m.find('F') != std::string::npos))
      continue;
    spans.emplace_back(begin, end);
  }
  return spans;
}

void rule_no_unseeded_rng(const MaskedSource& src, const std::string& rel,
                          Emit out) {
  if (is_rng_tu(rel)) return;
  static const std::regex re(
      R"(\b(srand|rand)\s*\(|\brandom_device\b)");
  for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(), re);
       it != std::sregex_iterator(); ++it)
    emit(out, rel, src.line_of(static_cast<std::size_t>(it->position())),
         "no-unseeded-rng",
         "ad-hoc entropy source '" + it->str() +
             "'; use the seeded apds::Rng (common/rng.h) so runs stay "
             "reproducible");
}

void rule_float_equal(const MaskedSource& src, const std::string& rel,
                      Emit out) {
  const auto spans = float_literal_spans(src.code, /*double_only=*/false);
  std::set<std::size_t> literal_begins, literal_ends;
  for (const auto& [b, e] : spans) {
    literal_begins.insert(b);
    literal_ends.insert(e);
  }
  const std::string& code = src.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const bool eq = code[i] == '=' && code[i + 1] == '=';
    const bool ne = code[i] == '!' && code[i + 1] == '=';
    if (!eq && !ne) continue;
    if (eq && i > 0 &&
        (code[i - 1] == '!' || code[i - 1] == '<' || code[i - 1] == '>' ||
         code[i - 1] == '='))
      continue;  // !=, <=, >= already handled / not an equality op
    if (eq && i + 2 < code.size() && code[i + 2] == '=') continue;
    // Right operand: skip spaces, optional sign, then an FP literal?
    std::size_t r = i + 2;
    while (r < code.size() && (code[r] == ' ' || code[r] == '\t')) ++r;
    if (r < code.size() && (code[r] == '+' || code[r] == '-')) ++r;
    const bool right_fp = literal_begins.count(r) > 0;
    // Left operand: skip spaces backwards, then an FP literal end?
    std::size_t l = i;
    while (l > 0 && (code[l - 1] == ' ' || code[l - 1] == '\t')) --l;
    const bool left_fp = literal_ends.count(l) > 0;
    if (right_fp || left_fp)
      emit(out, rel, src.line_of(i), "float-equal",
           std::string("floating-point ") + (eq ? "==" : "!=") +
               " against an FP literal; compare with a tolerance, or "
               "suppress with the exact-sentinel rationale");
  }
}

void rule_pow_square(const MaskedSource& src, const std::string& rel,
                     Emit out) {
  if (!has_prefix(rel, "src/")) return;
  const std::string& code = src.code;
  static const std::regex two(R"(^2(\.0*)?[fFlL]*$)");
  std::size_t pos = 0;
  while ((pos = code.find("pow", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 3;
    if (at > 0 && ident_char(code[at - 1])) continue;
    if (pos < code.size() && ident_char(code[pos])) continue;
    std::size_t i = pos;
    while (i < code.size() &&
           std::isspace(static_cast<unsigned char>(code[i])))
      ++i;
    if (i >= code.size() || code[i] != '(') continue;
    // Balanced scan for the top-level argument list.
    int depth = 0;
    std::vector<std::string> args(1);
    for (; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
        if (depth == 1) continue;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) break;
      } else if (c == ',' && depth == 1) {
        args.emplace_back();
        continue;
      }
      if (depth >= 1) args.back().push_back(c);
    }
    if (args.size() != 2) continue;
    std::string exponent = args[1];
    exponent.erase(
        std::remove_if(exponent.begin(), exponent.end(),
                       [](unsigned char c) { return std::isspace(c); }),
        exponent.end());
    if (std::regex_match(exponent, two))
      emit(out, rel, src.line_of(at), "pow-square",
           "std::pow(x, " + exponent +
               ") is a transcendental call; use square(x) or x*x");
  }
}

void rule_naked_new(const MaskedSource& src, const std::string& rel,
                    Emit out) {
  const std::string& code = src.code;
  static const std::regex re(R"(\b(new|delete)\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    const std::string word = it->str();
    // Skip "operator new" / "operator delete" declarations.
    std::size_t p = at;
    while (p > 0 && std::isspace(static_cast<unsigned char>(code[p - 1])))
      --p;
    if (p >= 8 && code.compare(p - 8, 8, "operator") == 0) continue;
    if (word == "delete") {
      // "= delete" / "= delete;" — deleted special member, not a delete
      // expression.
      if (p > 0 && code[p - 1] == '=') continue;
    }
    emit(out, rel, src.line_of(at), "naked-new",
         "naked '" + word +
             "' expression; use containers, std::make_unique or RAII "
             "wrappers (APDS_CHECK throws — raw owners leak)");
  }
}

void rule_raw_io(const MaskedSource& src, const std::string& rel, Emit out) {
  if (!has_prefix(rel, "src/")) return;
  if (is_raw_io_sanctioned(rel)) return;
  static const std::regex re(
      R"(std\s*::\s*(cout|cerr)\b|(^|[^\w:])(printf|fprintf|puts|putchar)\s*\()");
  for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(), re);
       it != std::sregex_iterator(); ++it) {
    std::size_t at = static_cast<std::size_t>(it->position());
    std::string what = it->str();
    if (!what.empty() && !ident_char(what[0]) && what[0] != 's') {
      ++at;  // matched the boundary char before printf/puts
      what.erase(0, 1);
    }
    emit(out, rel, src.line_of(at), "raw-io",
         "raw console I/O ('" + what.substr(0, what.find('(')) +
             "') in library code; use APDS_LOG_AT / log_line so levels and "
             "the logging mutex apply");
  }
}

void rule_perf_syscall(const MaskedSource& src, const std::string& rel,
                       Emit out) {
  if (is_perf_syscall_sanctioned(rel)) return;
  static const std::regex re(
      R"(\b(perf_event_open|__NR_perf_event_open|timer_create|sigaction)\b)");
  for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(), re);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    // `struct sigaction sa;` uses the type, not the call — still flagged:
    // installing any handler outside the profiling layer risks clobbering
    // the SIGPROF chain, so the type's presence is the signal we want.
    std::string message = "'";
    message += it->str();
    message +=
        "' outside src/obs/perf_counters.* / sampling_profiler.*; "
        "counter groups and profiling signal handlers are confined to "
        "the profiling layer (one owner for SIGPROF and fd lifetime)";
    emit(out, rel, src.line_of(at), "perf-syscall", message);
  }
}

void rule_hot_path_thread_local(const MaskedSource& src,
                                const std::string& rel, Emit out) {
  if (!has_prefix(rel, "src/core/") && !has_prefix(rel, "src/tensor/"))
    return;
  if (is_thread_local_sanctioned(rel)) return;
  static const std::regex re(R"(\bthread_local\b)");
  for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(), re);
       it != std::sregex_iterator(); ++it)
    emit(out, rel, src.line_of(static_cast<std::size_t>(it->position())),
         "hot-path-thread-local",
         "thread_local state in hot-path code; plan the buffer into the "
         "session arena (core/arena.h) — ad-hoc per-thread scratch hides "
         "allocations from the memory plan");
}

void rule_f32_double_literal(const MaskedSource& src, const std::string& rel,
                             Emit out) {
  if (!is_f32_tu(rel)) return;
  for (const auto& [b, e] : float_literal_spans(src.code, true))
    emit(out, rel, src.line_of(b), "f32-double-literal",
         "double literal '" + src.code.substr(b, e - b) +
             "' in an f32-only TU; use an f-suffixed literal (double "
             "promotion erases the SIMD win)");
}

void rule_f32_libm_double(const MaskedSource& src, const std::string& rel,
                          Emit out) {
  if (!is_f32_tu(rel)) return;
  static const std::regex re(
      R"(std\s*::\s*(exp2?|expm1|erfc?|log1?[02p]?|pow|[lt]gamma)\s*\(|(^|[^\w:.])(exp|erf|erfc|pow)\s*\()");
  for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(), re);
       it != std::sregex_iterator(); ++it) {
    std::size_t at = static_cast<std::size_t>(it->position());
    std::string what = it->str();
    if (!what.empty() && !ident_char(what[0]) && what[0] != 's') {
      ++at;
      what.erase(0, 1);
    }
    emit(out, rel, src.line_of(at), "f32-libm-double",
         "double libm call '" + what.substr(0, what.find('(')) +
             "' in an f32-only TU; use fast_expf/fast_erff "
             "(stats/fast_math.h)");
  }
}

// ---------------------------------------------------------------------------
// CMake rule
// ---------------------------------------------------------------------------

/// Source-file tokens of the innermost set_source_files_properties(...)
/// call enclosing `at` (the tokens between '(' and PROPERTIES), or an
/// empty list when `at` is not inside such a call.
std::vector<std::string> enclosing_source_props_files(const std::string& code,
                                                      std::size_t at) {
  std::vector<std::string> files;
  const std::size_t call = code.rfind("set_source_files_properties", at);
  if (call == std::string::npos) return files;
  const std::size_t open = code.find('(', call);
  if (open == std::string::npos || open >= at) return files;
  int depth = 0;
  std::size_t close = open;
  for (; close < code.size(); ++close) {
    if (code[close] == '(') ++depth;
    if (code[close] == ')' && --depth == 0) break;
  }
  if (at >= close) return files;
  std::size_t props = code.find("PROPERTIES", open);
  if (props == std::string::npos || props > close) props = close;
  std::stringstream tokens(code.substr(open + 1, props - open - 1));
  std::string tok;
  while (tokens >> tok) files.push_back(tok);
  return files;
}

void rule_trapping_math(const MaskedSource& src, const std::string& rel,
                        Emit out) {
  const std::string& code = src.code;
  std::size_t pos = 0;
  while ((pos = code.find("-fno-trapping-math", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 1;
    const std::vector<std::string> files =
        enclosing_source_props_files(code, at);
    bool sanctioned = !files.empty();
    for (const std::string& tok : files)
      if (!is_trapping_math_allowlisted(tok)) sanctioned = false;
    if (!sanctioned)
      emit(out, rel, src.line_of(at), "trapping-math",
           "-fno-trapping-math outside the allowlisted f32 TUs "
           "(fast_math.cpp and the tensor/kernels/ TUs); the f64 reference "
           "path must keep default FP trapping semantics");
  }
}

void rule_kernel_isa_flags(const MaskedSource& src, const std::string& rel,
                           Emit out) {
  const std::string& code = src.code;
  // A compiler ISA flag: -mavx..., -mfma..., -msse... as a whole token.
  static const std::regex re(R"(-m(avx|fma|sse)[\w.]*)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
       it != std::sregex_iterator(); ++it) {
    const auto at = static_cast<std::size_t>(it->position());
    if (at > 0 && (ident_char(code[at - 1]) || code[at - 1] == '-'))
      continue;  // substring of a longer token, not a flag
    const std::vector<std::string> files =
        enclosing_source_props_files(code, at);
    bool sanctioned = !files.empty();
    for (const std::string& tok : files)
      if (!is_isa_flag_allowlisted(tok)) sanctioned = false;
    if (!sanctioned)
      emit(out, rel, src.line_of(at), "kernel-isa-flags",
           "ISA flag '" + it->str() +
               "' outside the runtime-dispatched kernel TUs "
               "(kernels_avx2.cpp, kernels_avx512.cpp); ordinarily-called "
               "code must run on the SSE2 baseline and widen via CPUID");
  }
}

// ---------------------------------------------------------------------------
// Cross-TU corpus: every scanned file retained with its masked text,
// suppressions and #include references, so the whole-program rule can see
// the include graph.
// ---------------------------------------------------------------------------

struct IncludeRef {
  std::string target;  ///< the quoted include path, as written
  std::size_t line = 0;
};

struct FileEntry {
  std::string rel;
  MaskedSource src;
  bool cpp = false;
  bool cmake = false;
  Suppressions sup;
  std::vector<IncludeRef> includes;  ///< quoted includes only (project refs)
};

struct Corpus {
  std::vector<FileEntry> files;
};

/// Quoted #include references, extracted from the RAW text: mask_cpp blanks
/// string literals, and an include path is one, so the masked code never
/// contains it.
std::vector<IncludeRef> extract_includes(const std::string& text) {
  std::vector<IncludeRef> out;
  std::size_t line = 1;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::size_t i = pos;
    while (i < eol && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (i < eol && text[i] == '#') {
      ++i;
      while (i < eol && (text[i] == ' ' || text[i] == '\t')) ++i;
      if (i + 7 <= eol && text.compare(i, 7, "include") == 0) {
        i += 7;
        while (i < eol && (text[i] == ' ' || text[i] == '\t')) ++i;
        if (i < eol && text[i] == '"') {
          const std::size_t close = text.find('"', i + 1);
          if (close != std::string::npos && close < eol)
            out.push_back({text.substr(i + 1, close - i - 1), line});
        }
      }
    }
    if (eol == text.size()) break;
    pos = eol + 1;
    ++line;
  }
  return out;
}

FileEntry load_file(const fs::path& path, const std::string& rel) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path.string());
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  FileEntry entry;
  entry.rel = rel;
  entry.cpp = is_cpp_file(rel);
  entry.cmake = is_cmake_file(rel);
  entry.src = entry.cpp ? mask_cpp(text) : mask_cmake(text);
  entry.sup = parse_suppressions(entry.src);
  if (entry.cpp) entry.includes = extract_includes(text);
  return entry;
}

// ---------------------------------------------------------------------------
// layer-dag: the DESIGN.md module order as an explicit DAG. A src/ file may
// include its own module or any strictly lower layer; two files sit at a
// different layer than their directory (see docs/STATIC_ANALYSIS.md).
// ---------------------------------------------------------------------------

constexpr const char* kLayerOrder[] = {
    "common", "stats",       "platform", "tensor", "obs",  "nn",
    "core",   "conv",        "uncertainty", "metrics", "data", "eval",
};

int layer_rank(const std::string& module) {
  for (std::size_t i = 0; i < std::size(kLayerOrder); ++i)
    if (module == kLayerOrder[i]) return static_cast<int>(i);
  return -1;
}

/// Module (directory under src/) of a repo-relative path, or "" when the
/// path is not of the form src/<module>/...
std::string module_of(const std::string& rel) {
  if (!has_prefix(rel, "src/")) return std::string();
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return std::string();
  return rel.substr(4, slash - 4);
}

/// Layer of a file, honoring the per-file overrides: request_context.h is
/// a dependency-free value type the platform layer threads through worker
/// dispatch (common layer), and cost_model.* consumes metrics/eval-side
/// calibration data (metrics layer).
int file_layer_rank(const std::string& rel) {
  if (!has_prefix(rel, "src/")) return -1;
  if (has_suffix(rel, "src/obs/request_context.h"))
    return layer_rank("common");
  if (has_suffix(rel, "src/platform/cost_model.h") ||
      has_suffix(rel, "src/platform/cost_model.cpp"))
    return layer_rank("metrics");
  return layer_rank(module_of(rel));
}

/// Does the quoted include `inc` name a file under this tree's src/?
/// Checked against the loaded corpus first (single-file scans see only one
/// file) and the filesystem second.
bool include_resolves(const std::string& inc,
                      const std::set<std::string>& corpus_rels,
                      const fs::path& root) {
  if (corpus_rels.count("src/" + inc)) return true;
  std::error_code ec;
  return fs::exists(root / "src" / inc, ec);
}

void rule_layer_dag(const Corpus& corpus, const fs::path& root, Emit out) {
  std::set<std::string> rels;
  std::map<std::string, int> index;
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    rels.insert(corpus.files[i].rel);
    index[corpus.files[i].rel] = static_cast<int>(i);
  }

  // File-level include graph (corpus-internal edges only) for the cycle
  // check; the layering check also accepts on-disk resolution.
  std::vector<std::vector<std::pair<int, std::size_t>>> adj(
      corpus.files.size());

  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    const FileEntry& f = corpus.files[i];
    if (!f.cpp || !has_prefix(f.rel, "src/")) continue;
    const std::string src_module = module_of(f.rel);
    const int src_rank = file_layer_rank(f.rel);
    for (const IncludeRef& inc : f.includes) {
      if (!include_resolves(inc.target, rels, root)) continue;
      const std::string target_rel = "src/" + inc.target;
      const auto it = index.find(target_rel);
      if (it != index.end())
        adj[i].push_back({it->second, inc.line});
      const std::string tgt_module = module_of(target_rel);
      if (src_module.empty() || tgt_module.empty()) continue;
      if (src_module == tgt_module) continue;  // intra-module is free
      const int tgt_rank = file_layer_rank(target_rel);
      if (src_rank < 0 || tgt_rank < 0) continue;
      if (tgt_rank >= src_rank)
        emit(out, f.rel, inc.line, "layer-dag",
             "up-layer include: " + src_module + " (layer " +
                 std::to_string(src_rank) + ") -> " + inc.target + " (" +
                 tgt_module + ", layer " + std::to_string(tgt_rank) +
                 "); the DESIGN.md layer DAG only allows includes into "
                 "strictly lower layers");
    }
  }

  // Include cycles (catches same-module header cycles the rank rule
  // cannot see). DFS colors; each back edge reports the cycle path once.
  std::vector<int> color(corpus.files.size(), 0);
  std::vector<int> path;
  std::function<void(int)> dfs = [&](int u) {
    color[u] = 1;
    path.push_back(u);
    for (const auto& [v, line] : adj[u]) {
      if (color[v] == 1) {
        std::string desc;
        bool in_cycle = false;
        for (const int p : path) {
          if (p == v) in_cycle = true;
          if (!in_cycle) continue;
          desc += corpus.files[p].rel + " -> ";
        }
        desc += corpus.files[v].rel;
        emit(out, corpus.files[u].rel, line, "layer-dag",
             "include cycle: " + desc);
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (std::size_t i = 0; i < corpus.files.size(); ++i)
    if (color[i] == 0) dfs(static_cast<int>(i));
}

// ---------------------------------------------------------------------------
// Module-level include graph (--include-graph / --dot): the same resolved
// edges the layer-dag rule walks, aggregated per module.
// ---------------------------------------------------------------------------

/// Display node for a file: "src/<module>" for library code, the first
/// path component (bench/examples/tools/...) otherwise.
std::string graph_node_of(const std::string& rel) {
  const std::string m = module_of(rel);
  if (!m.empty()) return "src/" + m;
  const std::size_t slash = rel.find('/');
  if (slash == std::string::npos) return std::string();
  return rel.substr(0, slash);
}

struct ModuleGraph {
  std::set<std::string> nodes;
  /// (from, to) -> number of file-level includes.
  std::map<std::pair<std::string, std::string>, std::size_t> edges;
};

ModuleGraph build_module_graph(const Corpus& corpus, const fs::path& root) {
  std::set<std::string> rels;
  for (const FileEntry& f : corpus.files) rels.insert(f.rel);
  ModuleGraph g;
  for (const FileEntry& f : corpus.files) {
    if (!f.cpp) continue;
    const std::string from = graph_node_of(f.rel);
    if (from.empty()) continue;
    g.nodes.insert(from);
    for (const IncludeRef& inc : f.includes) {
      if (!include_resolves(inc.target, rels, root)) continue;
      const std::string to = graph_node_of("src/" + inc.target);
      if (to.empty() || to == from) continue;
      g.nodes.insert(to);
      ++g.edges[{from, to}];
    }
  }
  return g;
}

void print_module_graph(const ModuleGraph& g) {
  std::printf("include graph: %zu modules, %zu edges\n", g.nodes.size(),
              g.edges.size());
  for (const std::string& node : g.nodes) {
    const int rank =
        has_prefix(node, "src/") ? layer_rank(node.substr(4)) : -1;
    if (rank >= 0)
      std::printf("%s (layer %d)\n", node.c_str(), rank);
    else
      std::printf("%s\n", node.c_str());
  }
  for (const auto& [edge, count] : g.edges)
    std::printf("%s -> %s (%zu include%s)\n", edge.first.c_str(),
                edge.second.c_str(), count, count == 1 ? "" : "s");
}

void write_module_graph_dot(const ModuleGraph& g, const fs::path& out_path) {
  std::ofstream os(out_path);
  if (!os)
    throw std::runtime_error("cannot write " + out_path.string());
  os << "// Module-level include graph, generated by apds_lint "
        "--include-graph --dot.\n";
  os << "// Edges point at the included (lower-layer) module; the layer\n";
  os << "// numbers are the DESIGN.md dependency order the layer-dag rule "
        "enforces.\n";
  os << "digraph apds_include_graph {\n";
  os << "  rankdir=BT;\n";
  os << "  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const std::string& node : g.nodes) {
    const int rank =
        has_prefix(node, "src/") ? layer_rank(node.substr(4)) : -1;
    os << "  \"" << node << "\"";
    if (rank >= 0)
      os << " [label=\"" << node << "\\nlayer " << rank << "\"]";
    os << ";\n";
  }
  for (const auto& [edge, count] : g.edges)
    os << "  \"" << edge.first << "\" -> \"" << edge.second
       << "\" [label=\"" << count << "\"];\n";
  os << "}\n";
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Report {
  std::vector<Violation> violations;
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  std::map<std::string, double> rule_timing_ms;
};

bool skip_dir(const std::string& name) {
  return name == ".git" || name == "lint_fixtures" ||
         name.rfind("build", 0) == 0 || name == "third_party";
}

std::string relative_to(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec || rel.empty()) ? p.generic_string()
                                      : rel.generic_string();
  // Outside-root paths come back as ../..; fall back to the absolute form
  // so prefix-based rule scoping (src/...) never misfires on "..".
  if (s.rfind("..", 0) == 0) s = p.generic_string();
  return s;
}

void scan_path(const fs::path& path, const fs::path& root, Corpus* corpus) {
  if (fs::is_directory(path)) {
    std::vector<fs::path> entries;
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_directory() && skip_dir(entry.path().filename().string()))
        continue;
      entries.push_back(entry.path());
    }
    std::sort(entries.begin(), entries.end());
    for (const fs::path& p : entries) scan_path(p, root, corpus);
    return;
  }
  const std::string rel = relative_to(path, root);
  if (!is_cpp_file(rel) && !is_cmake_file(rel)) return;
  if (!fs::is_regular_file(path)) {
    // A lintable name that is not a readable regular file (dangling
    // symlink, fifo, ...) must fail the scan loudly — silently skipping it
    // would report a "clean" tree that was never fully read.
    throw std::runtime_error("cannot read " + path.string() +
                             " (not a regular readable file)");
  }
  corpus->files.push_back(load_file(path, rel));
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: apds_lint [--json] [--root <dir>] [--list-rules] <path>...\n"
      "       apds_lint --include-graph [--dot <file>] [--root <dir>] "
      "<path>...\n"
      "  scans .cpp/.h/.cc/.hpp and CMakeLists.txt files (directories\n"
      "  recursively; build*/.git/lint_fixtures skipped) for apds project\n"
      "  invariants, including the cross-TU layer-dag rule. --root sets\n"
      "  the prefix rule scoping is computed against (default: current\n"
      "  directory). --include-graph prints the module-level include graph\n"
      "  instead of linting; --dot also writes it as Graphviz.\n"
      "  exit codes: 0 clean, 1 violations, 2 usage/IO error\n");
  return 2;
}

/// Run `fn`, accumulating its wall-clock into the per-rule timing table.
template <typename Fn>
void timed_rule(Report* report, const char* rule, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  report->rule_timing_ms[rule] +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool include_graph = false;
  fs::path root = fs::current_path();
  fs::path dot_path;
  std::vector<fs::path> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) return usage();
      root = argv[++i];
    } else if (arg == "--include-graph") {
      include_graph = true;
    } else if (arg == "--dot") {
      if (i + 1 >= argc) return usage();
      dot_path = argv[++i];
      include_graph = true;  // --dot implies graph mode
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules)
        std::printf("%-20s %s\n", r.id, r.description);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "apds_lint: unknown flag '%s'\n", arg.c_str());
      return usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) return usage();

  Corpus corpus;
  try {
    root = fs::weakly_canonical(root);
    for (const fs::path& p : paths) {
      if (!fs::exists(p)) {
        std::fprintf(stderr, "apds_lint: no such path: %s\n",
                     p.string().c_str());
        return 2;
      }
      scan_path(fs::weakly_canonical(p), root, &corpus);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apds_lint: %s\n", e.what());
    return 2;
  }

  if (include_graph) {
    const ModuleGraph graph = build_module_graph(corpus, root);
    try {
      if (!dot_path.empty()) write_module_graph_dot(graph, dot_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "apds_lint: %s\n", e.what());
      return 2;
    }
    print_module_graph(graph);
    return 0;
  }

  Report report;
  report.files_scanned = corpus.files.size();

  // Per-file rules (rule-major so each rule's cost is attributable).
  struct CppRule {
    const char* id;
    void (*fn)(const MaskedSource&, const std::string&, Emit);
  };
  constexpr CppRule kCppRules[] = {
      {"no-unseeded-rng", rule_no_unseeded_rng},
      {"float-equal", rule_float_equal},
      {"pow-square", rule_pow_square},
      {"naked-new", rule_naked_new},
      {"raw-io", rule_raw_io},
      {"perf-syscall", rule_perf_syscall},
      {"hot-path-thread-local", rule_hot_path_thread_local},
      {"f32-double-literal", rule_f32_double_literal},
      {"f32-libm-double", rule_f32_libm_double},
  };
  constexpr CppRule kCmakeRules[] = {
      {"trapping-math", rule_trapping_math},
      {"kernel-isa-flags", rule_kernel_isa_flags},
  };

  std::vector<Violation> found;
  for (const CppRule& rule : kCppRules)
    timed_rule(&report, rule.id, [&] {
      for (const FileEntry& f : corpus.files)
        if (f.cpp) rule.fn(f.src, f.rel, found);
    });
  for (const CppRule& rule : kCmakeRules)
    timed_rule(&report, rule.id, [&] {
      for (const FileEntry& f : corpus.files)
        if (f.cmake) rule.fn(f.src, f.rel, found);
    });

  // Cross-TU rule over the whole corpus.
  timed_rule(&report, "layer-dag",
             [&] { rule_layer_dag(corpus, root, found); });

  // Suppression filtering, keyed by each violation's file.
  std::map<std::string, const Suppressions*> sup_by_rel;
  for (const FileEntry& f : corpus.files) sup_by_rel[f.rel] = &f.sup;
  for (Violation& v : found) {
    const auto it = sup_by_rel.find(v.file);
    if (it != sup_by_rel.end() && it->second->allows(v.rule, v.line))
      ++report.suppressed;
    else
      report.violations.push_back(std::move(v));
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });

  if (json) {
    std::printf("{\n  \"tool\": \"apds_lint\",\n");
    std::printf("  \"files_scanned\": %zu,\n", report.files_scanned);
    std::printf("  \"suppressed\": %zu,\n", report.suppressed);
    std::printf("  \"rule_timing_ms\": {");
    std::size_t t = 0;
    for (const auto& [rule, ms] : report.rule_timing_ms)
      std::printf("%s\n    \"%s\": %.3f", t++ ? "," : "", rule.c_str(), ms);
    std::printf("%s},\n", report.rule_timing_ms.empty() ? "" : "\n  ");
    std::printf("  \"violations\": [");
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
      const Violation& v = report.violations[i];
      std::printf("%s\n    {\"file\": \"%s\", \"line\": %zu, "
                  "\"rule\": \"%s\", \"message\": \"%s\"}",
                  i ? "," : "", json_escape(v.file).c_str(), v.line,
                  json_escape(v.rule).c_str(),
                  json_escape(v.message).c_str());
    }
    std::printf("%s]\n}\n", report.violations.empty() ? "" : "\n  ");
  } else {
    for (const Violation& v : report.violations)
      std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                  v.rule.c_str(), v.message.c_str());
    std::printf("apds_lint: %zu violation(s), %zu suppressed, %zu file(s) "
                "scanned\n",
                report.violations.size(), report.suppressed,
                report.files_scanned);
  }
  return report.violations.empty() ? 0 : 1;
}
