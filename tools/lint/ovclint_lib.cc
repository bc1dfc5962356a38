#include "tools/lint/ovclint_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace ovc::lint {

namespace fs = std::filesystem;

namespace {

/// The layer order, lowest first. A file in layer i may include layers
/// 0..i; including a higher layer is OVC-L001. The order is the
/// topological order of the live include graph (common/ovc_word.h keeps
/// row below core: row containers store code words, core's codec algebra
/// needs row schemas).
const char* const kLayers[] = {"common", "row",     "core", "pq",  "sort",
                               "exec",   "storage", "plan", "sql", "server"};

int LayerRank(const std::string& dir) {
  for (size_t i = 0; i < sizeof(kLayers) / sizeof(kLayers[0]); ++i) {
    if (dir == kLayers[i]) return static_cast<int>(i);
  }
  return -1;
}

/// 1-based line number of byte offset `pos` in `text`.
int LineOf(const std::string& text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() +
                                             static_cast<long>(pos), '\n'));
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// True when `text[pos..]` matches `token` with identifier boundaries on
/// both sides.
bool TokenAt(const std::string& text, size_t pos, const std::string& token) {
  if (text.compare(pos, token.size(), token) != 0) return false;
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  if (pos > 0 && is_ident(text[pos - 1])) return false;
  const size_t end = pos + token.size();
  if (end < text.size() && is_ident(text[end])) return false;
  return true;
}

/// Extracts the balanced-paren argument of a macro call starting at the
/// '(' at `open`. Returns the text between the parens (empty on a
/// malformed file).
std::string BalancedArg(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      --depth;
      if (depth == 0) return text.substr(open + 1, i - open - 1);
    }
  }
  return std::string();
}

std::string Lowered(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// The expected include guard for `rel` ("src/exec/exchange.h" ->
/// OVC_EXEC_EXCHANGE_H_, "tools/lint/ovclint_lib.h" ->
/// OVC_TOOLS_LINT_OVCLINT_LIB_H_).
std::string ExpectedGuard(std::string rel) {
  if (StartsWith(rel, "src/")) rel = rel.substr(4);
  std::string guard = "OVC_";
  for (char c : rel) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

struct SourceFile {
  std::string rel;      // forward-slash path relative to root
  std::string raw;      // file contents
  std::string code;     // comments stripped, strings intact
  std::set<std::string> suppressed;  // rule IDs disabled for this file
};

/// Failpoint names follow `component.event` (dotted lowercase); this is
/// what keeps the registry-table parse from matching other tables in
/// docs/ROBUSTNESS.md.
bool IsFailpointName(const std::string& s) {
  bool dot = false;
  if (s.empty()) return false;
  for (char c : s) {
    if (c == '.') {
      dot = true;
    } else if (!(std::islower(static_cast<unsigned char>(c)) ||
                 std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return dot;
}

}  // namespace

std::string StripComments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLine, kBlock, kString, kChar } state = State::kCode;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out += "  ";
          ++i;
        } else {
          if (c == '"') state = State::kString;
          if (c == '\'') state = State::kChar;
          out += c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
          out += c;
        } else {
          out += ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        out += c;
        if (c == '\\' && next != '\0') {
          out += next;
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        out += c;
        if (c == '\\' && next != '\0') {
          out += next;
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

std::vector<Finding> LintTree(const std::string& root) {
  std::vector<Finding> all;
  std::vector<SourceFile> files;

  // --- collect and preprocess files ---------------------------------------
  for (const char* sub : {"src", "tools", "tests", "bench/ablation"}) {
    const fs::path base = fs::path(root) / sub;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::string rel =
          fs::relative(entry.path(), fs::path(root)).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      SourceFile f;
      f.rel = std::move(rel);
      f.raw = buf.str();
      f.code = StripComments(f.raw);
      files.push_back(std::move(f));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.rel < b.rel; });

  // --- suppressions (parsed from raw text: they live in comments) ---------
  const std::string kMarker = "ovclint-disable-file";
  for (SourceFile& f : files) {
    std::istringstream lines(f.raw);
    std::string line;
    int lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      const size_t at = line.find(kMarker);
      if (at == std::string::npos) continue;
      // Only markers inside a // comment count: a string literal that
      // merely mentions the marker (this file's own scanner, say) is
      // neither a suppression nor malformed.
      const size_t slashes = line.find("//");
      if (slashes == std::string::npos || slashes > at) continue;
      std::string rest = line.substr(at + kMarker.size());
      const size_t dash = rest.find("--");
      std::set<std::string> rules;
      bool well_formed = dash != std::string::npos;
      if (well_formed) {
        // Reason must be non-empty after "--".
        std::string reason = rest.substr(dash + 2);
        well_formed = reason.find_first_not_of(" \t\r") != std::string::npos;
        std::istringstream rule_stream(rest.substr(0, dash));
        std::string tok;
        while (rule_stream >> tok) {
          while (!tok.empty() && tok.back() == ',') tok.pop_back();
          if (StartsWith(tok, "OVC-L") && tok.size() == 8) {
            rules.insert(tok);
          } else {
            well_formed = false;
          }
        }
        if (rules.empty()) well_formed = false;
      }
      if (!well_formed) {
        all.push_back({"OVC-L000", f.rel, lineno,
                       "malformed suppression; use "
                       "\"ovclint-disable-file OVC-LNNN -- reason\""});
        continue;
      }
      f.suppressed.insert(rules.begin(), rules.end());
    }
  }

  auto report = [&all](const SourceFile& f, const char* rule, int line,
                       std::string message) {
    if (f.suppressed.count(rule)) return;
    all.push_back({rule, f.rel, line, std::move(message)});
  };

  // --- OVC-L001: layering -------------------------------------------------
  for (const SourceFile& f : files) {
    if (!StartsWith(f.rel, "src/")) continue;
    const size_t slash = f.rel.find('/', 4);
    if (slash == std::string::npos) continue;
    const std::string layer = f.rel.substr(4, slash - 4);
    const int rank = LayerRank(layer);
    if (rank < 0) continue;
    size_t pos = 0;
    while ((pos = f.code.find("#include", pos)) != std::string::npos) {
      const size_t q1 = f.code.find_first_of("\"<\n", pos + 8);
      if (q1 == std::string::npos || f.code[q1] != '"') {
        pos += 8;
        continue;
      }
      const size_t q2 = f.code.find('"', q1 + 1);
      if (q2 == std::string::npos) break;
      const std::string inc = f.code.substr(q1 + 1, q2 - q1 - 1);
      const size_t inc_slash = inc.find('/');
      if (inc_slash != std::string::npos) {
        const std::string inc_dir = inc.substr(0, inc_slash);
        const int inc_rank = LayerRank(inc_dir);
        if (inc_rank > rank) {
          report(f, "OVC-L001", LineOf(f.code, pos),
                 "layering: src/" + layer + " (layer " + std::to_string(rank) +
                     ") must not include \"" + inc + "\" (layer " +
                     std::to_string(inc_rank) + "); the order is common -> " +
                     "row -> core -> pq -> sort -> exec -> storage -> plan " +
                     "-> sql");
        } else if (inc_rank < 0 &&
                   (inc_dir == "tools" || inc_dir == "tests" ||
                    inc_dir == "bench" || inc_dir == "examples")) {
          report(f, "OVC-L001", LineOf(f.code, pos),
                 "layering: src/ must not include \"" + inc + "\"");
        }
      }
      pos = q2 + 1;
    }
  }

  // --- OVC-L002 / OVC-L003: the degrade contract in exec + sort -----------
  for (const SourceFile& f : files) {
    const bool degrade_scope =
        StartsWith(f.rel, "src/exec/") || StartsWith(f.rel, "src/sort/");
    if (!degrade_scope) continue;
    for (size_t pos = 0; (pos = f.code.find("OVC_CHECK", pos)) != std::string::npos;
         ++pos) {
      if (TokenAt(f.code, pos, "OVC_CHECK_OK")) {
        report(f, "OVC-L002", LineOf(f.code, pos),
               "OVC_CHECK_OK aborts on a Status; recoverable errors in "
               "src/exec/ + src/sort/ must degrade through the Status / "
               "first-error channel (docs/ROBUSTNESS.md)");
      } else if (TokenAt(f.code, pos, "OVC_CHECK")) {
        const size_t open = f.code.find('(', pos);
        if (open == std::string::npos) continue;
        const std::string arg = Lowered(BalancedArg(f.code, open));
        if (arg.find(".ok()") != std::string::npos ||
            arg.find("status") != std::string::npos) {
          report(f, "OVC-L003", LineOf(f.code, pos),
                 "OVC_CHECK over a Status-valued expression; propagate or "
                 "record the error instead of aborting (degrade contract, "
                 "docs/ROBUSTNESS.md)");
        }
      }
    }
  }

  // --- OVC-L004 / OVC-L005: failpoint registry sync ------------------------
  {
    // Names used in code, with one representative site each.
    std::map<std::string, std::pair<const SourceFile*, int>> used;
    for (const SourceFile& f : files) {
      if (!StartsWith(f.rel, "src/")) continue;
      const std::string needle = "OVC_FAILPOINT(\"";
      for (size_t pos = 0; (pos = f.code.find(needle, pos)) != std::string::npos;
           pos += needle.size()) {
        const size_t start = pos + needle.size();
        const size_t end = f.code.find('"', start);
        if (end == std::string::npos) break;
        const std::string name = f.code.substr(start, end - start);
        if (!used.count(name)) used[name] = {&f, LineOf(f.code, pos)};
      }
    }
    // Names documented in the registry table.
    const fs::path doc_path = fs::path(root) / "docs" / "ROBUSTNESS.md";
    std::map<std::string, int> documented;
    std::ifstream doc(doc_path);
    if (doc) {
      std::string line;
      int lineno = 0;
      while (std::getline(doc, line)) {
        ++lineno;
        // Table rows whose FIRST cell is a backticked dotted name:
        // | `tempfile.open` | ... |. Later cells are ignored so knob
        // tables mentioning `x.y` values elsewhere never false-match.
        size_t p = line.find_first_not_of(" \t");
        if (p == std::string::npos || line[p] != '|') continue;
        const size_t cell_end = line.find('|', p + 1);
        if (cell_end == std::string::npos) continue;
        p = line.find('`', p);
        if (p == std::string::npos || p > cell_end) continue;
        const size_t q = line.find('`', p + 1);
        if (q == std::string::npos) continue;
        const std::string name = line.substr(p + 1, q - p - 1);
        if (IsFailpointName(name) && !documented.count(name)) {
          documented[name] = lineno;
        }
      }
      for (const auto& [name, site] : used) {
        if (!documented.count(name)) {
          if (site.first->suppressed.count("OVC-L004")) continue;
          all.push_back({"OVC-L004", site.first->rel, site.second,
                         "failpoint \"" + name +
                             "\" is not in the docs/ROBUSTNESS.md registry "
                             "table"});
        }
      }
      for (const auto& [name, lineno] : documented) {
        if (!used.count(name)) {
          all.push_back({"OVC-L005", "docs/ROBUSTNESS.md", lineno,
                         "registry entry \"" + name +
                             "\" has no OVC_FAILPOINT site in src/"});
        }
      }
    } else if (!used.empty()) {
      all.push_back({"OVC-L004", "docs/ROBUSTNESS.md", 0,
                     "docs/ROBUSTNESS.md missing but " +
                         std::to_string(used.size()) +
                         " failpoint name(s) are used in src/"});
    }
  }

  // --- OVC-L008 / OVC-L009: metric + span registry sync --------------------
  {
    // Names used in src/: the first string literal inside each metric /
    // span macro argument list. Macro *definitions* carry no literal and
    // are skipped naturally, and so are sites that stringize the rest of
    // their name (`"query." #field`): the names those generate are read
    // from the field list below.
    const char* const kObsMacros[] = {"OVC_METRIC_COUNTER", "OVC_METRIC_GAUGE",
                                      "OVC_METRIC_HISTOGRAM", "OVC_TRACE_SPAN",
                                      "OVC_TRACE_SPAN_VAR"};
    std::map<std::string, std::pair<const SourceFile*, int>> used;
    for (const SourceFile& f : files) {
      if (!StartsWith(f.rel, "src/")) continue;
      for (const char* macro : kObsMacros) {
        const std::string needle(macro);
        for (size_t pos = 0;
             (pos = f.code.find(needle, pos)) != std::string::npos;
             pos += needle.size()) {
          if (!TokenAt(f.code, pos, needle)) continue;
          const size_t open = f.code.find_first_not_of(" \t\n", pos + needle.size());
          if (open == std::string::npos || f.code[open] != '(') continue;
          const std::string arg = BalancedArg(f.code, open);
          const size_t q1 = arg.find('"');
          if (q1 == std::string::npos) continue;  // the #define itself
          const size_t q2 = arg.find('"', q1 + 1);
          if (q2 == std::string::npos) continue;
          const size_t after = arg.find_first_not_of(" \t\n", q2 + 1);
          if (after != std::string::npos && arg[after] == '#') continue;
          const std::string name = arg.substr(q1 + 1, q2 - q1 - 1);
          if (!used.count(name)) used[name] = {&f, LineOf(f.code, pos)};
        }
      }
    }
    // Every X(field, help) entry of the OVC_QUERY_COUNTER_FIELDS list in
    // src/common/counters.h is the metric `query.<field>`.
    for (const SourceFile& f : files) {
      if (f.rel != "src/common/counters.h") continue;
      const size_t def = f.code.find("#define OVC_QUERY_COUNTER_FIELDS(");
      if (def == std::string::npos) continue;
      // The definition runs to the first line not continued by '\'. Read
      // that from the raw text (a '\' inside a comment still continues the
      // line); code and raw share offsets.
      size_t end = def;
      for (;;) {
        end = f.raw.find('\n', end);
        if (end == std::string::npos) {
          end = f.raw.size();
          break;
        }
        if (f.raw[f.raw.find_last_not_of(" \t", end - 1)] != '\\') break;
        ++end;
      }
      const size_t body = f.code.find(')', def) + 1;
      for (size_t pos = body; (pos = f.code.find("X(", pos)) < end; ++pos) {
        if (!TokenAt(f.code, pos, "X")) continue;
        const size_t start = f.code.find_first_not_of(" \t\n\\", pos + 2);
        size_t stop = start;
        while (stop < end && (std::isalnum(static_cast<unsigned char>(
                                  f.code[stop])) ||
                              f.code[stop] == '_')) {
          ++stop;
        }
        const std::string name = "query." + f.code.substr(start, stop - start);
        if (!used.count(name)) used[name] = {&f, LineOf(f.code, pos)};
      }
    }
    // Names documented in the docs/OBSERVABILITY.md registry tables: rows
    // whose FIRST cell is a backticked dotted name and whose SECOND cell
    // names the kind (counter/gauge/histogram/span) -- other tables in the
    // file (EXPLAIN field glossaries etc.) never carry a kind cell.
    const fs::path doc_path = fs::path(root) / "docs" / "OBSERVABILITY.md";
    std::map<std::string, int> documented;
    std::ifstream doc(doc_path);
    if (doc) {
      std::string line;
      int lineno = 0;
      while (std::getline(doc, line)) {
        ++lineno;
        size_t p = line.find_first_not_of(" \t");
        if (p == std::string::npos || line[p] != '|') continue;
        const size_t cell_end = line.find('|', p + 1);
        if (cell_end == std::string::npos) continue;
        const size_t cell2_end = line.find('|', cell_end + 1);
        if (cell2_end == std::string::npos) continue;
        p = line.find('`', p);
        if (p == std::string::npos || p > cell_end) continue;
        const size_t q = line.find('`', p + 1);
        if (q == std::string::npos || q > cell_end) continue;
        const std::string name = line.substr(p + 1, q - p - 1);
        const std::string kind =
            Lowered(line.substr(cell_end + 1, cell2_end - cell_end - 1));
        const bool kind_cell = kind.find("counter") != std::string::npos ||
                               kind.find("gauge") != std::string::npos ||
                               kind.find("histogram") != std::string::npos ||
                               kind.find("span") != std::string::npos;
        if (kind_cell && IsFailpointName(name) && !documented.count(name)) {
          documented[name] = lineno;
        }
      }
      for (const auto& [name, site] : used) {
        if (!documented.count(name)) {
          if (site.first->suppressed.count("OVC-L008")) continue;
          all.push_back({"OVC-L008", site.first->rel, site.second,
                         "metric/span \"" + name +
                             "\" is not in the docs/OBSERVABILITY.md "
                             "registry tables"});
        }
      }
      for (const auto& [name, lineno] : documented) {
        if (!used.count(name)) {
          all.push_back({"OVC-L009", "docs/OBSERVABILITY.md", lineno,
                         "registry entry \"" + name +
                             "\" has no OVC_METRIC_* / OVC_TRACE_SPAN site "
                             "in src/"});
        }
      }
    } else if (!used.empty()) {
      all.push_back({"OVC-L008", "docs/OBSERVABILITY.md", 0,
                     "docs/OBSERVABILITY.md missing but " +
                         std::to_string(used.size()) +
                         " metric/span name(s) are used in src/"});
    }
  }

  // --- OVC-L006: include guards -------------------------------------------
  for (const SourceFile& f : files) {
    if (f.rel.size() < 2 || f.rel.substr(f.rel.size() - 2) != ".h") continue;
    const std::string expected = ExpectedGuard(f.rel);
    size_t pos = f.code.find("#ifndef");
    if (pos == std::string::npos) {
      report(f, "OVC-L006", 1, "missing include guard; expected #ifndef " +
                                   expected);
      continue;
    }
    std::istringstream first(f.code.substr(pos));
    std::string directive, macro;
    first >> directive >> macro;
    if (macro != expected) {
      report(f, "OVC-L006", LineOf(f.code, pos),
             "include guard \"" + macro + "\" should be \"" + expected +
                 "\" (OVC_<PATH>_H_, src/ prefix dropped)");
      continue;
    }
    const size_t def = f.code.find("#define", pos);
    std::string def_macro;
    if (def != std::string::npos) {
      std::istringstream ds(f.code.substr(def));
      ds >> directive >> def_macro;
    }
    if (def_macro != expected) {
      report(f, "OVC-L006", LineOf(f.code, pos),
             "include guard #define does not match #ifndef " + expected);
    }
  }

  // --- OVC-L007: bare std locking primitives in src/ ----------------------
  for (const SourceFile& f : files) {
    if (!StartsWith(f.rel, "src/")) continue;
    if (f.rel == "src/common/mutex.h") continue;  // the one annotated wrapper
    for (const char* primitive :
         {"std::mutex", "std::condition_variable", "std::lock_guard",
          "std::unique_lock", "std::scoped_lock", "std::shared_mutex"}) {
      const size_t pos = f.code.find(primitive);
      if (pos != std::string::npos) {
        report(f, "OVC-L007", LineOf(f.code, pos),
               std::string(primitive) +
                   " is invisible to -Wthread-safety; use the annotated "
                   "Mutex/MutexLock/CondVar from common/mutex.h");
      }
    }
  }

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return all;
}

}  // namespace ovc::lint
