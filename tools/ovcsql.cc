// ovcsql: interactive (and scriptable) SQL shell over the OVC engine.
//
//   ./build/ovcsql [--parallelism=N] [--prefer-sort] [--sort-memory-rows=N]
//                  [--hash-memory-rows=N] [--fallback=sort-merge|partition]
//                  [--profile=FILE] [--trace=FILE] [--metrics[=FILE]]
//
// --trace=FILE records every statement as a Chrome trace_event span tree
// (chrome://tracing / Perfetto) including exchange worker threads;
// --metrics prints the process-wide metrics snapshot (docs/OBSERVABILITY.md
// registry) at exit, --metrics=FILE writes it as JSON, and the .metrics
// meta command shows it mid-session.
//
// Reads statements from stdin, terminated by ';'. Lines starting with '.'
// are meta commands (run `.help`). EXPLAIN prints the physical plan the
// cost-based, order-property-aware planner chose -- elided sorts,
// merge-vs-hash joins, in-stream/in-sort aggregation, per-node
// {rows=.. cost=..} estimates, and (with --parallelism) the
// exchange-parallel shapes. EXPLAIN ANALYZE executes the statement with
// per-operator profiling and renders each line with actual rows, wall
// time, and comparison/spill counters (docs/OBSERVABILITY.md).
// --profile=FILE appends one JSON query profile per executed profiled
// statement to FILE. --hash-memory-rows shrinks the hash budget to watch
// the cost-based planner flip join and aggregation strategies, and
// --sort-memory-rows bounds the sort workspace the same way (spilled
// runs beyond it). --fallback picks what an overflowing hash operator
// does mid-query: sort-merge (default; docs/ROBUSTNESS.md) or classic
// grace partitioning. A CI smoke test pipes tools/smoke.sql through this
// binary and greps the plans, and tools/check_docs.sh replays the EXPLAIN
// snippets embedded in docs/ (see .github/workflows/ci.yml).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "sql/catalog.h"
#include "sql/gen_spec.h"
#include "sql/parser.h"
#include "sql/session.h"

using namespace ovc;

namespace {

void PrintHelp() {
  std::printf(
      "meta commands:\n"
      "  .help                      this text\n"
      "  .tables                    list registered tables\n"
      "  .gen <name>(<col,...>) rows=N [keys=K] [distinct=D] [seed=S]\n"
      "       [base=B] [sorted]     generate a synthetic table; 'sorted'\n"
      "                             registers it pre-sorted with codes\n"
      "  .counters                  session comparison/spill counters\n"
      "  .metrics                   process-wide metrics snapshot\n"
      "  .quit                      exit\n"
      "statements end with ';'. EXPLAIN SELECT ... prints the physical\n"
      "plan; EXPLAIN ANALYZE SELECT ... executes it and annotates every\n"
      "plan line with actual rows, time, and counters. Supported: SELECT\n"
      "[DISTINCT] cols|aggs FROM t [INNER JOIN u ON a=b] [WHERE ...]\n"
      "[GROUP BY ...] [UNION|INTERSECT|EXCEPT [ALL] ...] [ORDER BY ...\n"
      "[DESC]] [LIMIT n]\n");
}

/// .gen orders(orderkey,custkey) rows=1000 keys=1 distinct=100 sorted
/// Spec parsing + registration live in sql/gen_spec.h (shared with ovcd's
/// --gen flag); this wrapper adds the shell's confirmation line.
bool RunGen(sql::Catalog* catalog, const std::string& args) {
  Status status = sql::RegisterGeneratedFromSpec(catalog, args);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return false;
  }
  std::string name = args.substr(0, args.find('('));
  while (!name.empty() && (name.back() == ' ' || name.back() == '\t')) {
    name.pop_back();
  }
  while (!name.empty() && (name.front() == ' ' || name.front() == '\t')) {
    name.erase(name.begin());
  }
  const sql::CatalogTable* table = catalog->Find(name);
  const uint32_t key_arity = table->schema().key_arity();
  std::printf("table %s: %llu rows, %u key + %u payload columns%s\n",
              name.c_str(),
              static_cast<unsigned long long>(table->source.stats.row_count),
              key_arity,
              static_cast<uint32_t>(table->columns.size()) - key_arity,
              table->source.order.sorted_prefix > 0
                  ? ", pre-sorted with codes"
                  : "");
  return true;
}

void PrintTables(const sql::Catalog& catalog) {
  for (const std::string& name : catalog.TableNames()) {
    const sql::CatalogTable* table = catalog.Find(name);
    std::string cols;
    for (size_t i = 0; i < table->columns.size(); ++i) {
      if (i > 0) cols += ", ";
      cols += table->columns[i];
    }
    std::printf("%s(%s) [%s, %s]\n", name.c_str(), cols.c_str(),
                table->schema().ToString().c_str(),
                table->source.order.ToString().c_str());
  }
}

void PrintCounters(const QueryCounters& counters) {
  // Every QueryCounters field, so .counters, the JSON profile, and the
  // query.* metrics report the same set field-for-field.
  QueryCounters::ForEachField(
      [&](const char* name, uint64_t QueryCounters::*m) {
        std::printf("%-20s %llu\n", name,
                    static_cast<unsigned long long>(counters.*m));
      });
}

bool RunStatement(sql::SqlSession* session, sql::Catalog* catalog,
                  const std::string& text, std::FILE* profile_out) {
  sql::SqlResult<sql::QueryResult> result = session->Run(text);
  if (!result.ok()) {
    std::printf("%s\n", result.error().Render(text).c_str());
    return false;
  }
  const sql::QueryResult& q = result.value();
  if (!q.profile_json.empty()) {
    if (profile_out != nullptr) {
      std::fprintf(profile_out, "%s\n", q.profile_json.c_str());
      std::fflush(profile_out);
    }
    // Push the run's estimate-vs-actual scan cardinalities into the
    // catalog's TableStats so later sessions can consult them.
    session->ApplyFeedbackTo(catalog);
  }
  if (q.is_explain) {
    std::printf("%s", q.explain_text.c_str());
    return true;
  }
  for (size_t i = 0; i < q.columns.size(); ++i) {
    std::printf(i == 0 ? "%s" : "\t%s", q.columns[i].c_str());
  }
  std::printf("\n");
  const RowBuffer& rows = q.result.rows;
  for (size_t r = 0; r < rows.size(); ++r) {
    const uint64_t* row = rows.row(r);
    for (uint32_t c = 0; c < rows.width(); ++c) {
      std::printf(c == 0 ? "%llu" : "\t%llu",
                  static_cast<unsigned long long>(row[c]));
    }
    std::printf("\n");
  }
  std::printf("(%llu rows)\n",
              static_cast<unsigned long long>(q.result.row_count()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sql::SqlSession::Options options;
  std::string profile_path;
  std::string trace_path;
  std::string metrics_path;
  bool metrics_text = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--parallelism=", 14) == 0) {
      options.planner.parallelism =
          static_cast<uint32_t>(std::strtoul(arg + 14, nullptr, 10));
    } else if (std::strcmp(arg, "--prefer-sort") == 0) {
      options.planner.prefer_sort_based = true;
    } else if (std::strncmp(arg, "--sort-memory-rows=", 19) == 0) {
      options.planner.sort_config.memory_rows =
          std::strtoull(arg + 19, nullptr, 10);
    } else if (std::strncmp(arg, "--hash-memory-rows=", 19) == 0) {
      options.planner.hash_memory_rows =
          std::strtoull(arg + 19, nullptr, 10);
    } else if (std::strcmp(arg, "--fallback=sort-merge") == 0) {
      options.planner.fallback = ovc::FallbackPolicy::kSortMerge;
    } else if (std::strcmp(arg, "--fallback=partition") == 0) {
      options.planner.fallback = ovc::FallbackPolicy::kPartition;
    } else if (std::strncmp(arg, "--profile=", 10) == 0) {
      profile_path = arg + 10;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics_text = true;
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      metrics_path = arg + 10;
    } else {
      std::fprintf(stderr,
                   "usage: ovcsql [--parallelism=N] [--prefer-sort] "
                   "[--sort-memory-rows=N] [--hash-memory-rows=N] "
                   "[--fallback=sort-merge|partition] "
                   "[--profile=FILE] [--trace=FILE] "
                   "[--metrics[=FILE]]\n");
      return 2;
    }
  }
  // Tracing covers the whole session: every statement becomes one
  // sql.statement span tree in the exported Chrome trace.
  if (!trace_path.empty()) trace::Enable();

  std::FILE* profile_out = nullptr;
  if (!profile_path.empty()) {
    profile_out = std::fopen(profile_path.c_str(), "w");
    if (profile_out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   profile_path.c_str());
      return 2;
    }
  }

  sql::Catalog catalog;
  sql::SqlSession session(&catalog, options);
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::printf("ovcsql -- offset-value coding SQL shell (.help for help)\n");
  }

  // In script mode (stdin not a tty) any failed command makes the exit
  // code non-zero, so CI pipelines catch broken statements, not just
  // missing grep patterns.
  bool failed = false;
  std::string pending;
  std::string line;
  while (true) {
    if (interactive) {
      std::printf(pending.empty() ? "ovcsql> " : "   ...> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;

    // Strip -- comments here (not just in the lexer) so that semicolons
    // inside comments don't split statements and comment-only lines don't
    // start one.
    const size_t comment = line.find("--");
    if (comment != std::string::npos) line.erase(comment);

    bool pending_blank = true;
    for (char c : pending) {
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        pending_blank = false;
        break;
      }
    }

    // Meta commands act on a whole line, outside any pending statement.
    if (pending_blank && !line.empty() && line[0] == '.') {
      pending.clear();
      std::stringstream ss(line);
      std::string cmd;
      ss >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        PrintHelp();
      } else if (cmd == ".tables") {
        PrintTables(catalog);
      } else if (cmd == ".counters") {
        PrintCounters(*session.counters());
      } else if (cmd == ".metrics") {
        std::printf("%s", metrics::MetricRegistry::Instance()
                              .TextSnapshot()
                              .c_str());
      } else if (cmd == ".gen") {
        std::string rest;
        std::getline(ss, rest);
        if (!RunGen(&catalog, rest)) failed = true;
      } else {
        std::printf("unknown command %s (try .help)\n", cmd.c_str());
        failed = true;
      }
      continue;
    }

    pending += line;
    pending += '\n';
    // Execute every complete (';'-terminated) statement accumulated.
    size_t semi;
    while ((semi = pending.find(';')) != std::string::npos) {
      std::string statement = pending.substr(0, semi);
      pending.erase(0, semi + 1);
      bool blank = true;
      for (char c : statement) {
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r') blank = false;
      }
      if (!blank && !RunStatement(&session, &catalog, statement, profile_out)) {
        failed = true;
      }
    }
  }
  if (profile_out != nullptr) std::fclose(profile_out);
  if (!trace_path.empty()) {
    const std::string json = trace::ExportJson();
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   trace_path.c_str());
      failed = true;
    } else {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  if (!metrics_path.empty()) {
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   metrics_path.c_str());
      failed = true;
    } else {
      std::fprintf(f, "%s\n",
                   metrics::MetricRegistry::Instance().JsonSnapshot().c_str());
      std::fclose(f);
    }
  }
  if (metrics_text) {
    std::printf("%s",
                metrics::MetricRegistry::Instance().TextSnapshot().c_str());
  }
  return !interactive && failed ? 1 : 0;
}
