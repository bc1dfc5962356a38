// SqlSession: the SQL front end's front door.
//
//   Catalog catalog;                       // register / generate tables
//   SqlSession session(&catalog);
//   auto result = session.Run("SELECT a, COUNT(*) AS n FROM t GROUP BY a");
//
// Prepare parses, binds, and physically plans a statement; Run executes
// it through PlanExecutor (inheriting its OvcStreamChecker validation);
// Explain returns the physical plan rendering -- the text that shows
// elided sorts, merge-vs-hash choices, and exchange-parallel shapes for a
// query. All planner behavior is inherited from PlannerOptions: set
// `parallelism` > 1 and SQL queries run the exchange-parallel shapes with
// no front-end changes.

#ifndef OVC_SQL_SESSION_H_
#define OVC_SQL_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "plan/plan_executor.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/catalog.h"
#include "sql/sql_error.h"

namespace ovc::sql {

/// Adds a statement's counter delta to the process-wide query.<field>
/// metrics, one per QueryCounters field. SqlSession::Run calls it once per
/// executed statement, so ovcsql `.counters`, the JSON profile and
/// `.metrics` agree field-for-field.
void RecordQueryMetrics(const QueryCounters& delta);

/// A prepared statement: the bound logical plan plus the physical plan the
/// planner chose. Re-runnable; must not outlive its session or catalog.
struct PreparedQuery {
  /// True when the statement was EXPLAIN: Run returns the plan text
  /// instead of executing.
  bool is_explain = false;
  /// True when the statement was EXPLAIN ANALYZE: Run executes the query
  /// with per-operator profiling and returns the annotated plan text (plus
  /// the JSON profile) instead of the result rows.
  bool is_analyze = false;
  /// Output column names, in select-list order.
  std::vector<std::string> columns;
  /// The bound logical plan (owns predicates the physical plan shares).
  BoundQuery bound;
  /// The planner's choice of operators.
  std::unique_ptr<plan::PhysicalPlan> physical;

  /// Physical plan rendering (the EXPLAIN text).
  std::string explain_text() const { return physical->ToString(); }
};

/// A materialized query (or EXPLAIN) result.
struct QueryResult {
  std::vector<std::string> columns;
  plan::ExecutionResult result;
  bool is_explain = false;
  /// Set for EXPLAIN statements (result is empty then). For EXPLAIN
  /// ANALYZE this is the executed plan annotated with actuals.
  std::string explain_text;
  /// JSON query profile; set whenever the run was profiled (EXPLAIN
  /// ANALYZE, or a session with Options::planner.profile set).
  std::string profile_json;
  /// What executing this statement added to the session counters -- the
  /// per-query resource slice. The same delta is added to the process-wide
  /// query.* metrics (common/metrics.h), so the two surfaces always agree.
  QueryCounters counters_delta;
};

class SqlSession {
 public:
  using Options = plan::PlanExecutor::Options;

  /// `catalog` (and the storage behind its tables) must outlive the
  /// session and everything it prepares.
  explicit SqlSession(const Catalog* catalog, Options options = Options());

  /// As above, with the session's temp-file scratch space nested inside
  /// `parent_temp` -- the serving layout: the server owns one root scratch
  /// tree, each connection's session gets its own sub-manager, so the
  /// first-error slot (and therefore spill-error reporting) stays
  /// per-session/per-query instead of bleeding through a process-wide
  /// manager. `parent_temp` must outlive the session.
  SqlSession(const Catalog* catalog, Options options,
             TempFileManager* parent_temp);

  /// Parses, binds, and plans one statement.
  SqlResult<std::unique_ptr<PreparedQuery>> Prepare(std::string_view sql);

  /// Plans an already-bound query (e.g. one shared through a server plan
  /// cache) into a fresh PreparedQuery whose operators charge *this*
  /// session's counters and spill into *this* session's temp files --
  /// the step that lets many sessions run one cached bound plan
  /// concurrently, each through its own instantiation. Skips parse and
  /// bind entirely. Planning only reads `bound`, so sessions may
  /// instantiate one BoundQuery at the same time without a lock. `bound`
  /// must outlive the returned query.
  std::unique_ptr<PreparedQuery> Instantiate(const BoundQuery& bound);

  /// Physical plan text for one statement (EXPLAIN prefix optional).
  SqlResult<std::string> Explain(std::string_view sql);

  /// Prepares and executes one statement.
  SqlResult<QueryResult> Run(std::string_view sql);

  /// Executes an already-prepared statement (again).
  QueryResult Run(PreparedQuery* prepared);

  /// Session-wide comparison/spill counters, accumulated across runs.
  QueryCounters* counters() { return &counters_; }
  const Catalog* catalog() const { return catalog_; }
  const Options& options() const { return executor_.options(); }

  /// Latest estimate-versus-actual cardinality observation per scanned
  /// table, accumulated from every profiled run in this session.
  struct TableFeedback {
    double est_rows = 0;
    double actual_rows = 0;
    double q_error = 1;
    uint64_t runs = 0;
  };
  const std::map<std::string, TableFeedback>& table_feedback() const {
    return feedback_;
  }

  /// Writes the session's feedback into `catalog`'s TableStats
  /// (observed_rows / feedback_runs) so later planning sessions can see
  /// runtime cardinalities. The catalog must contain the scanned tables.
  void ApplyFeedbackTo(Catalog* catalog) const;

 private:
  /// Folds one profiled run's per-scan observations into feedback_.
  void RecordFeedback(const plan::PhysicalPlan& physical);

  const Catalog* catalog_;
  QueryCounters counters_;
  TempFileManager temp_;
  plan::PlanExecutor executor_;
  std::map<std::string, TableFeedback> feedback_;
};

}  // namespace ovc::sql

#endif  // OVC_SQL_SESSION_H_
