#include "sql/session.h"

#include <utility>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/trace.h"
#include "sql/parser.h"

namespace ovc::sql {

void RecordQueryMetrics(const QueryCounters& delta) {
  // One OVC_METRIC_COUNTER site per field, so each keeps its own cached
  // registry lookup.
#define OVC_RECORD_QUERY_COUNTER(field, help) \
  OVC_METRIC_COUNTER("query." #field, help).Add(delta.field);
  OVC_QUERY_COUNTER_FIELDS(OVC_RECORD_QUERY_COUNTER)
#undef OVC_RECORD_QUERY_COUNTER
}

SqlSession::SqlSession(const Catalog* catalog, Options options)
    : catalog_(catalog), executor_(&counters_, &temp_, options) {}

SqlSession::SqlSession(const Catalog* catalog, Options options,
                       TempFileManager* parent_temp)
    : catalog_(catalog),
      temp_(parent_temp),
      executor_(&counters_, &temp_, options) {}

std::unique_ptr<PreparedQuery> SqlSession::Instantiate(
    const BoundQuery& bound) {
  auto prepared = std::make_unique<PreparedQuery>();
  prepared->columns = bound.columns;
  // prepared->bound stays empty: the shared BoundQuery owns the logical
  // tree and the predicates this plan's operators point into; the caller
  // keeps it alive (the plan cache hands out shared_ptrs to it).
  {
    OVC_TRACE_SPAN("sql.plan");
    prepared->physical = std::make_unique<plan::PhysicalPlan>(
        executor_.Plan(bound.plan.get()));
  }
  return prepared;
}

SqlResult<std::unique_ptr<PreparedQuery>> SqlSession::Prepare(
    std::string_view sql) {
  SqlResult<Statement> stmt = [&] {
    OVC_TRACE_SPAN("sql.parse");
    return ParseStatement(sql);
  }();
  if (!stmt.ok()) return stmt.error();

  Binder binder(catalog_);
  SqlResult<BoundQuery> bound = [&] {
    OVC_TRACE_SPAN("sql.bind");
    return binder.Bind(stmt.value().select);
  }();
  if (!bound.ok()) return bound.error();

  auto prepared = std::make_unique<PreparedQuery>();
  prepared->is_explain = stmt.value().explain && !stmt.value().analyze;
  prepared->is_analyze = stmt.value().explain && stmt.value().analyze;
  prepared->bound = std::move(bound).value();
  prepared->columns = prepared->bound.columns;
  // EXPLAIN ANALYZE plans with profiling regardless of the session default;
  // everything else inherits the session's planner options unchanged.
  plan::PlannerOptions planner_options = executor_.options().planner;
  if (prepared->is_analyze) planner_options.profile = true;
  {
    OVC_TRACE_SPAN("sql.plan");
    prepared->physical = std::make_unique<plan::PhysicalPlan>(
        executor_.Plan(prepared->bound.plan.get(), planner_options));
  }
  return prepared;
}

SqlResult<std::string> SqlSession::Explain(std::string_view sql) {
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.error();
  return prepared.value()->explain_text();
}

SqlResult<QueryResult> SqlSession::Run(std::string_view sql) {
  // The root span for the whole statement lifecycle; every nested span --
  // parse/bind/plan/execute on this thread, exchange producers on worker
  // threads via context handoff -- carries this span's id as its query id.
  OVC_TRACE_SPAN_VAR(statement_span, "sql.statement");
  trace::ScopedQueryId query_scope(statement_span.id());
  const uint64_t start_ticks = ProfileTicks();
  OVC_METRIC_COUNTER("query.statements",
                     "SQL statements accepted by SqlSession::Run")
      .Increment();
  auto record_latency = [start_ticks] {
    OVC_METRIC_HISTOGRAM("query.latency_us",
                         "End-to-end statement latency (prepare + execute)")
        .Record(TicksToNs(ProfileTicks() - start_ticks) / 1000);
  };

  SqlResult<std::unique_ptr<PreparedQuery>> prepared = Prepare(sql);
  if (!prepared.ok()) {
    OVC_METRIC_COUNTER("query.errors",
                       "Statements that failed to prepare or execute")
        .Increment();
    record_latency();
    return prepared.error();
  }
  QueryResult result = Run(prepared.value().get());
  record_latency();
  // Runtime failures (temp-file I/O that exhausted its retries, spill
  // errors) surface as a clean SqlError, never as a truncated row set.
  if (!result.result.status.ok()) {
    OVC_METRIC_COUNTER("query.errors",
                       "Statements that failed to prepare or execute")
        .Increment();
    SqlError error;
    error.message = "execution failed: " + result.result.status.message();
    return error;
  }
  OVC_METRIC_COUNTER("query.rows_out", "Result rows returned to clients")
      .Add(result.result.rows.size());
  return result;
}

QueryResult SqlSession::Run(PreparedQuery* prepared) {
  QueryResult out;
  out.columns = prepared->columns;
  if (prepared->is_explain) {
    out.is_explain = true;
    out.explain_text = prepared->explain_text();
    return out;
  }
  OVC_TRACE_SPAN("sql.execute");
  // Everything a run adds to the session counters -- worker roll-ups and
  // profile folds included -- is this statement's resource slice.
  const QueryCounters before = counters_;
  out.result = executor_.Run(prepared->physical.get());
  out.counters_delta = QueryCounters::Delta(before, counters_);
  RecordQueryMetrics(out.counters_delta);
  if (const QueryProfile* profile = prepared->physical->profile()) {
    out.profile_json = profile->ToJson();
    RecordFeedback(*prepared->physical);
    if (prepared->is_analyze) {
      // EXPLAIN ANALYZE delivers the annotated plan, not the rows.
      out.is_explain = true;
      out.explain_text = prepared->physical->ExplainAnalyze();
      out.result = plan::ExecutionResult();
    }
  }
  return out;
}

void SqlSession::RecordFeedback(const plan::PhysicalPlan& physical) {
  const QueryProfile* profile = physical.profile();
  if (profile == nullptr) return;
  for (const QueryProfile::CardFeedback& fb : profile->ScanFeedback()) {
    TableFeedback& entry = feedback_[fb.table];
    entry.est_rows = fb.est_rows;
    entry.actual_rows = fb.actual_rows;
    entry.q_error = fb.q_error;
    ++entry.runs;
  }
}

void SqlSession::ApplyFeedbackTo(Catalog* catalog) const {
  for (const auto& [table, fb] : feedback_) {
    CatalogTable* entry = catalog->FindMutable(table);
    if (entry == nullptr) continue;
    entry->source.stats.observed_rows = fb.actual_rows;
    entry->source.stats.feedback_runs += fb.runs;
  }
}

}  // namespace ovc::sql
