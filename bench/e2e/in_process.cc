#include "in_process.h"

#include <algorithm>
#include <cstdio>

#include "common/profile.h"
#include "common/temp_file.h"
#include "plan/plan_executor.h"
#include "sql/binder.h"
#include "sql/catalog.h"
#include "sql/gen_spec.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace ovcbench {

namespace {

using Clock = SpanLog::Clock;

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

Digest DigestOf(const ovc::RowBuffer& rows) {
  Digest digest;
  for (size_t i = 0; i < rows.size(); ++i) {
    digest.AddRow(rows.row(i), rows.width());
  }
  return digest;
}

/// Adds each profiled operator's self time to `self_ms` under its
/// algorithm name: its inclusive time minus that of its children, except
/// that an exchange child is never subtracted. An exchange's time includes
/// waiting for other threads (a merge exchange's workers run on producer
/// threads; a split's partitions wait while another worker pumps the
/// shared child), and the profile samples and scales those waits, so it
/// does not nest inside its parent's time.
void AddSelfTimes(const ovc::QueryProfile& profile,
                  std::map<std::string, double>* self_ms) {
  const auto& nodes = profile.nodes();
  auto alg_of = [&](size_t i) {
    return nodes[i].label.substr(0, nodes[i].label.find_first_of("( "));
  };
  for (size_t i = 0; i < nodes.size(); ++i) {
    // A line without actuals is an elided sort: no operator ran there.
    if (!nodes[i].has_actuals) continue;
    const std::string alg = alg_of(i);
    double self = static_cast<double>(profile.ActualNs(static_cast<int>(i)));
    if (alg != "merge-exchange") {
      for (int child : nodes[i].children) {
        const std::string child_alg = alg_of(static_cast<size_t>(child));
        if (child_alg == "merge-exchange" || child_alg == "split-exchange") {
          continue;
        }
        self -= static_cast<double>(profile.ActualNs(child));
      }
    }
    (*self_ms)[alg] += std::max(0.0, self) / 1e6;
  }
}

/// Records one span under `root` when spans are on.
void AddSpan(SpanLog* spans, const char* name, uint64_t root,
             Clock::time_point start, Clock::time_point end) {
  if (spans == nullptr) return;
  SpanLog::Span span;
  span.name = name;
  span.id = spans->NewId();
  span.parent = root;
  span.query = root;
  span.start = start;
  span.end = end;
  span.thread = 100;
  spans->Add(std::move(span));
}

}  // namespace

LayerTimes RunInProcess(const Workload& w, uint64_t seed,
                        const ExpectedResults& expected,
                        const std::string& temp_dir, SpanLog* spans) {
  LayerTimes out;
  ovc::sql::Catalog catalog;
  for (size_t i = 0; i < w.tables.size(); ++i) {
    const ovc::Status status = ovc::sql::RegisterGeneratedFromSpec(
        &catalog, GenSpec(w.tables[i], DeriveSeed(seed, i)));
    if (!status.ok()) {
      std::fprintf(stderr, "in-process catalog: %s\n",
                   status.ToString().c_str());
      out.mismatches = 1;
      return out;
    }
  }
  const ovc::sql::Binder binder(&catalog);
  ovc::TempFileManager temp(temp_dir);

  for (const bool profiled : {false, true}) {
    ovc::QueryCounters counters;
    ovc::plan::PlanExecutor::Options options = SessionOptions(w);
    options.planner.profile = profiled;
    ovc::plan::PlanExecutor executor(&counters, &temp, options);
    QueryStream stream(w, seed, 0);
    const int statements = profiled ? w.profiled_queries : w.timed_queries;
    for (int i = 0; i < statements; ++i) {
      const QueryStream::Query q = stream.Next();
      ++out.statements;
      const Clock::time_point t0 = Clock::now();
      const auto tokens = ovc::sql::Tokenize(q.sql);
      const Clock::time_point t1 = Clock::now();
      auto stmt = ovc::sql::ParseStatement(q.sql);
      const Clock::time_point t2 = Clock::now();
      if (!tokens.ok() || !stmt.ok()) {
        ++out.mismatches;
        continue;
      }
      auto bound = binder.Bind(stmt.value().select);
      const Clock::time_point t3 = Clock::now();
      if (!bound.ok()) {
        ++out.mismatches;
        continue;
      }
      ovc::plan::PhysicalPlan physical =
          executor.Plan(bound.value().plan.get());
      const Clock::time_point t4 = Clock::now();
      const ovc::plan::ExecutionResult result = executor.Run(&physical);
      const Clock::time_point t5 = Clock::now();

      const Digest digest = DigestOf(result.rows);
      if (!result.ok() || !digest.Matches(expected.For(q), w.ordered())) {
        ++out.mismatches;
      }
      if (profiled) {
        AddSelfTimes(*physical.profile(), &out.self_ms);
        continue;
      }
      out.checksums.push_back(digest.checksum(w.ordered()));
      out.tokenize_us.push_back(Micros(t0, t1));
      out.parse_us.push_back(Micros(t1, t2));
      out.bind_us.push_back(Micros(t2, t3));
      out.plan_us.push_back(Micros(t3, t4));
      out.execute_ms.push_back(Micros(t4, t5) / 1000);
      if (spans != nullptr) {
        const uint64_t root = spans->NewId();
        SpanLog::Span query;
        query.name = "inprocess.query";
        query.id = root;
        query.query = root;
        query.start = t0;
        query.end = t5;
        query.thread = 100;
        spans->Add(std::move(query));
        AddSpan(spans, "sql.Tokenize", root, t0, t1);
        AddSpan(spans, "sql.ParseStatement", root, t1, t2);
        AddSpan(spans, "sql.Binder::Bind", root, t2, t3);
        AddSpan(spans, "plan.PlanExecutor::Plan", root, t3, t4);
        AddSpan(spans, "plan.PlanExecutor::Run", root, t4, t5);
      }
    }
    if (!profiled) out.counters = counters;
  }
  for (auto& [alg, ms] : out.self_ms) ms /= std::max(1, w.profiled_queries);
  return out;
}

}  // namespace ovcbench
