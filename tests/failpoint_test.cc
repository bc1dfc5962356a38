// Deterministic fault injection: the failpoint facility itself, bounded
// retry of transient temp-file write failures, clean SqlError reporting
// when retries exhaust, and forced mid-query hash->sort fallbacks.
//
// Failpoints compile to a literal `false` in optimized builds unless
// OVC_ENABLE_FAILPOINTS is defined (the CMake option CI's TSan job sets);
// every test here skips itself when the facility is compiled out.

#include <string>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/temp_file.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::ClaimTinyInputs;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

#if OVC_FAILPOINTS_ENABLED
#define SKIP_WITHOUT_FAILPOINTS()
#else
#define SKIP_WITHOUT_FAILPOINTS() \
  GTEST_SKIP() << "failpoints compiled out (NDEBUG without OVC_ENABLE_FAILPOINTS)"
#endif

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  void RegisterTables(sql::Catalog* catalog) {
    sql::Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 500;
    spec.seed = 21;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("fact", {"k", "v"}, Schema(1, 1),
                                        10000, spec)
                    .ok());
    spec.seed = 22;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("dim", {"k", "p"}, Schema(1, 1), 500,
                                        spec)
                    .ok());
  }

  static sql::SqlSession::Options SpillingOptions() {
    sql::SqlSession::Options options;
    options.validate = true;
    options.abort_on_violation = false;
    // A tiny sort workspace so every ORDER BY spills run files.
    options.planner.sort_config.memory_rows = 256;
    return options;
  }
};

TEST_F(FailpointTest, ArmTriggerCountsAndDisarm) {
  SKIP_WITHOUT_FAILPOINTS();
  // skip_first=2, fail_times=3: hits 0..1 pass, 2..4 fail, 5.. pass.
  failpoint::Arm("test.point", /*skip_first=*/2, /*fail_times=*/3);
  int failures = 0;
  for (int i = 0; i < 8; ++i) {
    if (OVC_FAILPOINT("test.point")) ++failures;
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(failpoint::Hits("test.point"), 8u);
  failpoint::Disarm("test.point");
  EXPECT_FALSE(OVC_FAILPOINT("test.point"));
  EXPECT_EQ(failpoint::Hits("test.point"), 0u);
}

TEST_F(FailpointTest, TransientWriteFailureIsRetriedAndCounted) {
  SKIP_WITHOUT_FAILPOINTS();
  // One injected write failure, then real writes succeed: the bounded
  // retry loop must absorb it invisibly -- same rows, io_retries counted.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query = "SELECT k, v FROM fact ORDER BY k";

  sql::SqlSession oracle_session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());

  failpoint::Arm("tempfile.write", /*skip_first=*/0, /*fail_times=*/1);
  sql::SqlSession session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  EXPECT_EQ(ToRowVec(got.value().result.rows),
            ToRowVec(oracle.value().result.rows));
  EXPECT_GE(session.counters()->io_retries, 1u);
  EXPECT_GT(failpoint::Hits("tempfile.write"), 0u);
}

TEST_F(FailpointTest, TransientFailureOnCloseFlushIsRetriedAndCounted) {
  SKIP_WITHOUT_FAILPOINTS();
  // tempfile.write fires once per block flush. Runs of 4096 rows span two
  // blocks, and every run's last block is flushed by Close. A pass with the
  // failpoint armed but never failing counts the flushes; failing only
  // the last one lands the failure in the final run's Close, whose retry
  // must still be absorbed and counted.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query = "SELECT k, v FROM fact ORDER BY k";
  sql::SqlSession::Options options = SpillingOptions();
  options.planner.sort_config.memory_rows = 4096;

  failpoint::Arm("tempfile.write", /*skip_first=*/0, /*fail_times=*/0);
  sql::SqlSession oracle_session(&catalog, options);
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());
  const uint64_t flushes = failpoint::Hits("tempfile.write");
  ASSERT_GT(flushes, 0u);
  EXPECT_EQ(oracle_session.counters()->io_retries, 0u);

  failpoint::Arm("tempfile.write", /*skip_first=*/flushes - 1,
                 /*fail_times=*/1);
  sql::SqlSession session(&catalog, options);
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  EXPECT_EQ(ToRowVec(got.value().result.rows),
            ToRowVec(oracle.value().result.rows));
  EXPECT_GE(session.counters()->io_retries, 1u);
  // The failed attempt plus its successful retry.
  EXPECT_EQ(failpoint::Hits("tempfile.write"), flushes + 1);
}

TEST_F(FailpointTest, ExhaustedWriteRetriesReportCleanSqlError) {
  SKIP_WITHOUT_FAILPOINTS();
  // Every write fails: retries exhaust, the spilling sort degrades, and
  // the session reports a SqlError -- never a truncated row set, never an
  // abort. Disarming afterwards fully recovers the same session.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query = "SELECT k, v FROM fact ORDER BY k";

  failpoint::Arm("tempfile.write");
  sql::SqlSession session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().message.find("execution failed"), std::string::npos)
      << got.error().message;
  EXPECT_NE(got.error().message.find("injected"), std::string::npos)
      << got.error().message;

  failpoint::DisarmAll();
  sql::SqlResult<sql::QueryResult> retry = session.Run(query);
  ASSERT_TRUE(retry.ok()) << retry.error().ToString();
  EXPECT_EQ(retry.value().result.row_count(), 10000u);
}

TEST_F(FailpointTest, ExhaustedOpenRetriesReportCleanSqlError) {
  SKIP_WITHOUT_FAILPOINTS();
  sql::Catalog catalog;
  RegisterTables(&catalog);
  failpoint::Arm("tempfile.open");
  sql::SqlSession session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> got =
      session.Run("SELECT k, v FROM fact ORDER BY k");
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().message.find("execution failed"), std::string::npos)
      << got.error().message;
}

TEST_F(FailpointTest, ForcedJoinOverflowFallsBackDeterministically) {
  SKIP_WITHOUT_FAILPOINTS();
  // The build side fits comfortably; the failpoint forces the overflow
  // decision anyway. The fallback must be invisible in the output and
  // visible in the counters and the EXPLAIN ANALYZE rendering.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  // Claimed-tiny inputs make the planner pick the grace hash join, the
  // operator that evaluates the forced-overflow site.
  ClaimTinyInputs(&catalog, {"fact", "dim"});
  const std::string query =
      "SELECT f.k, f.v, d.p FROM fact f JOIN dim d ON f.k = d.k";
  const sql::SqlSession::Options options = SpillingOptions();

  sql::SqlSession oracle_session(&catalog, options);
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle_session.counters()->hash_join_fallbacks, 0u);

  failpoint::Arm("grace_hash_join.force_overflow");
  sql::SqlSession session(&catalog, options);
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  RowVec want = ToRowVec(oracle.value().result.rows);
  RowVec rows = ToRowVec(got.value().result.rows);
  Canonicalize(&want);
  Canonicalize(&rows);
  EXPECT_EQ(rows, want);
  EXPECT_EQ(session.counters()->hash_join_fallbacks, 1u);

  sql::SqlResult<sql::QueryResult> analyzed =
      session.Run("EXPLAIN ANALYZE " + query);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed.value().explain_text.find("!fallback(hash->sort)"),
            std::string::npos)
      << analyzed.value().explain_text;
  EXPECT_NE(analyzed.value().profile_json.find("\"hash_join_fallbacks\":1"),
            std::string::npos)
      << analyzed.value().profile_json;
}

TEST_F(FailpointTest, ForcedAggregateOverflowFallsBackDeterministically) {
  SKIP_WITHOUT_FAILPOINTS();
  sql::Catalog catalog;
  RegisterTables(&catalog);
  ClaimTinyInputs(&catalog, {"fact"});
  const std::string query =
      "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k";
  const sql::SqlSession::Options options = SpillingOptions();

  sql::SqlSession oracle_session(&catalog, options);
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());

  failpoint::Arm("hash_aggregate.force_overflow");
  sql::SqlSession session(&catalog, options);
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  RowVec want = ToRowVec(oracle.value().result.rows);
  RowVec rows = ToRowVec(got.value().result.rows);
  Canonicalize(&want);
  Canonicalize(&rows);
  EXPECT_EQ(rows, want);
  EXPECT_EQ(session.counters()->hash_agg_fallbacks, 1u);
}

}  // namespace
}  // namespace ovc
