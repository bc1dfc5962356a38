// ovcbench: the end-to-end benchmark of served queries (README.md here).
//
//   ovcbench --ovcd PATH --work-dir DIR [--workload NAME ...] [--seed N]
//            [--seconds S] [--warmup S] [--trace 0|1] [--trace-dir DIR]
//            [--selftest] [--build-type T] [--git-sha SHA] [--git-dirty D]
//
// For each workload it spawns a fresh ovcd child serving generated tables,
// drives it over loopback from this process in a closed loop (each
// connection waits for a reply before sending the next statement), checks
// every reply against the naive oracle, and prints every metric with its
// unit and sample count. The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics, or with --trace 1 the per-layer ones.
// bench/e2e/run.sh builds it and supplies the build context.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "in_process.h"
#include "ovcd_child.h"
#include "served.h"
#include "spans.h"
#include "workloads.h"

namespace ovcbench {

namespace {

using Clock = SpanLog::Clock;

/// ovcd start-ups per untraced run; setup_s is their median. A start-up
/// takes 8-35 ms, so 21 of them cost under a second and keep one slow
/// process start from moving the median.
constexpr int kSetupRuns = 21;

struct Options {
  std::vector<const Workload*> workloads;
  uint64_t seed = 1;
  double seconds = 20;
  double warmup = 2;
  bool trace = false;
  bool selftest = false;
  std::string ovcd;
  std::string work_dir;
  std::string trace_dir;
  std::string build_type = "unknown";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear interpolation between closest ranks of sorted `v`.
double Percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void PrintLine(const std::string& name, double value, const std::string& unit,
               uint64_t samples) {
  std::printf("  %-34s %14.6f %-12s n=%llu\n", name.c_str(), value,
              unit.c_str(), static_cast<unsigned long long>(samples));
}

std::string ReadLoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

// --------------------------------------------------------------------------
// Closed-loop load against a live server
// --------------------------------------------------------------------------

struct Completion {
  double latency_ms;
  bool ok;
};

struct LoadResult {
  /// Statements completed inside the measured window.
  std::vector<Completion> measured;
  /// From the moment every connection was idle after warm-up to the moment
  /// the last measured statement returned, and the server CPU spent in it.
  double window_s = 0;
  double server_cpu_s = 0;
  /// METRICS snapshots at both ends of the window (traced runs only).
  ServerMetrics before;
  ServerMetrics after;
};

/// Drives `w.connections` closed-loop connections: `warmup_s` unmeasured,
/// then all connections pause together (so the server is idle when the
/// window opens and closes, and its CPU clock splits exactly), then
/// `seconds` measured. With `spans`, every measured statement records a
/// client.query span and METRICS is read at both ends of the window.
LoadResult DriveLoad(const Workload& w, const ExpectedResults& expected,
                     const OvcdChild& ovcd, uint64_t seed, double warmup_s,
                     double seconds, SpanLog* spans) {
  const uint16_t port = ovcd.port();
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool released = false;
  Clock::time_point stop_at;
  std::atomic<int> reported{0};
  std::vector<std::vector<Completion>> per_connection(w.connections);

  const Clock::time_point warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  auto connection = [&](int c) {
    ovc::server::Client client;
    bool alive = client.Connect("127.0.0.1", port).ok();
    QueryStream stream(w, seed, static_cast<uint64_t>(c));
    // One statement; false once the connection is gone for good.
    auto run_one = [&](bool measured) {
      const QueryStream::Query q = stream.Next();
      Reply reply;
      const Clock::time_point start = Clock::now();
      const ovc::Status status = RunQuery(&client, q.sql, &reply);
      const Clock::time_point end = Clock::now();
      const bool ok = status.ok() && reply.ok &&
                      reply.digest.Matches(expected.For(q), w.ordered());
      if (!ok && reported.fetch_add(1) < 5) {
        std::fprintf(stderr, "ovcbench: %s: statement failed (%s%s): %s\n",
                     w.name.c_str(), status.ToString().c_str(),
                     reply.error.empty() ? ", result mismatch" : "",
                     q.sql.c_str());
        if (!reply.error.empty()) {
          std::fprintf(stderr, "  server: %s\n", reply.error.c_str());
        }
      }
      if (measured) {
        per_connection[c].push_back(
            {std::chrono::duration<double, std::milli>(end - start).count(),
             ok});
        if (spans != nullptr) {
          SpanLog::Span span;
          span.name = "client.query";
          span.id = spans->NewId();
          span.query = span.id;
          span.start = start;
          span.end = end;
          span.thread = static_cast<uint32_t>(c + 1);
          spans->Add(std::move(span));
        }
      }
      return status.ok() || client.Connect("127.0.0.1", port).ok();
    };
    while (alive && Clock::now() < warm_end) alive = run_one(false);
    {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
    if (!alive) {
      per_connection[c].push_back({0, false});
      return;
    }
    while (alive && Clock::now() < stop_at) alive = run_one(true);
  };

  ovc::server::Client metrics_client;
  if (spans != nullptr) {
    (void)metrics_client.Connect("127.0.0.1", port);
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) threads.emplace_back(connection, c);

  LoadResult out;
  double cpu_before = 0;
  Clock::time_point window_start;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return arrived == w.connections; });
    if (spans != nullptr) {
      (void)FetchServerMetrics(&metrics_client, &out.before);
    }
    cpu_before = ovcd.CpuSeconds();
    window_start = Clock::now();
    stop_at = window_start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    released = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  out.window_s = Seconds(window_start, Clock::now());
  out.server_cpu_s = ovcd.CpuSeconds() - cpu_before;
  if (spans != nullptr) {
    (void)FetchServerMetrics(&metrics_client, &out.after);
  }
  for (const auto& done : per_connection) {
    out.measured.insert(out.measured.end(), done.begin(), done.end());
  }
  return out;
}

/// Sorted latencies of the ok completions.
std::vector<double> Latencies(const std::vector<Completion>& done) {
  std::vector<double> out;
  for (const Completion& c : done) {
    if (c.ok) out.push_back(c.latency_ms);
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Failures(const std::vector<Completion>& done) {
  uint64_t failed = 0;
  for (const Completion& c : done) failed += c.ok ? 0 : 1;
  return failed;
}

// --------------------------------------------------------------------------
// The exact-count served pass
// --------------------------------------------------------------------------

struct CountPass {
  ovc::QueryCounters counters;
  uint64_t frames = 0;
  uint64_t bytes = 0;
  uint64_t statements = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> checksums;
};

/// Sends connection 0's first w.count_queries statements one by one on a
/// fresh connection and sums what RESULT_DONE and the frames report.
CountPass RunCountPass(const Workload& w, uint64_t seed, uint16_t port,
                       const ExpectedResults& expected) {
  CountPass out;
  ovc::server::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    out.statements = out.failed = 1;
    return out;
  }
  QueryStream stream(w, seed, 0);
  for (int i = 0; i < w.count_queries; ++i) {
    const QueryStream::Query q = stream.Next();
    Reply reply;
    const ovc::Status status = RunQuery(&client, q.sql, &reply);
    ++out.statements;
    if (!status.ok() || !reply.ok ||
        !reply.digest.Matches(expected.For(q), w.ordered())) {
      ++out.failed;
    }
    out.counters.Merge(reply.counters);
    out.frames += reply.frames;
    out.bytes += reply.bytes;
    out.checksums.push_back(reply.digest.checksum(w.ordered()));
  }
  return out;
}

// --------------------------------------------------------------------------
// Runs
// --------------------------------------------------------------------------

bool StartOvcd(const Options& o, const Workload& w, OvcdChild* ovcd,
               uint64_t seed) {
  std::string error;
  if (ovcd->Start(o.ovcd, OvcdArgs(w, seed, o.work_dir + "/ovcd-tmp"),
                  &error)) {
    return true;
  }
  std::fprintf(stderr, "ovcbench: %s: %s\n", w.name.c_str(), error.c_str());
  return false;
}

/// The untraced run: the end-to-end metrics.
bool RunEndToEnd(const Options& o, const Workload& w, Outcome* out) {
  const ExpectedResults expected(w, o.seed);
  OvcdChild ovcd;
  std::vector<double> startups;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (!StartOvcd(o, w, &ovcd, o.seed)) return false;
    startups.push_back(ovcd.startup_seconds());
  }
  const LoadResult load =
      DriveLoad(w, expected, ovcd, o.seed, o.warmup, o.seconds, nullptr);
  if (!ovcd.Stop()) {
    std::fprintf(stderr, "ovcbench: %s: ovcd did not exit cleanly\n",
                 w.name.c_str());
  }

  const std::vector<double> lat = Latencies(load.measured);
  const uint64_t n = load.measured.size();
  out->attempted = n;
  out->failed = Failures(load.measured);
  out->metrics = {
      {"setup_s", Median(startups), "s", startups.size()},
      {"qps", Ratio(static_cast<double>(lat.size()), load.window_s), "1/s", n},
      {"latency_p50_ms", Percentile(lat, 0.50), "ms", lat.size()},
      {"latency_tail_ms", Percentile(lat, w.tail_percentile), "ms",
       lat.size()},
      {"server_cpu_ms_per_query",
       Ratio(load.server_cpu_s * 1000, static_cast<double>(n)), "ms", n},
  };
  PrintLine("failed_ratio",
            Ratio(static_cast<double>(out->failed), static_cast<double>(n)),
            "ratio", n);
  std::printf("  latency_tail_ms is p%g here\n", w.tail_percentile * 100);
  return true;
}

/// Per-operator self-time lines and the physical algorithm each reads.
const std::pair<const char*, const char*> kOperatorTimes[] = {
    {"exec.scan_ms", "scan"},
    {"exec.filter_ms", "filter"},
    {"exec.sort_ms", "sort"},
    {"exec.merge_join_ms", "merge-join"},
    {"exec.in_stream_aggregate_ms", "in-stream-aggregate"},
    {"exec.split_exchange_ms", "split-exchange"},
    {"exec.merge_exchange_ms", "merge-exchange"},
    {"exec.in_sort_distinct_ms", "in-sort-distinct"},
};

/// The traced run: the per-layer metrics and a Chrome trace.
bool RunLayers(const Options& o, const Workload& w, Outcome* out) {
  const ExpectedResults expected(w, o.seed);
  SpanLog spans;
  OvcdChild ovcd;
  if (!StartOvcd(o, w, &ovcd, o.seed)) return false;
  const CountPass counts = RunCountPass(w, o.seed, ovcd.port(), expected);
  const LoadResult load =
      DriveLoad(w, expected, ovcd, o.seed, o.warmup, o.seconds, &spans);
  ovcd.Stop();
  const LayerTimes layers =
      RunInProcess(w, o.seed, expected, o.work_dir + "/inprocess-tmp", &spans);

  const std::string trace_path = o.trace_dir + "/" + w.name + ".trace.json";
  std::error_code ec;
  std::filesystem::create_directories(o.trace_dir, ec);
  if (!spans.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "ovcbench: cannot write %s\n", trace_path.c_str());
    return false;
  }
  std::printf("  trace written to %s\n", trace_path.c_str());

  // Means, not p50s: the server's latency histogram has power-of-two
  // buckets, which place its p50 only within an octave, and the wire stall
  // makes client latencies bimodal, so a p50 can jump between the modes.
  const std::vector<double> lat = Latencies(load.measured);
  const double server_mean_ms =
      Ratio(static_cast<double>(load.after.latency_sum_us -
                                load.before.latency_sum_us) /
                1000,
            static_cast<double>(load.after.latency_count -
                                load.before.latency_count));
  auto delta = [&](const char* name) {
    return static_cast<double>(load.after.counter(name) -
                               load.before.counter(name));
  };
  const double hits = delta("server.plan_cache.hits");
  const double lookups = hits + delta("server.plan_cache.misses");
  const double served = delta("server.queries");
  const double statements = static_cast<double>(counts.statements);
  const double rows = statements * static_cast<double>(w.input_rows());
  const ovc::QueryCounters& c = counts.counters;
  const auto n_counts = counts.statements;
  const uint64_t n_timed = layers.execute_ms.size();
  const double parse_us = Median(layers.parse_us);
  const double bind_us = Median(layers.bind_us);
  const double plan_us = Median(layers.plan_us);
  const double execute_ms = Median(layers.execute_ms);
  auto per_row = [&](uint64_t count) {
    return Ratio(static_cast<double>(count), rows);
  };
  auto per_query = [&](uint64_t count) {
    return Ratio(static_cast<double>(count), statements);
  };

  // Printed but kept out of the result line, because they read exactly 0 on
  // every run of some or all workloads, which a consumer of the result
  // would take for an unmeasured value: an operator missing from a plan has
  // no self time, no plan uses a hash join or hash aggregate (the only
  // operators that fall back), and no workload sends more statements at
  // once than ovcd has admission slots.
  std::printf("  operator self time per statement (profiled pass):\n");
  for (const auto& [metric, alg] : kOperatorTimes) {
    auto it = layers.self_ms.find(alg);
    PrintLine(metric, it == layers.self_ms.end() ? 0.0 : it->second, "ms",
              static_cast<uint64_t>(w.profiled_queries));
  }
  std::printf("  printed only:\n");
  PrintLine("server.admission_waits_per_query",
            Ratio(delta("server.admission_waits"), served), "waits/query",
            static_cast<uint64_t>(served));
  PrintLine("exec.fallbacks_per_query",
            per_query(c.hash_join_fallbacks + c.hash_agg_fallbacks),
            "fallbacks/query", n_counts);

  out->attempted = load.measured.size() + counts.statements + layers.statements;
  out->failed = Failures(load.measured) + counts.failed + layers.mismatches;
  out->metrics = {
      {"server.client_gap_ms", Mean(lat) - server_mean_ms, "ms", lat.size()},
      {"server.frames_per_query",
       Ratio(static_cast<double>(counts.frames), statements), "frames/query",
       n_counts},
      {"server.bytes_sent_per_query",
       Ratio(static_cast<double>(counts.bytes), statements), "bytes/query",
       n_counts},
      {"server.plan_cache_hit_ratio", Ratio(hits, lookups), "ratio",
       static_cast<uint64_t>(lookups)},
      {"sql.tokenize_us", Median(layers.tokenize_us), "us", n_timed},
      {"sql.parse_us", parse_us, "us", n_timed},
      {"sql.bind_us", bind_us, "us", n_timed},
      {"plan.plan_us", plan_us, "us", n_timed},
      {"plan.execute_ms", execute_ms, "ms", n_timed},
      {"core.column_cmp_per_row", per_row(c.column_comparisons), "cmp/row",
       n_counts},
      {"core.code_cmp_per_row", per_row(c.code_comparisons), "cmp/row",
       n_counts},
      {"core.row_cmp_per_row", per_row(c.row_comparisons), "cmp/row",
       n_counts},
      {"exec.hash_per_row", per_row(c.hash_computations), "hashes/row",
       n_counts},
      {"sort.rows_spilled_per_row", per_row(c.rows_spilled), "rows/row",
       n_counts},
      {"sort.bytes_spilled_per_query", per_query(c.bytes_spilled),
       "bytes/query", n_counts},
      {"sort.merge_bypass_per_query", per_query(c.merge_bypass_rows),
       "rows/query", n_counts},
      {"ledger.engine_ms",
       (parse_us + bind_us + plan_us) / 1000 + execute_ms,
       "ms", n_timed},
  };
  return true;
}

// --------------------------------------------------------------------------
// Self-test: exact counts repeat on one seed and move with the seed
// --------------------------------------------------------------------------

struct ExactCounts {
  CountPass served;
  LayerTimes in_process;
};

bool RunExact(const Options& o, const Workload& w, uint64_t seed,
              ExactCounts* out) {
  const ExpectedResults expected(w, seed);
  OvcdChild ovcd;
  if (!StartOvcd(o, w, &ovcd, seed)) return false;
  out->served = RunCountPass(w, seed, ovcd.port(), expected);
  ovcd.Stop();
  out->in_process =
      RunInProcess(w, seed, expected, o.work_dir + "/inprocess-tmp", nullptr);
  return out->served.failed == 0 && out->in_process.mismatches == 0;
}

bool SameCounts(const ExactCounts& a, const ExactCounts& b) {
  return a.served.counters == b.served.counters &&
         a.served.frames == b.served.frames &&
         a.served.bytes == b.served.bytes &&
         a.served.checksums == b.served.checksums &&
         a.in_process.counters == b.in_process.counters &&
         a.in_process.checksums == b.in_process.checksums;
}

bool RunSelftest(const Options& o, const Workload& w) {
  ExactCounts first, second, other_seed;
  const bool ok = RunExact(o, w, o.seed, &first) &&
                  RunExact(o, w, o.seed, &second) &&
                  RunExact(o, w, o.seed + 1, &other_seed);
  const bool repeat = ok && SameCounts(first, second);
  const bool seeded =
      ok && first.served.checksums != other_seed.served.checksums;
  std::printf("selftest %-16s results=%s repeat=%s seed-dependent=%s  (%s)\n",
              w.name.c_str(), ok ? "ok" : "WRONG", repeat ? "yes" : "NO",
              seeded ? "yes" : "NO",
              first.served.counters.ToString().c_str());
  return ok && repeat && seeded;
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

void PrintContext(const Options& o, const std::string& load_before,
                  const std::string& load_after) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const bool loaded =
      std::max(std::atof(load_before.c_str()), std::atof(load_after.c_str())) >
      0.25 * static_cast<double>(nproc);
  std::printf(
      "{\"context\":{\"build_type\":\"%s\",\"git_sha\":\"%s\","
      "\"git_dirty\":\"%s\",\"nproc\":%ld,\"loadavg_before\":\"%s\","
      "\"loadavg_after\":\"%s\",\"dirty\":%s,\"seed\":%llu,"
      "\"seconds\":%g,\"warmup_s\":%g,\"workloads\":{",
      o.build_type.c_str(), o.git_sha.c_str(), o.git_dirty.c_str(), nproc,
      load_before.c_str(), load_after.c_str(), loaded ? "true" : "false",
      static_cast<unsigned long long>(o.seed), o.seconds, o.warmup);
  for (size_t i = 0; i < o.workloads.size(); ++i) {
    const Workload& w = *o.workloads[i];
    std::string flags;
    for (const std::string& arg :
         OvcdArgs(w, o.seed, o.work_dir + "/ovcd-tmp")) {
      if (arg.rfind("--gen=", 0) == 0 || arg.rfind("--temp-dir=", 0) == 0) {
        continue;
      }
      flags += (flags.empty() ? "" : " ") + arg;
    }
    std::printf("%s\"%s\":{\"connections\":%d,\"ovcd_flags\":\"%s\"}",
                i == 0 ? "" : ",", w.name.c_str(), w.connections,
                flags.c_str());
  }
  std::printf("}}}\n");
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ovcbench: %s\n"
               "usage: ovcbench --ovcd PATH --work-dir DIR [--workload NAME "
               "...] [--seed N]\n"
               "                [--seconds S] [--warmup S] [--trace 0|1] "
               "[--trace-dir DIR]\n"
               "                [--selftest] [--build-type T] [--git-sha SHA] "
               "[--git-dirty D]\n"
               "workloads:",
               why);
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--selftest") {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      value = argv[++i];
    }
    if (flag == "--workload") {
      const Workload* w = FindWorkload(value);
      if (w == nullptr) Usage(("unknown workload " + value).c_str());
      o.workloads.push_back(w);
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--warmup") {
      o.warmup = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--selftest") {
      o.selftest = true;
    } else if (flag == "--ovcd") {
      o.ovcd = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--build-type") {
      o.build_type = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else if (flag == "--git-dirty") {
      o.git_dirty = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.ovcd.empty() || o.work_dir.empty()) {
    Usage("--ovcd and --work-dir are required");
  }
  if (!(o.seconds > 0) || o.warmup < 0) Usage("bad --seconds or --warmup");
  if (o.trace_dir.empty()) o.trace_dir = o.work_dir + "/traces";
  if (o.workloads.empty()) {
    for (const Workload& w : AllWorkloads()) o.workloads.push_back(&w);
  }
  return o;
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  const std::string load_before = ReadLoadAvg();
  if (o.selftest) {
    bool all = true;
    for (const Workload* w : o.workloads) all = RunSelftest(o, *w) && all;
    PrintContext(o, load_before, ReadLoadAvg());
    std::printf("selftest %s\n", all ? "PASS" : "FAIL");
    return all ? 0 : 1;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> combined;
  for (const Workload* w : o.workloads) {
    std::printf("== %s (%s run, seed %llu, %g s after %g s warm-up, "
                "%d connection%s)\n",
                w->name.c_str(), o.trace ? "traced" : "untraced",
                static_cast<unsigned long long>(o.seed), o.seconds, o.warmup,
                w->connections, w->connections == 1 ? "" : "s");
    std::fflush(stdout);
    Outcome outcome;
    const bool ran =
        o.trace ? RunLayers(o, *w, &outcome) : RunEndToEnd(o, *w, &outcome);
    if (!ran) return 2;
    for (const Metric& m : outcome.metrics) {
      PrintLine(m.name, m.value, m.unit, m.samples);
      // One workload reports plain names; several prefix theirs.
      combined.push_back(o.workloads.size() == 1
                             ? m
                             : Metric{w->name + "." + m.name, m.value, m.unit,
                                      m.samples});
    }
    attempted += outcome.attempted;
    failed += outcome.failed;
  }
  PrintContext(o, load_before, ReadLoadAvg());
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, attempted, failed, combined);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace ovcbench

int main(int argc, char** argv) { return ovcbench::Main(argc, argv); }
