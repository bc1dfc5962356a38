// The benchmark's own span recorder. Spans are timed from outside the
// layers they cover (around client calls and public-function calls), kept
// in memory, and written once as Chrome trace-event JSON when the run
// ends. It is separate from the engine's OVC_TRACE_SPAN machinery, so no
// benchmark span name enters the engine's span registry.

#ifndef OVCBENCH_SPANS_H_
#define OVCBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ovcbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    uint64_t id = 0;
    /// 0 for a root span.
    uint64_t parent = 0;
    /// The root span's id: every span of one query shares it.
    uint64_t query = 0;
    Clock::time_point start;
    Clock::time_point end;
    /// The recording thread (Chrome trace "tid").
    uint32_t thread = 0;
  };

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// Writes every span as a Chrome trace "X" event (load it in
  /// chrome://tracing or ui.perfetto.dev). False when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace ovcbench

#endif  // OVCBENCH_SPANS_H_
