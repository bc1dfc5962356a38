#include "exec/exchange.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "exec/hash_join.h"  // HashKeyPrefix

namespace ovc {

/// Operator view of one split partition. SplitExchange names it a friend,
/// so it reaches the exchange's per-partition hooks.
class SplitPartitionStream final : public Operator {
 public:
  SplitPartitionStream(SplitExchange* exchange, uint32_t index,
                       const Schema* schema, bool sorted, bool has_ovc)
      : exchange_(exchange),
        index_(index),
        schema_(schema),
        sorted_(sorted),
        has_ovc_(has_ovc) {}

  void Open() override { exchange_->StreamOpen(index_); }
  uint32_t NextBatch(RowBlock* out) override {
    OVC_DCHECK(out->width() == schema_->total_columns());
    return exchange_->NextRows(index_, out);
  }
  void Close() override { exchange_->StreamClose(index_); }
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return sorted_; }
  bool has_ovc() const override { return has_ovc_; }

 private:
  SplitExchange* exchange_;
  uint32_t index_;
  const Schema* schema_;
  bool sorted_;
  bool has_ovc_;
};

SplitExchange::SplitExchange(Operator* child, uint32_t partitions,
                             Policy policy, QueryCounters* counters,
                             std::vector<uint64_t> range_bounds,
                             uint32_t hash_prefix)
    : child_(child),
      policy_(policy),
      counters_(counters),
      range_bounds_(std::move(range_bounds)),
      hash_prefix_(hash_prefix == 0 ? child->schema().key_arity()
                                    : hash_prefix),
      child_has_ovc_(child->sorted() && child->has_ovc()),
      pump_block_(child->schema().total_columns()) {
  OVC_CHECK(partitions >= 1);
  OVC_CHECK(hash_prefix_ <= child->schema().key_arity());
  if (policy == Policy::kRangeFirstColumn) {
    OVC_CHECK(range_bounds_.size() + 1 == partitions);
    // Range routing reads the first key column of a stream ordered on it.
    OVC_CHECK(child->sorted());
  }
  for (uint32_t p = 0; p < partitions; ++p) {
    auto state =
        std::make_unique<PartitionState>(child->schema().total_columns());
    state->acc.Reset();
    states_.push_back(std::move(state));
    streams_.push_back(std::make_unique<SplitPartitionStream>(
        this, p, &child->schema(), child->sorted(), child_has_ovc_));
  }
  stream_closed_.assign(partitions, false);
}

Operator* SplitExchange::partition(uint32_t i) {
  OVC_CHECK(i < streams_.size());
  return streams_[i].get();
}

void SplitExchange::StreamOpen(uint32_t index) {
  MutexLock lock(mu_);
  if (stream_closed_[index]) {
    // Re-opened before the cycle completed: it no longer counts as closed.
    stream_closed_[index] = false;
    --closed_streams_;
  }
}

void SplitExchange::StreamClose(uint32_t index) {
  MutexLock lock(mu_);
  if (stream_closed_[index]) return;
  stream_closed_[index] = true;
  ++closed_streams_;
  if (closed_streams_ == partitions() && child_open_) {
    // Every partition stream has been closed: balance the lazy Open() with
    // exactly one Close() and reset all routing state so the exchange
    // supports a fresh open/pull/close cycle over a rescannable child.
    child_->Close();
    child_open_ = false;
    child_done_ = false;
    pump_block_.Clear();
    pump_pos_ = 0;
    round_robin_next_ = 0;
    for (auto& state : states_) state->Reset();
    stream_closed_.assign(partitions(), false);
    closed_streams_ = 0;
  }
}

uint32_t SplitExchange::RouteOf(const uint64_t* row) {
  const uint32_t p_count = partitions();
  switch (policy_) {
    case Policy::kHashKey:
      return static_cast<uint32_t>(
          HashKeyPrefix(row, hash_prefix_, counters_) % p_count);
    case Policy::kRoundRobin:
      return static_cast<uint32_t>(round_robin_next_++ % p_count);
    case Policy::kRangeFirstColumn: {
      const uint64_t v = child_->schema().NormalizedAt(row, 0);
      uint32_t p = 0;
      while (p < range_bounds_.size() && v >= range_bounds_[p]) ++p;
      return p;
    }
  }
  return 0;
}

void SplitExchange::PumpUntilLocked(uint32_t want, size_t min_rows) {
  if (!child_open_) {
    child_->Open();
    child_open_ = true;
  }
  auto& want_state = *states_[want];
  while (want_state.buffered < min_rows && !child_done_) {
    if (pump_pos_ >= pump_block_.size()) {
      // Refill the staging block: one virtual call per block of routed
      // rows. The previous block's rows were copied into partition
      // buffers, so invalidating them here is safe.
      if (child_->NextBatch(&pump_block_) == 0) {
        child_done_ = true;
        break;
      }
      pump_pos_ = 0;
    }
    const uint64_t* row = pump_block_.row(pump_pos_);
    const Ovc code = pump_block_.code(pump_pos_);
    ++pump_pos_;
    const uint32_t p = RouteOf(row);
    auto& target = *states_[p];
    if (child_has_ovc_) {
      // Filter theorem per partition: the routed row's output code combines
      // the codes of rows routed elsewhere since this partition's last row;
      // every other partition absorbs this row's code.
      target.Push(row, target.acc.Combine(code));
      target.acc.Reset();
      for (uint32_t q = 0; q < partitions(); ++q) {
        if (q != p) states_[q]->acc.Absorb(code);
      }
    } else {
      // Unsorted child: no codes to maintain, rows route as-is.
      target.Push(row, 0);
    }
  }
}

uint32_t SplitExchange::NextRows(uint32_t index, RowBlock* out) {
  MutexLock lock(mu_);
  out->Clear();
  PumpUntilLocked(index, out->capacity());
  auto& state = *states_[index];
  const uint64_t* row = nullptr;
  Ovc code = 0;
  while (!out->full() && state.Pop(&row, &code)) {
    out->Append(row, code);
  }
  return out->size();
}

bool BoundedBatchQueue::Push(std::unique_ptr<RowBatch> batch) {
  MutexLock lock(mu_);
  // Explicit condition loops (not a wait-predicate lambda) keep the guarded
  // reads in this function's body, where the thread-safety analysis can see
  // the lock is held.
  while (!cancelled_ && items_.size() >= capacity_) not_full_.Wait(mu_);
  if (cancelled_) return false;
  items_.push_back(std::move(batch));
  not_empty_.NotifyOne();
  return true;
}

std::unique_ptr<RowBatch> BoundedBatchQueue::Pop() {
  MutexLock lock(mu_);
  while (!cancelled_ && items_.empty()) not_empty_.Wait(mu_);
  if (items_.empty()) return nullptr;  // cancelled
  std::unique_ptr<RowBatch> batch = std::move(items_.front());
  items_.pop_front();
  not_full_.NotifyOne();
  return batch;
}

void BoundedBatchQueue::Cancel() {
  MutexLock lock(mu_);
  cancelled_ = true;
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
}

/// MergeSource fed by a producer thread's batch queue.
///
/// Row lifetime (see exec/operator.h): popping the next batch frees the
/// previous one, so a row pointer handed out here dies on the very next
/// Next() call that crosses a batch boundary. Consumers that keep a row
/// (the merge's loser tree keeps one candidate per input between pulls;
/// anything downstream of the exchange) must copy before pulling again.
class MergeExchange::QueueMergeSource : public MergeSource {
 public:
  explicit QueueMergeSource(BoundedBatchQueue* queue) : queue_(queue) {}

  bool Next(const uint64_t** row, Ovc* code) override {
    while (true) {
      if (batch_ != nullptr && pos_ < batch_->size()) {
        *row = batch_->row(pos_);
        *code = batch_->code(pos_);
        ++pos_;
        return true;
      }
      if (done_) return false;
      batch_ = queue_->Pop();  // frees the previous batch and its rows
      pos_ = 0;
      if (batch_ == nullptr) {
        done_ = true;
        return false;
      }
    }
  }

 private:
  BoundedBatchQueue* queue_;
  std::unique_ptr<RowBatch> batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

MergeExchange::MergeExchange(std::vector<Operator*> inputs,
                             QueryCounters* counters, Options options)
    : inputs_(std::move(inputs)),
      counters_(counters),
      options_(options),
      codec_(&inputs_[0]->schema()),
      comparator_(&inputs_[0]->schema(), counters) {
  OVC_CHECK(!inputs_.empty());
  for (Operator* in : inputs_) {
    OVC_CHECK(in->sorted() && in->has_ovc());
    OVC_CHECK(in->schema() == inputs_[0]->schema());
  }
}

// Full ResetState, not just StopThreads: destruction after Open() without
// Close() must still balance inline-opened inputs' lifecycles (threaded
// producers close their own input when the queues are cancelled).
MergeExchange::~MergeExchange() { ResetState(); }

void MergeExchange::Open() {
  // Re-entrant: a second Open() -- after Close(), or even without one --
  // must not stack fresh queues/producers/sources onto leftover state.
  ResetState();
  std::vector<MergeSource*> raw_sources;
  if (options_.threaded) {
    for (Operator* in : inputs_) {
      queues_.push_back(
          std::make_unique<BoundedBatchQueue>(options_.queue_batches));
      BoundedBatchQueue* queue = queues_.back().get();
      const uint32_t batch_rows = options_.batch_rows;
      // Capture the consumer thread's trace context here so the producer
      // span parents under whatever span is driving this Open() -- the
      // trace then shows the worker threads nested inside the query even
      // though they never share a stack with it.
      const trace::ThreadContext trace_ctx = trace::CaptureContext();
      producers_.emplace_back([in, queue, batch_rows, trace_ctx] {
        trace::ScopedThreadContext adopt(trace_ctx);
        OVC_TRACE_SPAN("exchange.producer");
        metrics::Gauge& running = OVC_METRIC_GAUGE(
            "exchange.producers_running", "Producer threads currently live");
        running.Add(1);
        metrics::Counter& batches_metric = OVC_METRIC_COUNTER(
            "exchange.producer_batches", "Batches handed across exchanges");
        in->Open();
        const uint32_t width = in->schema().total_columns();
        // Pull whole blocks from the input pipeline (one virtual NextBatch
        // per block) and hand each on as one queue batch.
        RowBlock block(width, batch_rows);
        bool alive = true;
        uint32_t n;
        while (alive && (n = in->NextBatch(&block)) > 0) {
          auto batch = std::make_unique<RowBatch>(width);
          batch->Reserve(n);
          batch->AppendBlock(block);
          alive = queue->Push(std::move(batch));
          batches_metric.Increment();
        }
        if (alive) {
          queue->Push(nullptr);  // end-of-stream sentinel
        }
        in->Close();
        running.Sub(1);
      });
      sources_.push_back(std::make_unique<QueueMergeSource>(queue));
      raw_sources.push_back(sources_.back().get());
    }
  } else {
    for (Operator* in : inputs_) {
      in->Open();
      sources_.push_back(std::make_unique<BlockCursor>(in));
      raw_sources.push_back(sources_.back().get());
    }
    inline_inputs_open_ = true;
  }
  merger_ = std::make_unique<OvcMerger>(&codec_, &comparator_, raw_sources);
}

uint32_t MergeExchange::NextBatch(RowBlock* out) {
  OVC_DCHECK(out->width() == schema().total_columns());
  if (merger_ != nullptr) return merger_->NextBlock(out);
  out->Clear();
  return 0;
}

void MergeExchange::StopThreads() {
  for (auto& queue : queues_) {
    queue->Cancel();
  }
  for (std::thread& t : producers_) {
    if (t.joinable()) t.join();
  }
  producers_.clear();
  queues_.clear();
}

void MergeExchange::ResetState() {
  StopThreads();
  merger_.reset();
  sources_.clear();
  // Threaded producers close their own input at thread exit (normal or
  // cancelled); inline mode opened the inputs on this thread, so balance
  // those opens here -- also on the Open()-without-Close() path, where a
  // leaked open would break the re-open contract.
  if (inline_inputs_open_) {
    for (Operator* in : inputs_) in->Close();
    inline_inputs_open_ = false;
  }
}

void MergeExchange::Close() { ResetState(); }

}  // namespace ovc
