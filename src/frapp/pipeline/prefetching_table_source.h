// PrefetchingTableSource: hide ingest latency behind compute.
//
// Without this, the pipeline's workers parse too: each takes its turn
// pulling the next shard from the (single-threaded) source, so while one
// parses a CSV shard, which dominates the streaming ingest path, it is not
// perturbing, and a slow parse leaves the others queued behind the pull
// lock. This decorator runs the inner source on one or more PARSER threads
// that stay a bounded number of shards ahead of the consumer through an
// ordered queue: the next shard(s) parse while the workers perturb and
// index theirs.
//
// Parser count:
//  - With 1 parser (or an inner source without SupportsParallelDecode) the
//    parser thread simply calls the inner NextShard — the classic producer
//    thread.
//  - With N > 1 parsers on a SupportsParallelDecode source, the pull is
//    two-phase: each parser serially claims the next RAW shard (cheap IO,
//    serialized on an internal mutex, tagged with a sequence number), then
//    DECODES it concurrently with the other parsers, and the decoded shards
//    re-enter the queue in sequence order through a reorder buffer. N = 0
//    asks for one parser per detected physical core
//    (common::GetCpuInfo().physical_cores).
//
// Contract (both modes):
//  - Order-preserving: shards are delivered in exactly the order the inner
//    source yields them, so the TableSource global-row-order contract (and
//    with it grid bit-identity) holds unchanged. Prefetching can never
//    affect results, only when and where the parse work happens.
//  - Error propagation: an inner-source error (e.g. a line-numbered CSV
//    parse Status) surfaces AT ITS SEQUENCE POSITION: the consumer first
//    drains every shard yielded before the error, then receives that exact
//    Status — sticky on every later call. When several parsers fail, the
//    earliest sequence wins. No hang, no lost shards, no swallowed error.
//  - Shutdown-safe: the destructor stops all parsers even mid-stream
//    (consumer abandoned the pull early) and joins them; at most one
//    in-flight inner pull per parser delays destruction.
//  - The inner source's serial half is touched by ONE thread at a time
//    (TableSource is single-producer by contract); schema and total-row
//    count are captured up front so the consumer never races it.
//
// The wrapper is itself a TableSource, so it composes with any inner source
// (CSV, binary, synthetic, in-memory) and any consumer.

#ifndef FRAPP_PIPELINE_PREFETCHING_TABLE_SOURCE_H_
#define FRAPP_PIPELINE_PREFETCHING_TABLE_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "frapp/pipeline/table_source.h"

namespace frapp {
namespace pipeline {

/// Decorates a TableSource with parser thread(s) and a bounded, ordered
/// shard queue.
class PrefetchingTableSource : public TableSource {
 public:
  /// Parser-side observability, readable once the stream has reported
  /// exhaustion (or an error) through NextShard. (The latency NOT hidden —
  /// consumer time blocked pulling — is the consumer's to measure; the
  /// pipeline reports it as PipelineStats::source_wait_nanos.)
  struct ProducerStats {
    /// Nanoseconds spent inside the inner source's pull/decode, summed over
    /// all parser threads — the parse/generate work that overlapped with
    /// consumer compute (with several parsers this is aggregate thread
    /// time, not wall time).
    uint64_t parse_nanos = 0;

    /// Shards the parsers pulled from the inner source.
    size_t shards_produced = 0;

    /// Parser threads actually started (after resolving num_parsers = 0 and
    /// the inner source's parallel-decode support).
    size_t num_parsers = 0;
  };

  /// Starts the parser thread(s) immediately. `inner` must outlive this
  /// object and must not be touched by anyone else until it is destroyed.
  /// `max_queued_shards` bounds the DECODED shards queued ahead — and with
  /// them the extra source-side buffer memory prefetching costs; it is
  /// floored at the resolved parser count so every parser can make
  /// progress. `num_parsers` is clamped to 1 unless the inner source
  /// supports parallel decode; 0 means one per physical core.
  explicit PrefetchingTableSource(TableSource& inner,
                                  size_t max_queued_shards = 2,
                                  size_t num_parsers = 1);

  /// Stops the parsers (even if the stream was not drained) and joins them.
  ~PrefetchingTableSource() override;

  PrefetchingTableSource(const PrefetchingTableSource&) = delete;
  PrefetchingTableSource& operator=(const PrefetchingTableSource&) = delete;

  const data::CategoricalSchema& schema() const override { return *schema_; }

  /// Pops the next shard in sequence order, blocking until a parser has it
  /// (or the stream ends). Yields the inner source's shards in order, then
  /// its terminal condition: false on clean exhaustion, the earliest
  /// parser error otherwise (sticky).
  StatusOr<bool> NextShard(PulledShard* out) override;

  std::optional<size_t> TotalRows() const override { return total_rows_; }

  /// Valid after NextShard has returned false or an error (production has
  /// ended by then); concurrent with production it would race.
  ProducerStats producer_stats() const;

 private:
  void ParserLoop();

  TableSource* inner_;
  const data::CategoricalSchema* schema_;  // captured pre-thread: race-free
  std::optional<size_t> total_rows_;
  size_t capacity_;
  bool two_phase_;  // N-parser raw/decode split vs. direct NextShard pulls

  /// Serializes the inner source's serial half (claim + raw pull) and the
  /// sequence assignment; never held while decoding.
  std::mutex source_mu_;
  size_t claim_seq_ = 0;     // next sequence number to claim
  bool source_done_ = false; // inner source exhausted or errored

  mutable std::mutex mu_;
  std::condition_variable can_produce_;
  std::condition_variable can_consume_;
  /// Decoded shards awaiting delivery, keyed by sequence — the reorder
  /// buffer that restores claim order under concurrent decodes. With one
  /// parser it degenerates to a FIFO.
  std::map<size_t, PulledShard> ready_;
  size_t deliver_seq_ = 0;          // next sequence the consumer hands out
  std::optional<size_t> end_seq_;   // first sequence NOT in the stream
  Status status_;  // error ending the stream at end_seq_; OK on clean end
  bool stop_ = false;  // destructor asked the parsers to quit
  ProducerStats stats_;
  std::vector<std::thread> parsers_;  // last member: start after the rest
};

}  // namespace pipeline
}  // namespace frapp

#endif  // FRAPP_PIPELINE_PREFETCHING_TABLE_SOURCE_H_
