#include "frapp/pipeline/privacy_pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/common/parallel.h"
#include "frapp/data/sharded_boolean_vertical_index.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/pipeline/prefetching_table_source.h"

namespace frapp {
namespace pipeline {

namespace {

/// Raises `peak` to at least `value` (relaxed CAS loop).
void RaiseToAtLeast(std::atomic<size_t>& peak, size_t value) {
  size_t observed = peak.load(std::memory_order_relaxed);
  while (observed < value &&
         !peak.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

/// The overlapped shard stage: perturbs and indexes every shard of `source`
/// with `build(shard, inner_threads, &index)` on up to `num_threads`
/// workers, and returns the indexes in pull order.
///
/// Each worker loops: pull the next non-empty shard under `mu`, tagged with
/// its pull sequence number, then build its index outside the lock while
/// other workers pull and build theirs. A worker holds one shard at a time,
/// so at most `num_threads` shards are in flight, and the source is still
/// pulled by one thread at a time. Indexes are filed by sequence number, so
/// the merge order is the pull order whatever the scheduling. A failure —
/// a pull or a build — closes the pulls; every shard pulled before it still
/// finishes, so the error of the lowest failing sequence number wins for
/// every thread count.
///
/// Two shards are pulled before the workers are dispatched: a source that
/// yields only one gets it built inline with the whole thread budget for
/// the shard's own chunk-parallel perturbation and index build. With
/// several shards the dispatch occupies the pool, so builds get one thread.
template <typename Index, typename BuildFn>
StatusOr<std::vector<Index>> RunShardStage(TableSource& source,
                                           size_t num_threads,
                                           const BuildFn& build,
                                           PipelineStats* stats) {
  struct Pulled {
    PulledShard shard;
    size_t seq;
  };
  std::mutex mu;
  std::deque<Index> indexes;   // one per pulled shard, by sequence number
  std::deque<Pulled> ahead;    // pulled before the dispatch, not yet built
  bool pulls_closed = false;   // source exhausted, or a pull/build failed
  size_t error_seq = SIZE_MAX;
  Status error;

  // Both require `mu` held.
  const auto fail_locked = [&](size_t seq, Status status) {
    if (seq < error_seq) {
      error_seq = seq;
      error = std::move(status);
    }
    pulls_closed = true;
  };
  const auto pull_locked = [&](Pulled* out) -> bool {
    while (!pulls_closed) {
      const uint64_t pull_start = common::NowNanos();
      StatusOr<bool> more = source.NextShard(&out->shard);
      stats->source_wait_nanos += common::NowNanos() - pull_start;
      if (!more.ok()) {
        fail_locked(indexes.size(), more.status());
      } else if (!*more) {
        pulls_closed = true;
      } else if (out->shard.view.size() != 0) {
        out->seq = indexes.size();
        indexes.emplace_back();
        stats->total_rows += out->shard.view.size();
        stats->max_shard_rows =
            std::max(stats->max_shard_rows, out->shard.view.size());
        ++stats->num_shards;
        return true;
      }
    }
    return false;
  };
  const auto worker = [&](size_t inner_threads) {
    while (true) {
      Pulled next;
      Index* slot;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!ahead.empty()) {
          next = std::move(ahead.front());
          ahead.pop_front();
        } else if (!pull_locked(&next)) {
          return;
        }
        // deque::emplace_back never moves existing elements, so the slot
        // stays valid while other workers append theirs.
        slot = &indexes[next.seq];
      }
      Status status = build(next.shard, inner_threads, slot);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        fail_locked(next.seq, std::move(status));
        return;
      }
    }
  };

  const size_t threads = std::max<size_t>(
      1, common::ResolveThreadCount(num_threads));
  {
    std::lock_guard<std::mutex> lock(mu);
    Pulled pulled;
    while (ahead.size() < std::min<size_t>(2, threads) &&
           pull_locked(&pulled)) {
      ahead.push_back(std::move(pulled));
    }
  }
  if (ahead.size() <= 1 && pulls_closed) {
    worker(num_threads);
  } else {
    common::ParallelForChunks(threads, threads,
                              [&](size_t) { worker(/*inner_threads=*/1); });
  }
  if (error_seq != SIZE_MAX) return error;
  return std::vector<Index>(std::make_move_iterator(indexes.begin()),
                            std::make_move_iterator(indexes.end()));
}

}  // namespace

StatusOr<PipelineResult> PrivacyPipeline::Run(
    core::Mechanism& mechanism, const data::CategoricalTable& original) const {
  InMemoryTableSource source(original, options_.num_shards);
  return Run(mechanism, source);
}

StatusOr<PipelineResult> PrivacyPipeline::Run(core::Mechanism& mechanism,
                                              TableSource& source) const {
  // One-way enable, applied before any pool worker spawns for this run; see
  // the PipelineOptions::pin_threads doc for the stickiness caveat.
  if (options_.pin_threads) {
    common::ThreadPool::Shared().SetPinPhysicalCores(true);
  }
  if (options_.prefetch_source) {
    // Wrap the caller's source in the parser-thread decorator for the
    // duration of this run. Order is preserved, so the result is
    // bit-identical to the unprefetched pull — only the parse/compute
    // overlap (and the stats describing it) change.
    PrefetchingTableSource prefetched(source, options_.prefetch_shards,
                                      options_.prefetch_parsers);
    PipelineOptions inner_options = options_;
    inner_options.prefetch_source = false;
    FRAPP_ASSIGN_OR_RETURN(
        PipelineResult result,
        PrivacyPipeline(inner_options).Run(mechanism, prefetched));
    result.stats.producer_parse_nanos =
        prefetched.producer_stats().parse_nanos;
    return result;
  }
  if (!mechanism.SupportsShardStreaming()) {
    return Status::Unimplemented(
        mechanism.name() +
        " does not implement the shard-streaming contract; every pipeline "
        "mechanism must (there is no monolithic fallback)");
  }
  PipelineResult result;
  const bool boolean_shards =
      mechanism.shard_kind() == core::Mechanism::ShardKind::kBoolean;
  const size_t bytes_per_row = boolean_shards
                                   ? sizeof(uint64_t)
                                   : source.schema().num_attributes();

  // Every build is a pure function of its shard's global position (global
  // seeded-chunk RNG streams) and counts merge as integer sums, so the
  // result is bit-identical for any source kind, shard count and thread
  // count. A build drops the source buffer once the shard is perturbed and
  // the perturbed rows once they are indexed.
  std::atomic<size_t> inflight_bytes{0};
  std::atomic<size_t> peak_bytes{0};
  const auto perturbed_alive = [&](size_t bytes) {
    RaiseToAtLeast(peak_bytes,
                   inflight_bytes.fetch_add(bytes, std::memory_order_relaxed) +
                       bytes);
  };
  const auto perturbed_dropped = [&](size_t bytes) {
    inflight_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  };
  std::vector<mining::VerticalIndex> cat_indexes;
  std::vector<data::BooleanVerticalIndex> bool_indexes;
  if (boolean_shards) {
    FRAPP_ASSIGN_OR_RETURN(
        bool_indexes,
        RunShardStage<data::BooleanVerticalIndex>(
            source, options_.num_threads,
            [&](PulledShard& shard, size_t inner_threads,
                data::BooleanVerticalIndex* index) -> Status {
              const size_t bytes = shard.view.size() * bytes_per_row;
              FRAPP_ASSIGN_OR_RETURN(
                  data::BooleanTable perturbed,
                  mechanism.PerturbBooleanShard(
                      shard.view, options_.perturb_seed, inner_threads));
              shard.owned.reset();
              perturbed_alive(bytes);
              *index = data::BooleanVerticalIndex(perturbed);
              perturbed_dropped(bytes);
              return Status::OK();
            },
            &result.stats));
  } else {
    FRAPP_ASSIGN_OR_RETURN(
        cat_indexes,
        RunShardStage<mining::VerticalIndex>(
            source, options_.num_threads,
            [&](PulledShard& shard, size_t inner_threads,
                mining::VerticalIndex* index) -> Status {
              const size_t bytes = shard.view.size() * bytes_per_row;
              FRAPP_ASSIGN_OR_RETURN(
                  data::CategoricalTable perturbed,
                  mechanism.PerturbShard(shard.view, options_.perturb_seed,
                                         inner_threads));
              shard.owned.reset();
              perturbed_alive(bytes);
              *index = mining::VerticalIndex::Build(perturbed, inner_threads);
              perturbed_dropped(bytes);
              return Status::OK();
            },
            &result.stats));
  }

  std::unique_ptr<mining::SupportEstimator> estimator;
  if (boolean_shards) {
    FRAPP_ASSIGN_OR_RETURN(
        estimator, mechanism.MakeShardedBooleanEstimator(
                       data::ShardedBooleanVerticalIndex::FromShards(
                           std::move(bool_indexes)),
                       options_.num_threads));
  } else {
    FRAPP_ASSIGN_OR_RETURN(
        estimator, mechanism.MakeShardedEstimator(
                       mining::ShardedVerticalIndex::FromShards(
                           std::move(cat_indexes)),
                       options_.num_threads));
  }
  FRAPP_ASSIGN_OR_RETURN(
      result.mined, mining::MineFrequentItemsets(source.schema(), *estimator,
                                                 options_.mining));
  result.stats.peak_inflight_perturbed_bytes =
      peak_bytes.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pipeline
}  // namespace frapp
