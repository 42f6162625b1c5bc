// Layer probes of the traced run: decorators around the library's public
// seams, so every layer is timed from outside and nothing in the library
// changes. Each decorator forwards every call unchanged and only adds clock
// reads around it; the traced run checks that its mined output is
// bit-identical to the untraced run's.
//
//   TracedSource     pipeline::TableSource   NextShard wait
//   TracedMechanism  core::Mechanism         PerturbShard busy time; builds
//                                            the sharded estimators exactly as
//                                            the Mechanism defaults do, over
//                                            timed count sources, and times
//                                            EstimateSupports
//   TracedTransport  dist::Transport         Send and Receive time
//
// Also here: ReplayMechanism, which keeps the estimator a pipeline run built
// and memoizes its counts, so the serve workload's reference can re-mine the
// same perturbed table at every supmin of its grid for the price of one run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "frapp/core/mechanism.h"
#include "frapp/dist/transport.h"
#include "frapp/pipeline/table_source.h"

namespace perfbench {

/// Accumulators the decorators write; atomics because perturbation and
/// dist receives run on pool threads.
struct LayerClock {
  std::atomic<uint64_t> source_wait_ns{0};
  /// NowNanos() of the first NextShard call; 0 until then.
  std::atomic<uint64_t> first_pull_at_ns{0};
  std::atomic<uint64_t> perturb_ns{0};
  std::atomic<uint64_t> perturb_calls{0};
  /// NowNanos() when the pipeline asked for the estimator (end of the
  /// shard stage); 0 until then.
  std::atomic<uint64_t> estimator_requested_at_ns{0};
  std::atomic<uint64_t> count_ns{0};
  std::atomic<uint64_t> count_calls{0};
  std::atomic<uint64_t> estimate_ns{0};
  std::atomic<uint64_t> send_ns{0};
  std::atomic<uint64_t> recv_ns{0};
};

/// Times NextShard of any source.
class TracedSource : public frapp::pipeline::TableSource {
 public:
  TracedSource(std::unique_ptr<frapp::pipeline::TableSource> inner,
               LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  const frapp::data::CategoricalSchema& schema() const override {
    return inner_->schema();
  }
  frapp::StatusOr<bool> NextShard(frapp::pipeline::PulledShard* out) override;
  frapp::Status SkipToRow(size_t row) override {
    return inner_->SkipToRow(row);
  }
  std::optional<size_t> TotalRows() const override {
    return inner_->TotalRows();
  }
  bool SupportsParallelDecode() const override {
    return inner_->SupportsParallelDecode();
  }
  frapp::StatusOr<bool> NextRawShard(frapp::data::RawCsvShard* out) override {
    return inner_->NextRawShard(out);
  }
  frapp::StatusOr<frapp::pipeline::PulledShard> DecodeRawShard(
      const frapp::data::RawCsvShard& raw) const override {
    return inner_->DecodeRawShard(raw);
  }

 private:
  std::unique_ptr<frapp::pipeline::TableSource> inner_;
  LayerClock* clock_;
};

/// Forwards every Mechanism call to `inner` (which must outlive it).
class ForwardingMechanism : public frapp::core::Mechanism {
 public:
  explicit ForwardingMechanism(frapp::core::Mechanism& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  frapp::Status Prepare(const frapp::data::CategoricalTable& original,
                        frapp::random::Pcg64& rng) override {
    return inner_.Prepare(original, rng);
  }
  frapp::mining::SupportEstimator& estimator() override {
    return inner_.estimator();
  }
  frapp::StatusOr<double> ConditionNumberForLength(
      size_t length) const override {
    return inner_.ConditionNumberForLength(length);
  }
  double Amplification() const override { return inner_.Amplification(); }
  bool SupportsShardStreaming() const override {
    return inner_.SupportsShardStreaming();
  }
  ShardKind shard_kind() const override { return inner_.shard_kind(); }
  frapp::StatusOr<frapp::data::CategoricalTable> PerturbShard(
      const frapp::data::ShardView& shard, uint64_t seed,
      size_t num_threads) override {
    return inner_.PerturbShard(shard, seed, num_threads);
  }
  frapp::StatusOr<frapp::data::BooleanTable> PerturbBooleanShard(
      const frapp::data::ShardView& shard, uint64_t seed,
      size_t num_threads) override {
    return inner_.PerturbBooleanShard(shard, seed, num_threads);
  }
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeShardedEstimator(frapp::mining::ShardedVerticalIndex index,
                       size_t num_threads) override {
    return inner_.MakeShardedEstimator(std::move(index), num_threads);
  }
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeShardedBooleanEstimator(frapp::data::ShardedBooleanVerticalIndex index,
                              size_t num_threads) override {
    return inner_.MakeShardedBooleanEstimator(std::move(index), num_threads);
  }
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeCountSourceEstimator(
      std::shared_ptr<frapp::mining::SupportCountSource> source) override {
    return inner_.MakeCountSourceEstimator(std::move(source));
  }
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeBooleanCountSourceEstimator(
      std::shared_ptr<frapp::data::PatternCountSource> source) override {
    return inner_.MakeBooleanCountSourceEstimator(std::move(source));
  }

 protected:
  frapp::core::Mechanism& inner_;
};

/// Times perturbation, counting, and reconstruction of a pipeline run.
/// MakeSharded*Estimator do what the core::Mechanism defaults do (wrap the
/// index in the Local* count source and delegate to
/// Make*CountSourceEstimator) with a timed count source in between; no
/// in-tree mechanism overrides those defaults.
class TracedMechanism : public ForwardingMechanism {
 public:
  TracedMechanism(frapp::core::Mechanism& inner, LayerClock* clock)
      : ForwardingMechanism(inner), clock_(clock) {}

  frapp::StatusOr<frapp::data::CategoricalTable> PerturbShard(
      const frapp::data::ShardView& shard, uint64_t seed,
      size_t num_threads) override;
  frapp::StatusOr<frapp::data::BooleanTable> PerturbBooleanShard(
      const frapp::data::ShardView& shard, uint64_t seed,
      size_t num_threads) override;
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeShardedEstimator(frapp::mining::ShardedVerticalIndex index,
                       size_t num_threads) override;
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeShardedBooleanEstimator(frapp::data::ShardedBooleanVerticalIndex index,
                              size_t num_threads) override;

 private:
  LayerClock* clock_;
};

/// Keeps the estimator of the last pipeline run alive (the pipeline gets a
/// forwarding handle) and memoizes every count it serves, so later
/// mining::MineFrequentItemsets calls at a higher supmin — whose candidates
/// are a subset of the first run's — reuse the run's counts.
class ReplayMechanism : public ForwardingMechanism {
 public:
  explicit ReplayMechanism(frapp::core::Mechanism& inner)
      : ForwardingMechanism(inner) {}

  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeShardedEstimator(frapp::mining::ShardedVerticalIndex index,
                       size_t num_threads) override;
  frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
  MakeShardedBooleanEstimator(frapp::data::ShardedBooleanVerticalIndex index,
                              size_t num_threads) override;

  /// The retained estimator; null before the first run.
  frapp::mining::SupportEstimator* estimator_of_last_run() const {
    return retained_.get();
  }

 private:
  std::shared_ptr<frapp::mining::SupportEstimator> retained_;
};

/// Times Send and Receive of a coordinator-side connection.
class TracedTransport : public frapp::dist::Transport {
 public:
  TracedTransport(std::unique_ptr<frapp::dist::Transport> inner,
                  LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  frapp::Status Send(const frapp::dist::Message& message) override;
  frapp::StatusOr<frapp::dist::Message> Receive() override;
  void SetReceiveTimeoutMillis(uint64_t ms) override {
    inner_->SetReceiveTimeoutMillis(ms);
  }
  void SetSendTimeoutMillis(uint64_t ms) override {
    inner_->SetSendTimeoutMillis(ms);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<frapp::dist::Transport> inner_;
  LayerClock* clock_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
