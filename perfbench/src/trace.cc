#include "trace.h"

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "frapp/common/clock.h"

namespace perfbench {

namespace {

using frapp::common::NowNanos;

void AddSince(std::atomic<uint64_t>& sum, uint64_t start) {
  sum.fetch_add(NowNanos() - start, std::memory_order_relaxed);
}

class TimedSupportCountSource : public frapp::mining::SupportCountSource {
 public:
  TimedSupportCountSource(
      std::shared_ptr<frapp::mining::SupportCountSource> inner,
      LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  size_t num_rows() const override { return inner_->num_rows(); }
  frapp::StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override {
    const uint64_t start = NowNanos();
    auto counts = inner_->CountSupports(itemsets);
    AddSince(clock_->count_ns, start);
    clock_->count_calls.fetch_add(1, std::memory_order_relaxed);
    return counts;
  }

 private:
  std::shared_ptr<frapp::mining::SupportCountSource> inner_;
  LayerClock* clock_;
};

class TimedPatternCountSource : public frapp::data::PatternCountSource {
 public:
  TimedPatternCountSource(std::shared_ptr<frapp::data::PatternCountSource> inner,
                          LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  size_t num_rows() const override { return inner_->num_rows(); }
  size_t num_bits() const override { return inner_->num_bits(); }
  frapp::StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) override {
    const uint64_t start = NowNanos();
    auto counts = inner_->PatternCounts(positions);
    AddSince(clock_->count_ns, start);
    clock_->count_calls.fetch_add(1, std::memory_order_relaxed);
    return counts;
  }
  frapp::StatusOr<std::vector<std::vector<int64_t>>> PatternCountsBatch(
      const std::vector<std::vector<size_t>>& candidates) override {
    const uint64_t start = NowNanos();
    auto counts = inner_->PatternCountsBatch(candidates);
    AddSince(clock_->count_ns, start);
    clock_->count_calls.fetch_add(1, std::memory_order_relaxed);
    return counts;
  }

 private:
  std::shared_ptr<frapp::data::PatternCountSource> inner_;
  LayerClock* clock_;
};

class TimedEstimator : public frapp::mining::SupportEstimator {
 public:
  TimedEstimator(std::unique_ptr<frapp::mining::SupportEstimator> inner,
                 LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  frapp::StatusOr<double> EstimateSupport(
      const frapp::mining::Itemset& itemset) override {
    const uint64_t start = NowNanos();
    auto support = inner_->EstimateSupport(itemset);
    AddSince(clock_->estimate_ns, start);
    return support;
  }
  frapp::StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override {
    const uint64_t start = NowNanos();
    auto supports = inner_->EstimateSupports(itemsets);
    AddSince(clock_->estimate_ns, start);
    return supports;
  }

 private:
  std::unique_ptr<frapp::mining::SupportEstimator> inner_;
  LayerClock* clock_;
};

class MemoSupportCountSource : public frapp::mining::SupportCountSource {
 public:
  explicit MemoSupportCountSource(
      std::shared_ptr<frapp::mining::SupportCountSource> inner)
      : inner_(std::move(inner)) {}

  size_t num_rows() const override { return inner_->num_rows(); }
  frapp::StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override {
    std::vector<frapp::mining::Itemset> missing;
    for (const auto& itemset : itemsets) {
      if (!memo_.contains(itemset)) missing.push_back(itemset);
    }
    if (!missing.empty()) {
      FRAPP_ASSIGN_OR_RETURN(const std::vector<uint64_t> counts,
                             inner_->CountSupports(missing));
      for (size_t i = 0; i < missing.size(); ++i) {
        memo_[missing[i]] = counts[i];
      }
    }
    std::vector<uint64_t> out;
    out.reserve(itemsets.size());
    for (const auto& itemset : itemsets) out.push_back(memo_.at(itemset));
    return out;
  }

 private:
  std::shared_ptr<frapp::mining::SupportCountSource> inner_;
  std::unordered_map<frapp::mining::Itemset, uint64_t,
                     frapp::mining::Itemset::Hash>
      memo_;
};

class MemoPatternCountSource : public frapp::data::PatternCountSource {
 public:
  explicit MemoPatternCountSource(
      std::shared_ptr<frapp::data::PatternCountSource> inner)
      : inner_(std::move(inner)) {}

  size_t num_rows() const override { return inner_->num_rows(); }
  size_t num_bits() const override { return inner_->num_bits(); }
  frapp::StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) override {
    FRAPP_ASSIGN_OR_RETURN(auto batch, PatternCountsBatch({positions}));
    return std::move(batch[0]);
  }
  frapp::StatusOr<std::vector<std::vector<int64_t>>> PatternCountsBatch(
      const std::vector<std::vector<size_t>>& candidates) override {
    std::vector<std::vector<size_t>> missing;
    for (const auto& positions : candidates) {
      if (!memo_.contains(positions)) missing.push_back(positions);
    }
    if (!missing.empty()) {
      FRAPP_ASSIGN_OR_RETURN(auto counts, inner_->PatternCountsBatch(missing));
      for (size_t i = 0; i < missing.size(); ++i) {
        memo_[missing[i]] = std::move(counts[i]);
      }
    }
    std::vector<std::vector<int64_t>> out;
    out.reserve(candidates.size());
    for (const auto& positions : candidates) out.push_back(memo_.at(positions));
    return out;
  }

 private:
  std::shared_ptr<frapp::data::PatternCountSource> inner_;
  std::map<std::vector<size_t>, std::vector<int64_t>> memo_;
};

class SharedEstimator : public frapp::mining::SupportEstimator {
 public:
  explicit SharedEstimator(std::shared_ptr<frapp::mining::SupportEstimator> inner)
      : inner_(std::move(inner)) {}

  frapp::StatusOr<double> EstimateSupport(
      const frapp::mining::Itemset& itemset) override {
    return inner_->EstimateSupport(itemset);
  }
  frapp::StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override {
    return inner_->EstimateSupports(itemsets);
  }

 private:
  std::shared_ptr<frapp::mining::SupportEstimator> inner_;
};

}  // namespace

frapp::StatusOr<bool> TracedSource::NextShard(
    frapp::pipeline::PulledShard* out) {
  const uint64_t start = NowNanos();
  uint64_t unset = 0;
  clock_->first_pull_at_ns.compare_exchange_strong(unset, start);
  auto more = inner_->NextShard(out);
  AddSince(clock_->source_wait_ns, start);
  return more;
}

frapp::StatusOr<frapp::data::CategoricalTable> TracedMechanism::PerturbShard(
    const frapp::data::ShardView& shard, uint64_t seed, size_t num_threads) {
  const uint64_t start = NowNanos();
  auto perturbed = inner_.PerturbShard(shard, seed, num_threads);
  AddSince(clock_->perturb_ns, start);
  clock_->perturb_calls.fetch_add(1, std::memory_order_relaxed);
  return perturbed;
}

frapp::StatusOr<frapp::data::BooleanTable> TracedMechanism::PerturbBooleanShard(
    const frapp::data::ShardView& shard, uint64_t seed, size_t num_threads) {
  const uint64_t start = NowNanos();
  auto perturbed = inner_.PerturbBooleanShard(shard, seed, num_threads);
  AddSince(clock_->perturb_ns, start);
  clock_->perturb_calls.fetch_add(1, std::memory_order_relaxed);
  return perturbed;
}

frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
TracedMechanism::MakeShardedEstimator(frapp::mining::ShardedVerticalIndex index,
                                      size_t num_threads) {
  clock_->estimator_requested_at_ns.store(NowNanos());
  FRAPP_ASSIGN_OR_RETURN(
      std::unique_ptr<frapp::mining::SupportEstimator> estimator,
      inner_.MakeCountSourceEstimator(std::make_shared<TimedSupportCountSource>(
          std::make_shared<frapp::mining::LocalSupportCountSource>(
              std::move(index), num_threads),
          clock_)));
  return std::unique_ptr<frapp::mining::SupportEstimator>(
      std::make_unique<TimedEstimator>(std::move(estimator), clock_));
}

frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
TracedMechanism::MakeShardedBooleanEstimator(
    frapp::data::ShardedBooleanVerticalIndex index, size_t num_threads) {
  clock_->estimator_requested_at_ns.store(NowNanos());
  FRAPP_ASSIGN_OR_RETURN(
      std::unique_ptr<frapp::mining::SupportEstimator> estimator,
      inner_.MakeBooleanCountSourceEstimator(
          std::make_shared<TimedPatternCountSource>(
              std::make_shared<frapp::data::LocalPatternCountSource>(
                  std::move(index), num_threads),
              clock_)));
  return std::unique_ptr<frapp::mining::SupportEstimator>(
      std::make_unique<TimedEstimator>(std::move(estimator), clock_));
}

frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
ReplayMechanism::MakeShardedEstimator(frapp::mining::ShardedVerticalIndex index,
                                      size_t num_threads) {
  FRAPP_ASSIGN_OR_RETURN(
      retained_,
      inner_.MakeCountSourceEstimator(std::make_shared<MemoSupportCountSource>(
          std::make_shared<frapp::mining::LocalSupportCountSource>(
              std::move(index), num_threads))));
  return std::unique_ptr<frapp::mining::SupportEstimator>(
      std::make_unique<SharedEstimator>(retained_));
}

frapp::StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>>
ReplayMechanism::MakeShardedBooleanEstimator(
    frapp::data::ShardedBooleanVerticalIndex index, size_t num_threads) {
  FRAPP_ASSIGN_OR_RETURN(
      retained_,
      inner_.MakeBooleanCountSourceEstimator(
          std::make_shared<MemoPatternCountSource>(
              std::make_shared<frapp::data::LocalPatternCountSource>(
                  std::move(index), num_threads))));
  return std::unique_ptr<frapp::mining::SupportEstimator>(
      std::make_unique<SharedEstimator>(retained_));
}

frapp::Status TracedTransport::Send(const frapp::dist::Message& message) {
  const uint64_t start = NowNanos();
  frapp::Status status = inner_->Send(message);
  AddSince(clock_->send_ns, start);
  return status;
}

frapp::StatusOr<frapp::dist::Message> TracedTransport::Receive() {
  const uint64_t start = NowNanos();
  auto message = inner_->Receive();
  AddSince(clock_->recv_ns, start);
  return message;
}

}  // namespace perfbench
