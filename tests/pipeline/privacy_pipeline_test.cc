// Shard-streaming pipeline equivalence: for every mechanism and every
// (shard count, thread count), the pipeline's perturbed database,
// reconstructed supports, and mined itemsets must equal the single-shard,
// single-thread pass BIT FOR BIT — sharding is a pure parallelism/memory
// transform, never an accuracy one. Since PR 3 this holds for ALL five
// mechanisms (DET-GD, RAN-GD, MASK, C&P, IND-GD); the monolithic fallback
// no longer exists. The overlapped shard stage adds its own contract:
// failures resolve to the lowest failing shard at every thread count, a
// failed source is never pulled again, and a one-shard source gets the
// whole thread budget.

#include "frapp/pipeline/privacy_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/census.h"
#include "frapp/data/sharded_table.h"
#include "frapp/eval/experiment.h"
#include "frapp/mining/apriori.h"

namespace frapp {
namespace pipeline {
namespace {

constexpr double kGamma = 19.0;
constexpr uint64_t kSeed = 17;

// Exact (bitwise) equality of two mining results, supports included.
void ExpectSameMiningResult(const mining::AprioriResult& a,
                            const mining::AprioriResult& b) {
  ASSERT_EQ(a.by_length.size(), b.by_length.size());
  EXPECT_EQ(a.candidates_per_pass, b.candidates_per_pass);
  for (size_t k = 0; k < a.by_length.size(); ++k) {
    ASSERT_EQ(a.by_length[k].size(), b.by_length[k].size())
        << "length " << k + 1;
    for (size_t i = 0; i < a.by_length[k].size(); ++i) {
      EXPECT_EQ(a.by_length[k][i].itemset, b.by_length[k][i].itemset);
      // Bit-identical reconstructed supports, not just approximately equal.
      EXPECT_EQ(a.by_length[k][i].support, b.by_length[k][i].support);
    }
  }
}

/// Forwards the shard-streaming calls of a categorical mechanism, records the
/// largest thread count any PerturbShard call received, and fails the
/// shards whose global begin row is in `failing_begins` with a Status
/// naming that row. The first failing shard fails only after a delay, so
/// with several workers a later failing shard usually fails first.
class ProbingMechanism : public core::Mechanism {
 public:
  ProbingMechanism(std::unique_ptr<core::Mechanism> inner,
                   std::vector<size_t> failing_begins = {})
      : inner_(std::move(inner)), failing_begins_(std::move(failing_begins)) {}

  std::string name() const override { return inner_->name(); }
  Status Prepare(const data::CategoricalTable& original,
                 random::Pcg64& rng) override {
    return inner_->Prepare(original, rng);
  }
  mining::SupportEstimator& estimator() override { return inner_->estimator(); }
  StatusOr<double> ConditionNumberForLength(size_t length) const override {
    return inner_->ConditionNumberForLength(length);
  }
  double Amplification() const override { return inner_->Amplification(); }
  bool SupportsShardStreaming() const override { return true; }

  StatusOr<data::CategoricalTable> PerturbShard(const data::ShardView& shard,
                                                uint64_t seed,
                                                size_t num_threads) override {
    size_t seen = max_threads_.load();
    while (seen < num_threads &&
           !max_threads_.compare_exchange_weak(seen, num_threads)) {
    }
    const auto failing = std::find(failing_begins_.begin(),
                                   failing_begins_.end(), shard.global_begin);
    if (failing != failing_begins_.end()) {
      if (failing == failing_begins_.begin()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      return Status::Internal("perturb failed at row " +
                              std::to_string(shard.global_begin));
    }
    return inner_->PerturbShard(shard, seed, num_threads);
  }
  StatusOr<std::unique_ptr<mining::SupportEstimator>> MakeCountSourceEstimator(
      std::shared_ptr<mining::SupportCountSource> source) override {
    return inner_->MakeCountSourceEstimator(std::move(source));
  }

  size_t max_threads() const { return max_threads_.load(); }

 private:
  std::unique_ptr<core::Mechanism> inner_;
  std::vector<size_t> failing_begins_;
  std::atomic<size_t> max_threads_{0};
};

/// Yields `inner`'s shards but fails pull number `fail_at` (0-based), and
/// counts every pull, including any made after the failure.
class FailingSource : public TableSource {
 public:
  FailingSource(TableSource& inner, size_t fail_at)
      : inner_(inner), fail_at_(fail_at) {}

  const data::CategoricalSchema& schema() const override {
    return inner_.schema();
  }
  StatusOr<bool> NextShard(PulledShard* out) override {
    const size_t pull = pulls_++;
    if (pull == fail_at_) return Status::IOError("pull failed");
    return inner_.NextShard(out);
  }

  size_t pulls() const { return pulls_; }

 private:
  TableSource& inner_;
  size_t fail_at_;
  size_t pulls_ = 0;
};

class PrivacyPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new data::CategoricalTable(
        *data::census::MakeDataset(50000, 321));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static PipelineOptions Options(size_t num_shards, size_t num_threads) {
    PipelineOptions options;
    options.num_shards = num_shards;
    options.num_threads = num_threads;
    options.perturb_seed = kSeed;
    options.mining.min_support = 0.02;
    return options;
  }

  using MechanismFactory = std::unique_ptr<core::Mechanism> (*)();

  // Runs `make()`'s mechanism over the shard x thread grid and expects every
  // grid point to mine bit-identically to the (1 shard, 1 thread) reference.
  static void ExpectGridBitIdentical(MechanismFactory make) {
    auto baseline_mechanism = make();
    const StatusOr<PipelineResult> reference =
        PrivacyPipeline(Options(1, 1)).Run(*baseline_mechanism, *table_);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_GT(reference->mined.TotalFrequent(), 0u);
    for (size_t num_shards : {3ul, 7ul}) {
      for (size_t num_threads : {1ul, 4ul}) {
        SCOPED_TRACE(testing::Message() << "shards=" << num_shards
                                        << " threads=" << num_threads);
        auto mechanism = make();
        const StatusOr<PipelineResult> run =
            PrivacyPipeline(Options(num_shards, num_threads))
                .Run(*mechanism, *table_);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_EQ(run->stats.num_shards, num_shards);
        EXPECT_EQ(run->stats.total_rows, table_->num_rows());
        ExpectSameMiningResult(reference->mined, run->mined);
      }
    }
  }

  static data::CategoricalTable* table_;
};

data::CategoricalTable* PrivacyPipelineTest::table_ = nullptr;

TEST_F(PrivacyPipelineTest, ShardedPerturbationConcatenatesToMonolithic) {
  const auto perturber =
      *core::GammaDiagonalPerturber::Create(table_->schema(), kGamma);
  const data::CategoricalTable whole =
      *perturber.PerturbSeeded(*table_, kSeed, /*num_threads=*/2);
  for (size_t num_shards : {3ul, 7ul}) {
    SCOPED_TRACE(testing::Message() << "shards=" << num_shards);
    size_t row = 0;
    for (const data::RowRange& range :
         data::ShardedTable::Plan(table_->num_rows(), num_shards)) {
      const data::CategoricalTable shard =
          *perturber.PerturbShardSeeded(*table_, range, kSeed);
      ASSERT_EQ(shard.num_rows(), range.size());
      for (size_t i = 0; i < shard.num_rows(); ++i, ++row) {
        for (size_t j = 0; j < table_->num_attributes(); ++j) {
          ASSERT_EQ(shard.Value(i, j), whole.Value(row, j))
              << "row " << row << " attr " << j;
        }
      }
    }
    EXPECT_EQ(row, table_->num_rows());
  }
}

TEST_F(PrivacyPipelineTest, ShardMisalignmentIsRejected) {
  const auto perturber =
      *core::GammaDiagonalPerturber::Create(table_->schema(), kGamma);
  EXPECT_FALSE(
      perturber.PerturbShardSeeded(*table_, data::RowRange{100, 9000}, kSeed)
          .ok());
  EXPECT_FALSE(
      perturber
          .PerturbShardSeeded(*table_, data::RowRange{0, table_->num_rows() + 1},
                              kSeed)
          .ok());
}

TEST_F(PrivacyPipelineTest, DetGdBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::DetGdMechanism::Create(table_->schema(), kGamma);
  });
}

TEST_F(PrivacyPipelineTest, RanGdBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    const double x = 1.0 / (kGamma +
                            static_cast<double>(table_->schema().DomainSize()) -
                            1.0);
    return *core::RanGdMechanism::Create(table_->schema(), kGamma,
                                         kGamma * x / 2.0);
  });
}

TEST_F(PrivacyPipelineTest, MaskBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::MaskMechanism::Create(table_->schema(), kGamma);
  });
}

TEST_F(PrivacyPipelineTest, CutPasteBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::CutPasteMechanism::Create(table_->schema(), 3, 0.494);
  });
}

TEST_F(PrivacyPipelineTest, IndependentColumnBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::IndependentColumnMechanism::Create(table_->schema(), kGamma);
  });
}

TEST_F(PrivacyPipelineTest, EveryMechanismReportsShardStreaming) {
  const double x =
      1.0 / (kGamma + static_cast<double>(table_->schema().DomainSize()) - 1.0);
  std::vector<std::unique_ptr<core::Mechanism>> mechanisms;
  mechanisms.push_back(*core::DetGdMechanism::Create(table_->schema(), kGamma));
  mechanisms.push_back(
      *core::RanGdMechanism::Create(table_->schema(), kGamma, kGamma * x / 2.0));
  mechanisms.push_back(*core::MaskMechanism::Create(table_->schema(), kGamma));
  mechanisms.push_back(*core::CutPasteMechanism::Create(table_->schema(), 3, 0.494));
  mechanisms.push_back(
      *core::IndependentColumnMechanism::Create(table_->schema(), kGamma));
  for (const auto& mechanism : mechanisms) {
    EXPECT_TRUE(mechanism->SupportsShardStreaming()) << mechanism->name();
  }
}

TEST_F(PrivacyPipelineTest, StreamingBoundsPeakMemoryToOneShardPerWorker) {
  const size_t bytes_per_row = table_->num_attributes();
  auto mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const PipelineResult serial =
      *PrivacyPipeline(Options(7, 1)).Run(*mechanism, *table_);
  EXPECT_EQ(serial.stats.num_shards, 7u);
  // One worker -> exactly one shard of perturbed rows alive at a time.
  EXPECT_EQ(serial.stats.peak_inflight_perturbed_bytes,
            serial.stats.max_shard_rows * bytes_per_row);
  EXPECT_LT(serial.stats.peak_inflight_perturbed_bytes,
            table_->num_rows() * bytes_per_row);

  auto parallel_mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const PipelineResult parallel =
      *PrivacyPipeline(Options(7, 4)).Run(*parallel_mechanism, *table_);
  // Four workers -> at most four shards in flight.
  EXPECT_LE(parallel.stats.peak_inflight_perturbed_bytes,
            4 * parallel.stats.max_shard_rows * bytes_per_row);
}

TEST_F(PrivacyPipelineTest, BooleanStreamingBoundsPeakMemoryToOneShardPerWorker) {
  auto mechanism = *core::MaskMechanism::Create(table_->schema(), kGamma);
  const PipelineResult serial =
      *PrivacyPipeline(Options(7, 1)).Run(*mechanism, *table_);
  EXPECT_EQ(serial.stats.num_shards, 7u);
  // One worker -> one shard of perturbed one-hot rows (8 bytes each) alive.
  EXPECT_EQ(serial.stats.peak_inflight_perturbed_bytes,
            serial.stats.max_shard_rows * sizeof(uint64_t));
  EXPECT_LT(serial.stats.peak_inflight_perturbed_bytes,
            table_->num_rows() * sizeof(uint64_t));
}

TEST_F(PrivacyPipelineTest, RunMechanismMatchesPipelineAtAnyShardCount) {
  mining::AprioriOptions options;
  options.min_support = 0.02;
  const mining::AprioriResult truth = *mining::MineExact(*table_, options);

  eval::ExperimentConfig monolithic;
  monolithic.perturb_seed = kSeed;
  auto m1 = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const eval::MechanismRun reference =
      *eval::RunMechanism(*m1, *table_, truth, monolithic);

  eval::ExperimentConfig sharded = monolithic;
  sharded.num_shards = 7;
  sharded.num_threads = 4;
  auto m2 = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const eval::MechanismRun run = *eval::RunMechanism(*m2, *table_, truth, sharded);

  ExpectSameMiningResult(reference.mined, run.mined);
  ASSERT_EQ(reference.accuracy.size(), run.accuracy.size());
  for (size_t i = 0; i < run.accuracy.size(); ++i) {
    EXPECT_EQ(reference.accuracy[i].correct, run.accuracy[i].correct);
    EXPECT_EQ(reference.accuracy[i].found_frequent,
              run.accuracy[i].found_frequent);
  }
  EXPECT_EQ(run.pipeline_stats.num_shards, 7u);
}

TEST_F(PrivacyPipelineTest, ExactMiningBitIdenticalAcrossCountShards) {
  mining::AprioriOptions monolithic;
  monolithic.min_support = 0.02;
  const mining::AprioriResult reference = *mining::MineExact(*table_, monolithic);
  for (size_t num_shards : {3ul, 7ul}) {
    for (size_t num_threads : {1ul, 4ul}) {
      SCOPED_TRACE(testing::Message() << "shards=" << num_shards
                                      << " threads=" << num_threads);
      mining::AprioriOptions options = monolithic;
      options.count_shards = num_shards;
      options.num_threads = num_threads;
      const StatusOr<mining::AprioriResult> run =
          mining::MineExact(*table_, options);
      ASSERT_TRUE(run.ok());
      ExpectSameMiningResult(reference, *run);
    }
  }
}

TEST_F(PrivacyPipelineTest, SourceErrorIsReturnedAndSourceNeverPulledAgain) {
  for (size_t fail_at : {0ul, 4ul}) {
    for (size_t num_threads : {1ul, 3ul, 8ul}) {
      SCOPED_TRACE(testing::Message() << "fail_at=" << fail_at
                                      << " threads=" << num_threads);
      InMemoryTableSource inner(*table_, 7);
      FailingSource source(inner, fail_at);
      auto mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
      const StatusOr<PipelineResult> run =
          PrivacyPipeline(Options(7, num_threads)).Run(*mechanism, source);
      EXPECT_EQ(run.status().ToString(),
                Status::IOError("pull failed").ToString());
      EXPECT_EQ(source.pulls(), fail_at + 1);
    }
  }
}

TEST_F(PrivacyPipelineTest, LowestFailingShardErrorWinsAtAnyThreadCount) {
  const std::vector<data::RowRange> plan =
      data::ShardedTable::Plan(table_->num_rows(), 7);
  ASSERT_EQ(plan.size(), 7u);
  for (size_t num_threads : {1ul, 3ul, 8ul}) {
    SCOPED_TRACE(testing::Message() << "threads=" << num_threads);
    ProbingMechanism mechanism(
        *core::DetGdMechanism::Create(table_->schema(), kGamma),
        {plan[2].begin, plan[5].begin});
    const StatusOr<PipelineResult> run =
        PrivacyPipeline(Options(7, num_threads)).Run(mechanism, *table_);
    EXPECT_EQ(run.status().ToString(),
              Status::Internal("perturb failed at row " +
                               std::to_string(plan[2].begin))
                  .ToString());
  }
}

TEST_F(PrivacyPipelineTest, OneShardGetsTheWholeThreadBudget) {
  ProbingMechanism serial_mechanism(
      *core::DetGdMechanism::Create(table_->schema(), kGamma));
  InMemoryTableSource serial_source(*table_, 1);
  const StatusOr<PipelineResult> serial =
      PrivacyPipeline(Options(1, 1)).Run(serial_mechanism, serial_source);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ProbingMechanism parallel_mechanism(
      *core::DetGdMechanism::Create(table_->schema(), kGamma));
  InMemoryTableSource parallel_source(*table_, 1);
  const StatusOr<PipelineResult> parallel =
      PrivacyPipeline(Options(1, 4)).Run(parallel_mechanism, parallel_source);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(parallel->stats.num_shards, 1u);
  EXPECT_EQ(parallel_mechanism.max_threads(), 4u);
  ExpectSameMiningResult(serial->mined, parallel->mined);
}

TEST_F(PrivacyPipelineTest, EmptyTableYieldsEmptyResult) {
  const data::CategoricalTable empty =
      *data::CategoricalTable::Create(table_->schema());
  auto mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const StatusOr<PipelineResult> run =
      PrivacyPipeline(Options(4, 2)).Run(*mechanism, empty);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->mined.TotalFrequent(), 0u);
  EXPECT_EQ(run->stats.num_shards, 0u);
}

TEST_F(PrivacyPipelineTest, EmptyTableYieldsEmptyResultForBooleanMechanisms) {
  const data::CategoricalTable empty =
      *data::CategoricalTable::Create(table_->schema());
  auto mechanism = *core::MaskMechanism::Create(table_->schema(), kGamma);
  const StatusOr<PipelineResult> run =
      PrivacyPipeline(Options(4, 2)).Run(*mechanism, empty);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->mined.TotalFrequent(), 0u);
  EXPECT_EQ(run->stats.num_shards, 0u);
}

}  // namespace
}  // namespace pipeline
}  // namespace frapp
