#include "frapp/random/alias_sampler.h"

#include <gtest/gtest.h>

#include "frapp/core/seeded_chunking.h"

namespace frapp {
namespace random {
namespace {

TEST(AliasSamplerTest, RejectsBadWeights) {
  EXPECT_FALSE(AliasSampler::Create({}).ok());
  EXPECT_FALSE(AliasSampler::Create({0.0, 0.0}).ok());
  EXPECT_FALSE(AliasSampler::Create({1.0, -0.1}).ok());
  EXPECT_FALSE(
      AliasSampler::Create({1.0, std::numeric_limits<double>::infinity()}).ok());
}

TEST(AliasSamplerTest, NormalizesProbabilities) {
  StatusOr<AliasSampler> s = AliasSampler::Create({2.0, 6.0});
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->Probability(0), 0.25, 1e-12);
  EXPECT_NEAR(s->Probability(1), 0.75, 1e-12);
}

TEST(AliasSamplerTest, SingleOutcome) {
  StatusOr<AliasSampler> s = AliasSampler::Create({3.0});
  ASSERT_TRUE(s.ok());
  Pcg64 rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s->Sample(rng), 0u);
}

TEST(AliasSamplerTest, ZeroWeightOutcomeNeverSampled) {
  StatusOr<AliasSampler> s = AliasSampler::Create({1.0, 0.0, 1.0});
  ASSERT_TRUE(s.ok());
  Pcg64 rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(s->Sample(rng), 1u);
}

// Known answers: the first draws on a fixed weight vector (with a zero-weight
// outcome) from a fixed (seed, stream) pair and from a ChunkRng stream,
// captured from the reference implementation. Pins the sampler's use of the
// generator (one bounded bucket draw, then one acceptance double), so a
// change in either the alias table or the draw order fails here.
TEST(AliasSamplerTest, SampleMatchesPinnedStream) {
  StatusOr<AliasSampler> s =
      AliasSampler::Create({1.0, 2.0, 3.0, 4.0, 0.0, 10.0});
  ASSERT_TRUE(s.ok());
  Pcg64 rng(2024, 9);
  const size_t want[] = {3, 5, 2, 1, 2, 5, 5, 2, 1, 5, 2, 1, 5, 0, 5, 1};
  for (size_t w : want) EXPECT_EQ(s->Sample(rng), w);
  EXPECT_EQ(rng.Next(), 0x1fb2a0c495940a2bull);

  Pcg64 chunk = core::internal::ChunkRng(7, 3);
  const size_t want_chunk[] = {5, 5, 1, 5, 3, 5, 5, 5, 5, 3, 5, 1, 3, 2, 5, 3};
  for (size_t w : want_chunk) EXPECT_EQ(s->Sample(chunk), w);
}

class AliasSamplerDistributionTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasSamplerDistributionTest, EmpiricalMatchesTarget) {
  const std::vector<double>& weights = GetParam();
  StatusOr<AliasSampler> s = AliasSampler::Create(weights);
  ASSERT_TRUE(s.ok());

  Pcg64 rng(42);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[s->Sample(rng)];

  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  double chi2 = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = n * weights[i] / total_weight;
    if (expected == 0.0) {
      EXPECT_EQ(counts[i], 0);
      continue;
    }
    const double d = counts[i] - expected;
    chi2 += d * d / expected;
  }
  // Loose chi-square bound (dof <= 9): fails only on real bugs.
  EXPECT_LT(chi2, 40.0) << "weights size " << weights.size();
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, AliasSamplerDistributionTest,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{0.9, 0.1},
                      std::vector<double>{0.854, 0.032, 0.010, 0.008, 0.096},
                      std::vector<double>{5.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                      std::vector<double>{0.001, 0.999}));

}  // namespace
}  // namespace random
}  // namespace frapp
