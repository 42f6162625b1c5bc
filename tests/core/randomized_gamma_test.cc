#include "frapp/core/randomized_gamma.h"

#include <gtest/gtest.h>

#include <vector>

#include "frapp/data/census.h"
#include "seeded_oracle.h"

namespace frapp {
namespace core {
namespace {

data::CategoricalSchema TinySchema() {
  StatusOr<data::CategoricalSchema> s = data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  return *std::move(s);  // domain size 6
}

// For gamma = 19 the tiny 6-value domain cannot absorb alpha up to gamma*x
// (off-diagonals would go negative: gamma > n - 1), so the statistical tests
// use a domain with n = 24 > gamma + 1.
data::CategoricalSchema MediumSchema() {
  StatusOr<data::CategoricalSchema> s = data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}, {"c", {"0", "1", "2", "3"}}});
  return *std::move(s);  // domain size 24
}

TEST(RandomizedGammaTest, CreateValidatesAlpha) {
  data::CategoricalSchema schema = TinySchema();
  const double gamma = 3.0;
  const double x = 1.0 / (gamma + 5.0);
  EXPECT_TRUE(RandomizedGammaPerturber::Create(schema, gamma, 0.0).ok());
  EXPECT_TRUE(RandomizedGammaPerturber::Create(schema, gamma, gamma * x).ok());
  EXPECT_FALSE(RandomizedGammaPerturber::Create(schema, gamma, gamma * x * 1.1).ok());
  EXPECT_FALSE(RandomizedGammaPerturber::Create(schema, gamma, -0.01).ok());
}

TEST(RandomizedGammaTest, ZeroAlphaMatchesDeterministicDistribution) {
  data::CategoricalSchema schema = MediumSchema();
  StatusOr<RandomizedGammaPerturber> p =
      RandomizedGammaPerturber::Create(schema, 19.0, 0.0);
  ASSERT_TRUE(p.ok());

  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(t->AppendRow({1, 2, 3}).ok());
  random::Pcg64 rng(11);
  StatusOr<data::CategoricalTable> out = p->Perturb(*t, rng);
  ASSERT_TRUE(out.ok());

  const data::DomainIndexer indexer = data::DomainIndexer::OverAllAttributes(schema);
  linalg::Vector hist = out->JointHistogram(indexer);
  hist.Scale(1.0 / static_cast<double>(out->num_rows()));
  const GammaDiagonalMatrix& a = p->expected_matrix();
  const uint64_t u = indexer.Encode({1, 2, 3});
  for (uint64_t v = 0; v < indexer.domain_size(); ++v) {
    const double expected = (v == u) ? a.DiagonalValue() : a.OffDiagonalValue();
    EXPECT_NEAR(hist[static_cast<size_t>(v)], expected, 0.005);
  }
}

class RandomizedGammaKindTest
    : public ::testing::TestWithParam<random::RandomizationKind> {};

TEST_P(RandomizedGammaKindTest, AverageDistributionMatchesExpectedMatrix) {
  // The realized matrices vary per record, but marginally over clients the
  // channel is the EXPECTED matrix (paper Eq. 21): perturbing many copies of
  // record u must reproduce column u of the deterministic gamma-diagonal.
  data::CategoricalSchema schema = MediumSchema();
  const double gamma = 19.0;
  StatusOr<RandomizedGammaPerturber> tmp =
      RandomizedGammaPerturber::Create(schema, gamma, 0.0);
  ASSERT_TRUE(tmp.ok());
  const double alpha = tmp->expected_matrix().DiagonalValue() / 2.0;

  StatusOr<RandomizedGammaPerturber> p =
      RandomizedGammaPerturber::Create(schema, gamma, alpha, GetParam());
  ASSERT_TRUE(p.ok());

  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 300000; ++i) ASSERT_TRUE(t->AppendRow({0, 1, 2}).ok());
  random::Pcg64 rng(13);
  StatusOr<data::CategoricalTable> out = p->Perturb(*t, rng);
  ASSERT_TRUE(out.ok());

  const data::DomainIndexer indexer = data::DomainIndexer::OverAllAttributes(schema);
  linalg::Vector hist = out->JointHistogram(indexer);
  hist.Scale(1.0 / static_cast<double>(out->num_rows()));
  const GammaDiagonalMatrix& a = p->expected_matrix();
  const uint64_t u = indexer.Encode({0, 1, 2});
  for (uint64_t v = 0; v < indexer.domain_size(); ++v) {
    const double expected = (v == u) ? a.DiagonalValue() : a.OffDiagonalValue();
    EXPECT_NEAR(hist[static_cast<size_t>(v)], expected, 0.005)
        << "kind=" << random::RandomizationKindName(GetParam()) << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RandomizedGammaKindTest,
    ::testing::Values(random::RandomizationKind::kUniform,
                      random::RandomizationKind::kTwoPoint,
                      random::RandomizationKind::kTruncatedGaussian));

TEST(RandomizedGammaTest, PosteriorWindowMatchesPrivacyModule) {
  data::CategoricalSchema schema = MediumSchema();
  const double gamma = 19.0;
  StatusOr<RandomizedGammaPerturber> p0 =
      RandomizedGammaPerturber::Create(schema, gamma, 0.0);
  ASSERT_TRUE(p0.ok());
  const double alpha = p0->expected_matrix().DiagonalValue() / 2.0;
  StatusOr<RandomizedGammaPerturber> p =
      RandomizedGammaPerturber::Create(schema, gamma, alpha);
  ASSERT_TRUE(p.ok());

  StatusOr<PosteriorRange> window = p->PosteriorWindow(0.05);
  ASSERT_TRUE(window.ok());
  StatusOr<PosteriorRange> direct =
      RandomizedPosteriorRange(0.05, gamma, schema.DomainSize(), alpha);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(window->lower, direct->lower);
  EXPECT_DOUBLE_EQ(window->upper, direct->upper);
}

TEST(RandomizedGammaTest, SchemaMismatchRejected) {
  data::CategoricalSchema schema = TinySchema();
  StatusOr<RandomizedGammaPerturber> p =
      RandomizedGammaPerturber::Create(schema, 19.0, 0.0);
  ASSERT_TRUE(p.ok());
  StatusOr<data::CategoricalSchema> other =
      data::CategoricalSchema::Create({{"z", {"0", "1"}}});
  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(*other);
  ASSERT_TRUE(t.ok());
  random::Pcg64 rng(1);
  EXPECT_FALSE(p->Perturb(*t, rng).ok());
}

TEST(RandomizedGammaTest, ShardSeededMatchesPcg64OracleAtEveryLevel) {
  const data::CategoricalSchema schema = data::census::Schema();
  std::vector<size_t> cardinalities(schema.num_attributes());
  for (size_t j = 0; j < cardinalities.size(); ++j) {
    cardinalities[j] = schema.Cardinality(j);
  }
  const GammaPerturbPlan plan =
      *GammaPerturbPlan::Create(cardinalities, schema.DomainSize());
  for (random::RandomizationKind kind :
       {random::RandomizationKind::kUniform, random::RandomizationKind::kTwoPoint,
        random::RandomizationKind::kTruncatedGaussian}) {
    SCOPED_TRACE(random::RandomizationKindName(kind));
    const GammaDiagonalMatrix matrix =
        *GammaDiagonalMatrix::Create(19.0, schema.DomainSize());
    const double alpha = matrix.DiagonalValue() / 2.0;
    const RandomizedGammaPerturber perturber =
        *RandomizedGammaPerturber::Create(schema, 19.0, alpha, kind);
    const double n = static_cast<double>(schema.DomainSize());
    testing_oracle::ExpectShardSeededMatchesPcg64Oracle(
        perturber, 202,
        [&](const uint8_t* const* in, uint8_t* const* out, size_t i,
            random::Pcg64& rng) {
          const double r =
              random::SampleRandomizationParameter(kind, alpha, rng);
          const double d = matrix.DiagonalValue() + r;
          const double o = matrix.OffDiagonalValue() - r / (n - 1.0);
          plan.FillRow(plan.SampleDivergenceColumn(d, o, rng), in, out, i,
                       rng);
        });
  }
}

}  // namespace
}  // namespace core
}  // namespace frapp
