#include "frapp/core/gamma_diagonal.h"

#include <gtest/gtest.h>

#include <cmath>

#include "frapp/core/naive_perturber.h"
#include "frapp/core/privacy.h"
#include "frapp/data/census.h"
#include "frapp/linalg/condition.h"
#include "frapp/random/alias_sampler.h"
#include "seeded_oracle.h"

namespace frapp {
namespace core {
namespace {

data::CategoricalSchema TinySchema() {
  StatusOr<data::CategoricalSchema> s = data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}, {"c", {"0", "1"}}});
  return *std::move(s);  // domain size 12
}

TEST(GammaDiagonalMatrixTest, EntriesAndStochasticity) {
  StatusOr<GammaDiagonalMatrix> a = GammaDiagonalMatrix::Create(19.0, 12);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->x(), 1.0 / 30.0, 1e-15);
  EXPECT_NEAR(a->DiagonalValue(), 19.0 / 30.0, 1e-15);
  EXPECT_NEAR(a->Entry(3, 3), a->DiagonalValue(), 0.0);
  EXPECT_NEAR(a->Entry(3, 4), a->x(), 0.0);
  EXPECT_TRUE(a->ToDense().IsColumnStochastic());
  EXPECT_TRUE(a->ToUniformMixture().IsColumnStochastic());
}

TEST(GammaDiagonalMatrixTest, AmplificationIsExactlyGamma) {
  StatusOr<GammaDiagonalMatrix> a = GammaDiagonalMatrix::Create(19.0, 12);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->Amplification(), 19.0);
  EXPECT_NEAR(MatrixAmplification(a->ToDense()), 19.0, 1e-12);
}

TEST(GammaDiagonalMatrixTest, ConditionNumberClosedFormMatchesDense) {
  StatusOr<GammaDiagonalMatrix> a = GammaDiagonalMatrix::Create(19.0, 12);
  ASSERT_TRUE(a.ok());
  StatusOr<double> closed = a->ConditionNumber();
  ASSERT_TRUE(closed.ok());
  EXPECT_NEAR(*closed, (19.0 + 11.0) / 18.0, 1e-12);
  StatusOr<double> dense = linalg::SymmetricConditionNumber(a->ToDense());
  ASSERT_TRUE(dense.ok());
  EXPECT_NEAR(*closed, *dense, 1e-9);
}

TEST(GammaDiagonalMatrixTest, Validation) {
  EXPECT_FALSE(GammaDiagonalMatrix::Create(1.0, 10).ok());
  EXPECT_FALSE(GammaDiagonalMatrix::Create(0.5, 10).ok());
  EXPECT_FALSE(GammaDiagonalMatrix::Create(19.0, 1).ok());
}

TEST(MinimumConditionNumberBoundTest, OptimalityAgainstRandomFeasibleMatrices) {
  // Paper Section 3 theorem: NO symmetric column-stochastic matrix with
  // amplification <= gamma beats (gamma + n - 1)/(gamma - 1). Verify against
  // randomized feasible matrices.
  const double gamma = 10.0;
  const size_t n = 6;
  const double bound = MinimumConditionNumberBound(gamma, n);
  random::Pcg64 rng(2024);

  for (int trial = 0; trial < 200; ++trial) {
    // Random symmetric matrix with entries in [1, gamma], then normalized by
    // the (symmetry-preserving) Sinkhorn-style scaling toward stochasticity.
    linalg::Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        m(i, j) = rng.NextDouble(1.0, gamma);
        m(j, i) = m(i, j);
      }
    }
    for (int sweep = 0; sweep < 200; ++sweep) {
      for (size_t j = 0; j < n; ++j) {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) sum += m(i, j);
        const double scale = 1.0 / std::sqrt(sum);
        for (size_t i = 0; i < n; ++i) {
          m(i, j) *= scale;
          m(j, i) = m(i, j);
        }
      }
    }
    if (!m.IsColumnStochastic(1e-6)) continue;
    if (MatrixAmplification(m) > gamma) continue;  // infeasible draw
    StatusOr<double> cond = linalg::SymmetricConditionNumber(m);
    if (!cond.ok()) continue;  // indefinite draw
    EXPECT_GE(*cond, bound * (1.0 - 1e-6)) << "trial " << trial;
  }
}

TEST(PerturbRecordDiagonalFormTest, MatchesTheoreticalColumnDistribution) {
  // Perturb one fixed record many times; the empirical distribution over the
  // joint domain must match [diag on u, x elsewhere].
  data::CategoricalSchema schema = TinySchema();
  const data::DomainIndexer indexer = data::DomainIndexer::OverAllAttributes(schema);
  const uint64_t n = indexer.domain_size();
  const double gamma = 7.0;
  const double x = 1.0 / (gamma + static_cast<double>(n) - 1.0);

  std::vector<size_t> cards = {2, 3, 2};
  const std::vector<uint8_t> record = {1, 2, 0};
  const uint64_t u = indexer.EncodeFromFullRecord(record);

  random::Pcg64 rng(99);
  const int trials = 300000;
  std::vector<int> counts(n, 0);
  std::vector<uint8_t> out;
  for (int t = 0; t < trials; ++t) {
    PerturbRecordDiagonalForm(record, cards, n, gamma * x, x, rng, &out);
    ++counts[indexer.EncodeFromFullRecord(out)];
  }

  for (uint64_t v = 0; v < n; ++v) {
    const double expected = (v == u) ? gamma * x : x;
    const double observed = static_cast<double>(counts[v]) / trials;
    EXPECT_NEAR(observed, expected, 0.004) << "v=" << v;
  }
}

TEST(GammaDiagonalPerturberTest, AgreesWithNaiveCdfPerturber) {
  // The O(M) dependent-column algorithm and the O(|S_V|) CDF scan must
  // induce the same distribution (paper Section 5's equivalence).
  data::CategoricalSchema schema = TinySchema();
  StatusOr<data::CategoricalTable> original = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(original.ok());
  random::Pcg64 data_rng(5);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(original
                    ->AppendRow({static_cast<uint8_t>(data_rng.NextBounded(2)),
                                 static_cast<uint8_t>(data_rng.NextBounded(3)),
                                 static_cast<uint8_t>(data_rng.NextBounded(2))})
                    .ok());
  }

  const double gamma = 19.0;
  StatusOr<GammaDiagonalPerturber> fast =
      GammaDiagonalPerturber::Create(schema, gamma);
  ASSERT_TRUE(fast.ok());
  StatusOr<GammaDiagonalMatrix> matrix =
      GammaDiagonalMatrix::Create(gamma, schema.DomainSize());
  ASSERT_TRUE(matrix.ok());
  StatusOr<NaivePerturber> naive = NaivePerturber::Create(schema, *matrix);
  ASSERT_TRUE(naive.ok());

  const data::DomainIndexer indexer = data::DomainIndexer::OverAllAttributes(schema);
  // Accumulate perturbed histograms over several repetitions.
  linalg::Vector fast_hist(static_cast<size_t>(indexer.domain_size()));
  linalg::Vector naive_hist(static_cast<size_t>(indexer.domain_size()));
  random::Pcg64 rng_fast(7), rng_naive(8);
  const int reps = 25;
  for (int r = 0; r < reps; ++r) {
    StatusOr<data::CategoricalTable> pf = fast->Perturb(*original, rng_fast);
    StatusOr<data::CategoricalTable> pn = naive->Perturb(*original, rng_naive);
    ASSERT_TRUE(pf.ok() && pn.ok());
    fast_hist = fast_hist + pf->JointHistogram(indexer);
    naive_hist = naive_hist + pn->JointHistogram(indexer);
  }
  const double total = fast_hist.Sum();
  ASSERT_DOUBLE_EQ(total, naive_hist.Sum());
  for (size_t v = 0; v < fast_hist.size(); ++v) {
    EXPECT_NEAR(fast_hist[v] / total, naive_hist[v] / total, 0.005) << "v=" << v;
  }
}

TEST(GammaDiagonalPerturberTest, PreservesRowCountAndSchema) {
  data::CategoricalSchema schema = TinySchema();
  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->AppendRow({0, 0, 0}).ok());
  ASSERT_TRUE(t->AppendRow({1, 2, 1}).ok());
  StatusOr<GammaDiagonalPerturber> p = GammaDiagonalPerturber::Create(schema, 19.0);
  ASSERT_TRUE(p.ok());
  random::Pcg64 rng(1);
  StatusOr<data::CategoricalTable> out = p->Perturb(*t, rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->num_attributes(), 3u);
}

TEST(GammaDiagonalPerturberTest, HighGammaMostlyPreservesRecords) {
  // gamma >> n: the diagonal dominates, most records survive unchanged.
  data::CategoricalSchema schema = TinySchema();
  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t->AppendRow({1, 1, 1}).ok());
  StatusOr<GammaDiagonalPerturber> p = GammaDiagonalPerturber::Create(schema, 1e6);
  ASSERT_TRUE(p.ok());
  random::Pcg64 rng(3);
  StatusOr<data::CategoricalTable> out = p->Perturb(*t, rng);
  ASSERT_TRUE(out.ok());
  size_t unchanged = 0;
  for (size_t i = 0; i < out->num_rows(); ++i) {
    unchanged += (out->Row(i) == std::vector<uint8_t>{1, 1, 1}) ? 1 : 0;
  }
  EXPECT_GT(unchanged, 990u);
}

TEST(GammaDiagonalPerturberTest, ShardSeededMatchesPcg64OracleAtEveryLevel) {
  const GammaDiagonalPerturber perturber =
      *GammaDiagonalPerturber::Create(data::census::Schema(), 19.0);
  const random::AliasSampler divergence =
      *random::AliasSampler::Create(perturber.plan().DivergenceWeights(
          perturber.matrix().DiagonalValue(),
          perturber.matrix().OffDiagonalValue()));
  testing_oracle::ExpectShardSeededMatchesPcg64Oracle(
      perturber, 101,
      [&](const uint8_t* const* in, uint8_t* const* out, size_t i,
          random::Pcg64& rng) {
        perturber.plan().FillRow(divergence.Sample(rng), in, out, i, rng);
      });
}

}  // namespace
}  // namespace core
}  // namespace frapp
