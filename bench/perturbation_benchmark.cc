// Microbenchmark backing the paper's Section 5 complexity claim: the
// dependent-column gamma-diagonal perturber costs O(sum_j |S_j|) per record,
// while the straightforward CDF-scan algorithm costs O(prod_j |S_j|) — so
// adding attributes grows the naive cost geometrically
// (BM_NaiveCdfPerturb/m) but the dependent-column cost only linearly
// (BM_SequentialGammaPerturb/m). Also measures the DET-GD, RAN-GD, MASK and
// C&P perturbers' throughput; the first three as their entry points run
// them, per 8192-row CENSUS shard.

#include <benchmark/benchmark.h>

#include "frapp_benchmark_main.h"

#include "frapp/core/cut_paste_scheme.h"
#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/mask_scheme.h"
#include "frapp/core/naive_perturber.h"
#include "frapp/core/randomized_gamma.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/census.h"
#include "frapp/data/sharded_table.h"

namespace {

using namespace frapp;

// Schema with `m` attributes of 4 categories each: |S_U| = 4^m.
data::CategoricalSchema PowerSchema(size_t m) {
  std::vector<data::Attribute> attrs;
  for (size_t j = 0; j < m; ++j) {
    attrs.push_back({"a" + std::to_string(j), {"0", "1", "2", "3"}});
  }
  return *data::CategoricalSchema::Create(std::move(attrs));
}

data::CategoricalTable RandomTable(const data::CategoricalSchema& schema, size_t n) {
  data::CategoricalTable table = *data::CategoricalTable::Create(schema);
  random::Pcg64 rng(1);
  std::vector<uint8_t> row(schema.num_attributes());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      row[j] = static_cast<uint8_t>(rng.NextBounded(schema.Cardinality(j)));
    }
    (void)table.AppendRow(row);
  }
  return table;
}

// The gamma perturbers the way the pipeline, dist workers and the store run
// them: one PerturbShardSeeded call per chunk-aligned shard of 8192 CENSUS
// rows (one seeded chunk), on one thread.
constexpr size_t kCensusShards = 4;

template <typename Perturber>
void PerturbCensusShards(benchmark::State& state, const Perturber& perturber) {
  constexpr size_t kRows = data::kShardAlignmentRows;
  const data::CategoricalTable table =
      *data::census::MakeDataset(kCensusShards * kRows, 5);
  for (auto _ : state) {
    for (size_t s = 0; s < kCensusShards; ++s) {
      benchmark::DoNotOptimize(perturber.PerturbShardSeeded(
          table, data::RowRange{s * kRows, (s + 1) * kRows}, /*seed=*/5));
    }
  }
  state.SetItemsProcessed(state.iterations() * kCensusShards * kRows);
}

void BM_EfficientGammaPerturb(benchmark::State& state) {
  PerturbCensusShards(state, *core::GammaDiagonalPerturber::Create(
                                 data::census::Schema(), 19.0));
}
BENCHMARK(BM_EfficientGammaPerturb);

void BM_NaiveCdfPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto matrix = *core::GammaDiagonalMatrix::Create(19.0, schema.DomainSize());
  auto perturber = *core::NaivePerturber::Create(schema, matrix);
  random::Pcg64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.Perturb(table, rng));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
  state.counters["domain"] = static_cast<double>(schema.DomainSize());
}
// 4^8 = 65536: already ~3 orders slower per record than the efficient path.
BENCHMARK(BM_NaiveCdfPerturb)->DenseRange(2, 8, 2);

// The pre-alias sequential per-column Bernoulli loop: the dependent-column
// algorithm's per-record cost, against the CDF scan above.
void BM_SequentialGammaPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto matrix = *core::GammaDiagonalMatrix::Create(19.0, schema.DomainSize());
  std::vector<size_t> cardinalities(m, 4);
  random::Pcg64 rng(2);
  std::vector<uint8_t> record(m);
  std::vector<uint8_t> perturbed(m);
  for (auto _ : state) {
    data::CategoricalTable out = *data::CategoricalTable::Create(schema);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      for (size_t j = 0; j < m; ++j) record[j] = table.Value(i, j);
      core::PerturbRecordDiagonalForm(record, cardinalities, schema.DomainSize(),
                                      matrix.DiagonalValue(),
                                      matrix.OffDiagonalValue(), rng, &perturbed);
      (void)out.AppendRow(perturbed);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SequentialGammaPerturb)->DenseRange(2, 8, 2);

// Deterministic seeded path; range(1) = worker threads.
void BM_SeededGammaPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 50000);
  auto perturber = *core::GammaDiagonalPerturber::Create(schema, 19.0);
  const size_t threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.PerturbSeeded(table, 99, threads));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SeededGammaPerturb)->Args({6, 1})->Args({6, 2})->Args({6, 4});

void BM_RandomizedGammaPerturb(benchmark::State& state) {
  const data::CategoricalSchema schema = data::census::Schema();
  const double x = 1.0 / (19.0 + schema.DomainSize() - 1.0);
  PerturbCensusShards(state, *core::RandomizedGammaPerturber::Create(
                                 schema, 19.0, 19.0 * x / 2.0));
}
BENCHMARK(BM_RandomizedGammaPerturb);

// MASK the way the pipeline, dist workers and the store run it: one
// PerturbShardSeeded call per chunk-aligned shard of 8192 CENSUS rows (one
// seeded chunk, 23 one-hot bits per row), on one thread.
void BM_MaskPerturb(benchmark::State& state) {
  constexpr size_t kRows = data::kShardAlignmentRows;
  const data::BooleanTable onehot = *data::BooleanTable::FromCategorical(
      *data::census::MakeDataset(kCensusShards * kRows, 5));
  std::vector<data::BooleanTable> shards;
  for (size_t s = 0; s < kCensusShards; ++s) {
    data::BooleanTable shard =
        *data::BooleanTable::CreateEmpty(onehot.num_bits());
    for (size_t i = s * kRows; i < (s + 1) * kRows; ++i) {
      shard.AppendRow(onehot.RowBits(i));
    }
    shards.push_back(std::move(shard));
  }
  auto scheme = *core::MaskScheme::CalibrateForGamma(19.0, 6);
  for (auto _ : state) {
    for (size_t s = 0; s < kCensusShards; ++s) {
      benchmark::DoNotOptimize(
          scheme.PerturbShardSeeded(shards[s], s * kRows, /*seed=*/5));
    }
  }
  state.SetItemsProcessed(state.iterations() * kCensusShards * kRows);
}
BENCHMARK(BM_MaskPerturb);

void BM_CutPastePerturb(benchmark::State& state) {
  const data::CategoricalSchema schema = data::census::Schema();
  const data::CategoricalTable table = RandomTable(schema, 1000);
  const data::BooleanTable onehot = *data::BooleanTable::FromCategorical(table);
  auto scheme = *core::CutPasteScheme::Create(3, 0.494, 6, 23);
  random::Pcg64 rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.Perturb(onehot, rng));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_CutPastePerturb);

}  // namespace

FRAPP_BENCHMARK_MAIN();
