// append-window: one caller sliding a 1,048,576-row window over a growing
// FRAPPBIN file, 4 chunks (32,768 rows) per op. Each op is the write path of
// incremental mining:
//
//   1. data::AppendBinaryTable adds the next 4 chunks to the file;
//   2. store::CountStore::LoadFromFile reloads the FRAPPCNT store;
//   3. store::AppendAndMine (DET-GD, supmin 0.02, 3 threads) mines with
//      window_begin_row raised by 4 chunks: a delta perturb of the new
//      chunks, and vector add and subtract of the new and expired ones;
//   4. CountStore::SaveToFile writes the store back.
//
// Every op must report exactly 4 delta and 4 expired chunks. Steps 1, 2, 4,
// 8, ..., the first traced step and the last step must equal, bit for bit,
// a PrivacyPipeline run over the same window of the file (checked outside
// the timed op).

#include <filesystem>
#include <memory>
#include <string>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/random/rng.h"
#include "frapp/store/count_store.h"
#include "frapp/store/incremental_mine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace pipeline = frapp::pipeline;
namespace store = frapp::store;
using frapp::common::NowNanos;

constexpr size_t kWindowRows = 1048576;
constexpr size_t kStepChunks = 4;
constexpr size_t kStepRows = kStepChunks * frapp::data::kShardAlignmentRows;

struct Fixture {
  std::string path;
  std::string store_path;
  frapp::data::ChainGenerator generator;
  /// Continues the stream the initial window was drawn from.
  frapp::random::Pcg64 rng;
  size_t window_begin = 0;
};

bool IsSampledStep(size_t step) { return (step & (step - 1)) == 0; }

}  // namespace

StatusOr<RunResult> RunAppendWindow(const RunConfig& config) {
  frapp::dist::MechanismSpec spec;  // DET-GD, gamma 19
  const frapp::data::CategoricalSchema schema = frapp::data::census::Schema();
  store::IncrementalOptions inc;
  inc.mining.min_support = 0.02;
  inc.perturb_seed = DeriveSeed(config.seed, 1);
  inc.num_threads = kThreads;
  inc.source_id = config.tmp_dir + "/census.frappbin";

  LayerClock source_clock;
  bool tracing = false;
  const store::SourceFactory open_source =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    FRAPP_ASSIGN_OR_RETURN(pipeline::BinaryTableSource source,
                           pipeline::BinaryTableSource::Open(inc.source_id, schema));
    auto binary = std::make_unique<pipeline::BinaryTableSource>(std::move(source));
    if (!tracing) return std::unique_ptr<pipeline::TableSource>(std::move(binary));
    return std::unique_ptr<pipeline::TableSource>(
        std::make_unique<TracedSource>(std::move(binary), &source_clock));
  };

  EndToEnd e2e;
  FRAPP_ASSIGN_OR_RETURN(
      std::unique_ptr<Fixture> fixture,
      SetUpRepeatedly<Fixture>(
          [&]() -> StatusOr<std::unique_ptr<Fixture>> {
            FRAPP_ASSIGN_OR_RETURN(frapp::data::ChainGenerator generator,
                                   frapp::data::census::Generator());
            auto f = std::make_unique<Fixture>(Fixture{
                inc.source_id, config.tmp_dir + "/census.frappcnt",
                std::move(generator),
                frapp::random::Pcg64(DeriveSeed(config.seed, 0)), 0});
            FRAPP_ASSIGN_OR_RETURN(frapp::data::CategoricalTable window,
                                   frapp::data::CategoricalTable::Create(schema));
            FRAPP_RETURN_IF_ERROR(
                f->generator.AppendRows(&window, kWindowRows, f->rng));
            FRAPP_RETURN_IF_ERROR(frapp::data::WriteBinaryTable(window, f->path));
            store::CountStore count_store(
                store::MakeStoreIdentity(spec, schema, inc));
            FRAPP_RETURN_IF_ERROR(
                store::AppendAndMine(count_store, spec, open_source, inc).status());
            FRAPP_RETURN_IF_ERROR(count_store.SaveToFile(f->store_path));
            return f;
          },
          &e2e.setup_seconds));
  FRAPP_ASSIGN_OR_RETURN(e2e.accuracy, CanonicalAccuracy(spec, kWindowRows));

  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                         frapp::dist::MakeMechanism(spec, schema));
  pipeline::PipelineOptions reference_options;
  reference_options.num_threads = kThreads;
  reference_options.perturb_seed = inc.perturb_seed;
  reference_options.mining = inc.mining;
  // PrivacyPipeline over the file's rows [window_begin, end).
  const auto matches_reference =
      [&](const frapp::mining::AprioriResult& mined) -> bool {
    StatusOr<pipeline::BinaryTableSource> source =
        pipeline::BinaryTableSource::Open(fixture->path, schema);
    if (!source.ok() || !source->SkipToRow(fixture->window_begin).ok()) {
      return false;
    }
    StatusOr<pipeline::PipelineResult> reference =
        pipeline::PrivacyPipeline(reference_options).Run(*mechanism, *source);
    return reference.ok() && SameMined(mined, reference->mined);
  };

  LayerSums sums;
  size_t step = 0;
  bool last_step_checked = true;
  bool traced_matches_untraced = true;
  bool traced_checked = false;
  frapp::mining::AprioriResult last_mined;
  const auto op = [&](bool warmup, bool traced) -> OpOutcome {
    StatusOr<frapp::data::CategoricalTable> rows =
        frapp::data::CategoricalTable::Create(schema);
    if (!rows.ok() ||
        !fixture->generator.AppendRows(&*rows, kStepRows, fixture->rng).ok()) {
      return {0.0, false};
    }
    ++step;
    tracing = traced;
    const uint64_t wait_before = source_clock.source_wait_ns.load();
    store::IncrementalOptions step_options = inc;
    step_options.window_begin_row = fixture->window_begin + kStepRows;
    uint64_t t[5] = {NowNanos(), 0, 0, 0, 0};
    StatusOr<store::IncrementalResult> run =
        [&]() -> StatusOr<store::IncrementalResult> {
      FRAPP_RETURN_IF_ERROR(frapp::data::AppendBinaryTable(*rows, fixture->path));
      t[1] = NowNanos();
      FRAPP_ASSIGN_OR_RETURN(store::CountStore count_store,
                             store::CountStore::LoadFromFile(fixture->store_path));
      t[2] = NowNanos();
      FRAPP_ASSIGN_OR_RETURN(
          store::IncrementalResult result,
          store::AppendAndMine(count_store, spec, open_source, step_options));
      t[3] = NowNanos();
      FRAPP_RETURN_IF_ERROR(count_store.SaveToFile(fixture->store_path));
      t[4] = NowNanos();
      return result;
    }();
    const double ms = MillisSince(t[0]);
    fixture->window_begin = step_options.window_begin_row;
    bool ok = run.ok() && run->stats.delta_chunks == kStepChunks &&
              run->stats.expired_chunks == kStepChunks &&
              run->stats.tail_rows == 0;
    // Traced and untraced steps mine different windows, so the self-test
    // is that the first traced step matches the pipeline as well.
    const bool sampled = IsSampledStep(step) || (traced && !traced_checked);
    if (ok && sampled) {
      ok = matches_reference(run->mined);
      if (traced) {
        traced_matches_untraced &= ok;
        traced_checked = true;
      }
    }
    last_step_checked = !ok || sampled;
    if (ok) last_mined = run->mined;
    if (ok && traced && !warmup) {
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(fixture->store_path, ec);
      const store::IncrementalStats& s = run->stats;
      sums.Add("data.append_file_ms", (t[1] - t[0]) / 1e6);
      sums.Add("store.load_ms", (t[2] - t[1]) / 1e6);
      sums.Add("store.append_mine_ms", (t[3] - t[2]) / 1e6);
      sums.Add("store.save_ms", (t[4] - t[3]) / 1e6);
      sums.Add("store.bytes_written", ec ? 0.0 : static_cast<double>(bytes));
      sums.Add("store.hits", s.store_hits);
      sums.Add("store.misses", s.store_misses);
      sums.Add("store.fallbacks", s.superset_fallbacks);
      sums.Add("store.delta_chunks", s.delta_chunks);
      sums.Add("store.expired_chunks", s.expired_chunks);
      sums.Add("store.entries", s.stored_entries);
      sums.Add("pipeline.source_wait_ms",
               (source_clock.source_wait_ns.load() - wait_before) / 1e6);
      sums.AddMined(run->mined);
      sums.CountOp();
    }
    return {ms, ok};
  };
  const MeasuredLoops loops = RunMeasuredLoops(config, op, &e2e.tally);
  // The last step is always checked; it counts as failed when it differs.
  if (!last_step_checked && !matches_reference(last_mined)) {
    ++e2e.tally.failed;
  }
  return FinishRun(config, std::move(e2e), loops, sums.PerOp(),
                   traced_matches_untraced);
}

}  // namespace perfbench
