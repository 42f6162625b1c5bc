// serve-drilldown: a closed loop over 4 serve::QueryClient TCP loopback
// connections to an in-process QueryServer (broker num_threads 1) serving a
// 2M-row FRAPPBIN file.
//
// The served table is the canonical census table (data::census::kDefaultSeed,
// perturbation seed 7) and the workload seed drives the query stream: a
// server's input is its traffic. Seeded tables change the number of
// frequent itemsets, and with it the cost of every rules query and mine, by
// up to a fifth between seeds, which made this workload's figures spread
// twice as wide as the others'.
//
// Query mix: 50% mine, 25% top-k, 25% rules; DET-GD or MASK at 50/50;
// supmin Zipf-skewed over a 48-point grid on [0.01, 0.05], most popular
// nearest the paper's 0.02. That is 96 mine keys against the broker's
// 64-entry result cache, and the 6 grid points below the stores' 0.015
// retention threshold (supmin 0.02 x (1 - 0.25 margin)) force substrate
// recounts. The two cold mines at supmin 0.02 that create the count stores
// belong to set-up, so the loop perturbs nothing: it runs the reuse ladder,
// rule generation and the query wire.
//
// Every response must equal the reference for its (spec, supmin): the
// library's Apriori re-run at that supmin over the estimator of one
// PrivacyPipeline run per spec (ReplayMechanism), with top-k and rules
// derived from it the way the broker defines them.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/mining/rules.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/random/rng.h"
#include "frapp/serve/broker.h"
#include "frapp/serve/client.h"
#include "frapp/serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace dist = frapp::dist;
namespace mining = frapp::mining;
namespace pipeline = frapp::pipeline;
namespace serve = frapp::serve;
using frapp::common::NowNanos;

constexpr size_t kClients = 4;
constexpr size_t kGridPoints = 48;
constexpr double kGridLow = 0.01;
constexpr double kGridHigh = 0.05;
constexpr uint64_t kTopK = 10;
constexpr double kMinConfidence = 0.6;
constexpr double kColdSupmin = 0.02;
constexpr uint64_t kPerturbSeed = 7;
/// Unrecorded queries before each measured phase, so the result cache holds
/// the popular keys before timing starts.
constexpr double kWarmupSeconds = 1.0;

double GridSupmin(size_t i) {
  return kGridLow + (kGridHigh - kGridLow) * static_cast<double>(i) /
                        static_cast<double>(kGridPoints - 1);
}

dist::MechanismSpec SpecOf(size_t index) {
  dist::MechanismSpec spec;
  spec.kind = index == 0 ? dist::MechanismSpec::Kind::kDetGd
                         : dist::MechanismSpec::Kind::kMask;
  return spec;
}

class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Items(const mining::Itemset& itemset) {
    U64(itemset.items().size());
    for (const mining::Item& item : itemset.items()) {
      U64(item.attribute);
      U64(item.category);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

uint64_t DigestMined(const mining::AprioriResult& mined) {
  Digest d;
  for (size_t c : mined.candidates_per_pass) d.U64(c);
  for (const auto& level : mined.by_length) {
    d.U64(level.size());
    for (const mining::FrequentItemset& f : level) {
      d.Items(f.itemset);
      d.F64(f.support);
    }
  }
  return d.value();
}

uint64_t DigestTop(const std::vector<mining::FrequentItemset>& top) {
  Digest d;
  d.U64(top.size());
  for (const mining::FrequentItemset& f : top) {
    d.Items(f.itemset);
    d.F64(f.support);
  }
  return d.value();
}

uint64_t DigestRules(const std::vector<mining::AssociationRule>& rules) {
  Digest d;
  d.U64(rules.size());
  for (const mining::AssociationRule& r : rules) {
    d.Items(r.antecedent);
    d.Items(r.consequent);
    d.F64(r.support);
    d.F64(r.confidence);
  }
  return d.value();
}

uint64_t DigestResponse(const serve::QueryResponse& response) {
  switch (response.kind) {
    case serve::QueryKind::kTopK:
      return DigestTop(response.top);
    case serve::QueryKind::kRules:
      return DigestRules(response.rules);
    default:
      return DigestMined(response.result);
  }
}

/// One answered (or failed) query.
struct Record {
  serve::QueryKind kind = serve::QueryKind::kMine;
  uint8_t spec = 0;
  uint8_t grid = 0;
  bool ok = false;
  serve::CacheOutcome outcome = serve::CacheOutcome::kMiss;
  uint64_t digest = 0;
  double ms = 0.0;
  double server_ms = 0.0;
};

/// The serving side plus its clients; the destructor tears them down in
/// dependency order.
class ServeFixture {
 public:
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  static StatusOr<std::unique_ptr<ServeFixture>> Start(
      frapp::data::CategoricalTable table, const std::string& path) {
    std::unique_ptr<ServeFixture> f(new ServeFixture(std::move(table), path));
    serve::BrokerOptions options(f->table_.schema());
    options.source_id = path;
    options.num_threads = 1;
    ServeFixture* self = f.get();
    options.source_factory =
        [self]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
      FRAPP_ASSIGN_OR_RETURN(
          pipeline::BinaryTableSource source,
          pipeline::BinaryTableSource::Open(self->path_, self->table_.schema()));
      auto binary =
          std::make_unique<pipeline::BinaryTableSource>(std::move(source));
      if (!self->tracing.load()) {
        return std::unique_ptr<pipeline::TableSource>(std::move(binary));
      }
      return std::unique_ptr<pipeline::TableSource>(
          std::make_unique<TracedSource>(std::move(binary), &self->clock));
    };
    f->broker_ = std::make_unique<serve::QueryBroker>(std::move(options));
    f->server_ = std::make_unique<serve::QueryServer>(f->broker_.get());
    FRAPP_ASSIGN_OR_RETURN(dist::TcpListener listener,
                           dist::TcpListener::Bind("127.0.0.1", 0));
    f->listener_ = std::make_unique<dist::TcpListener>(std::move(listener));
    // ServeLoop returns OK once the listener is closed; a failed session
    // surfaces as failed queries.
    f->serve_thread_ = std::thread(
        [self] { (void)self->server_->ServeLoop(*self->listener_); });
    for (size_t c = 0; c < kClients; ++c) {
      FRAPP_ASSIGN_OR_RETURN(
          std::unique_ptr<dist::Transport> transport,
          dist::TcpConnect("127.0.0.1", f->listener_->port()));
      f->clients_.push_back(
          std::make_unique<serve::QueryClient>(std::move(transport)));
    }
    // The cold mines: they create both count stores and fix their
    // retention thresholds.
    for (size_t s = 0; s < 2; ++s) {
      FRAPP_RETURN_IF_ERROR(
          f->clients_[0]->Query(f->Request(serve::QueryKind::kMine, s, kColdSupmin))
              .status());
    }
    return f;
  }

  ~ServeFixture() {
    for (auto& client : clients_) client->Close();
    if (listener_ != nullptr) listener_->Close();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  serve::QueryRequest Request(serve::QueryKind kind, size_t spec,
                              double supmin) const {
    serve::QueryRequest request;
    request.kind = kind;
    request.schema_fingerprint = broker_->schema_fingerprint();
    request.spec = SpecOf(spec);
    request.perturb_seed = kPerturbSeed;
    request.min_support = supmin;
    request.min_confidence = kMinConfidence;
    request.top_k = kTopK;
    return request;
  }

  const frapp::data::CategoricalTable& table() const { return table_; }
  serve::QueryClient& client(size_t c) { return *clients_[c]; }
  serve::BrokerStats broker_stats() const { return broker_->stats(); }

  /// Broker-side source waits land here while `tracing` is set.
  LayerClock clock;
  std::atomic<bool> tracing{false};

 private:
  ServeFixture(frapp::data::CategoricalTable table, std::string path)
      : table_(std::move(table)), path_(std::move(path)) {}

  frapp::data::CategoricalTable table_;
  std::string path_;
  std::unique_ptr<serve::QueryBroker> broker_;
  std::unique_ptr<serve::QueryServer> server_;
  std::unique_ptr<dist::TcpListener> listener_;
  std::vector<std::unique_ptr<serve::QueryClient>> clients_;
  std::thread serve_thread_;  // after everything it uses
};

/// Grid indexes by popularity: nearest the paper's supmin first.
std::vector<size_t> PopularityOrder() {
  std::vector<size_t> order(kGridPoints);
  for (size_t i = 0; i < kGridPoints; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [](size_t a, size_t b) {
    return std::abs(GridSupmin(a) - kColdSupmin) <
           std::abs(GridSupmin(b) - kColdSupmin);
  });
  return order;
}

/// Runs the 4 clients for `seconds` of wall time; each client draws its
/// queries from its own stream of the workload seed.
std::vector<Record> RunPhase(ServeFixture& fixture, double seconds,
                             uint64_t seed, double* wall_seconds) {
  const std::vector<size_t> order = PopularityOrder();
  std::vector<double> zipf_cdf(kGridPoints);
  double total = 0;
  for (size_t r = 0; r < kGridPoints; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    zipf_cdf[r] = total;
  }
  for (double& c : zipf_cdf) c /= total;

  std::vector<std::vector<Record>> per_client(kClients);
  std::vector<std::thread> threads;
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      frapp::random::Pcg64 rng(DeriveSeed(seed, c));
      while (NowNanos() < deadline) {
        Record record;
        const double u = rng.NextDouble();
        record.kind = u < 0.5    ? serve::QueryKind::kMine
                      : u < 0.75 ? serve::QueryKind::kTopK
                                 : serve::QueryKind::kRules;
        record.spec = static_cast<uint8_t>(rng.NextBounded(2));
        const size_t rank = static_cast<size_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(),
                             rng.NextDouble()) -
            zipf_cdf.begin());
        record.grid = static_cast<uint8_t>(order[std::min(rank, kGridPoints - 1)]);
        const serve::QueryRequest request =
            fixture.Request(record.kind, record.spec, GridSupmin(record.grid));
        const uint64_t sent = NowNanos();
        StatusOr<serve::QueryResponse> response =
            fixture.client(c).Query(request);
        record.ms = MillisSince(sent);
        record.ok = response.ok() && response->kind == record.kind;
        if (record.ok) {
          record.outcome = response->outcome;
          record.server_ms = response->elapsed_micros / 1e3;
          record.digest = DigestResponse(*response);
        }
        per_client[c].push_back(record);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_seconds = MillisSince(start) / 1e3;
  std::vector<Record> out;
  for (auto& records : per_client) {
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

/// Reference digests per (kind, spec, grid point), computed on first use.
class Reference {
 public:
  static StatusOr<std::unique_ptr<Reference>> Build(
      const frapp::data::CategoricalTable& table) {
    std::unique_ptr<Reference> ref(new Reference(table.schema()));
    for (size_t s = 0; s < 2; ++s) {
      FRAPP_ASSIGN_OR_RETURN(ref->mechanisms_[s],
                             dist::MakeMechanism(SpecOf(s), table.schema()));
      ref->replay_[s] = std::make_unique<ReplayMechanism>(*ref->mechanisms_[s]);
      pipeline::PipelineOptions options;
      options.num_shards = 0;
      options.num_threads = kThreads;
      options.perturb_seed = kPerturbSeed;
      // The grid's lowest supmin: every other grid point's candidates are a
      // subset of this run's, so its memoized counts serve them all.
      options.mining.min_support = GridSupmin(0);
      FRAPP_RETURN_IF_ERROR(
          pipeline::PrivacyPipeline(options).Run(*ref->replay_[s], table).status());
    }
    return ref;
  }

  StatusOr<uint64_t> DigestOf(serve::QueryKind kind, size_t spec, size_t grid) {
    const auto key = std::make_tuple(static_cast<int>(kind), spec, grid);
    if (const auto it = digests_.find(key); it != digests_.end()) {
      return it->second;
    }
    mining::AprioriOptions options;
    options.min_support = GridSupmin(grid);
    FRAPP_ASSIGN_OR_RETURN(
        const mining::AprioriResult mined,
        mining::MineFrequentItemsets(
            schema_, *replay_[spec]->estimator_of_last_run(), options));
    uint64_t digest = 0;
    if (kind == serve::QueryKind::kMine) {
      digest = DigestMined(mined);
    } else if (kind == serve::QueryKind::kTopK) {
      std::vector<mining::FrequentItemset> all;
      for (const auto& level : mined.by_length) {
        all.insert(all.end(), level.begin(), level.end());
      }
      std::sort(all.begin(), all.end(),
                [](const mining::FrequentItemset& a,
                   const mining::FrequentItemset& b) {
                  if (a.support != b.support) return a.support > b.support;
                  return a.itemset < b.itemset;
                });
      if (all.size() > kTopK) all.resize(kTopK);
      digest = DigestTop(all);
    } else {
      mining::RuleOptions rule_options;
      rule_options.min_confidence = kMinConfidence;
      FRAPP_ASSIGN_OR_RETURN(
          const std::vector<mining::AssociationRule> rules,
          mining::GenerateAssociationRules(mined, rule_options));
      digest = DigestRules(rules);
    }
    digests_[key] = digest;
    return digest;
  }

 private:
  explicit Reference(const frapp::data::CategoricalSchema& schema)
      : schema_(schema) {}

  const frapp::data::CategoricalSchema& schema_;
  std::unique_ptr<frapp::core::Mechanism> mechanisms_[2];
  std::unique_ptr<ReplayMechanism> replay_[2];
  std::map<std::tuple<int, size_t, size_t>, uint64_t> digests_;
};

/// Checks every record against the reference; returns false on a
/// reference failure. Failed or wrong records count as failed ops.
bool CheckRecords(const std::vector<Record>& records, Reference& reference,
                  OpTally* tally) {
  for (const Record& r : records) {
    bool ok = r.ok;
    if (ok) {
      StatusOr<uint64_t> want = reference.DigestOf(r.kind, r.spec, r.grid);
      if (!want.ok()) return false;
      ok = *want == r.digest;
    }
    tally->Record(ok);
  }
  return true;
}

Samples LatenciesOf(const std::vector<Record>& records,
                    const std::function<bool(const Record&)>& pick) {
  Samples out;
  for (const Record& r : records) {
    if (r.ok && pick(r)) out.Add(r.ms);
  }
  return out;
}

}  // namespace

StatusOr<RunResult> RunServeDrilldown(const RunConfig& config) {
  EndToEnd e2e;
  FRAPP_ASSIGN_OR_RETURN(
      std::unique_ptr<ServeFixture> fixture,
      SetUpRepeatedly<ServeFixture>(
          [&]() -> StatusOr<std::unique_ptr<ServeFixture>> {
            FRAPP_ASSIGN_OR_RETURN(
                frapp::data::CategoricalTable table,
                GenerateCensus(kTableRows, frapp::data::census::kDefaultSeed));
            const std::string path = config.tmp_dir + "/census.frappbin";
            FRAPP_RETURN_IF_ERROR(frapp::data::WriteBinaryTable(table, path));
            return ServeFixture::Start(std::move(table), path);
          },
          &e2e.setup_seconds));
  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<Reference> reference,
                         Reference::Build(fixture->table()));
  FRAPP_ASSIGN_OR_RETURN(e2e.accuracy, CanonicalAccuracy(SpecOf(0), kTableRows));

  double wall = 0.0;
  const std::vector<Record> warmup = RunPhase(
      *fixture, kWarmupSeconds, DeriveSeed(config.seed, 2), &wall);
  MeasuredLoops loops;
  const std::vector<Record> untraced =
      RunPhase(*fixture, config.trace ? config.seconds / 2 : config.seconds,
               DeriveSeed(config.seed, 3), &loops.untraced.busy_seconds);
  loops.untraced.latencies = LatenciesOf(untraced, [](const Record&) { return true; });

  std::vector<Record> traced;  // stays empty in untraced runs
  std::map<std::string, double> layers;
  if (config.trace) {
    fixture->tracing.store(true);
    const serve::BrokerStats before = fixture->broker_stats();
    traced = RunPhase(*fixture, config.seconds / 2, DeriveSeed(config.seed, 4),
                      &loops.traced.busy_seconds);
    const serve::BrokerStats after = fixture->broker_stats();
    fixture->tracing.store(false);
    loops.traced.latencies = LatenciesOf(traced, [](const Record&) { return true; });

    const auto is = [](serve::QueryKind kind) {
      return [kind](const Record& r) { return r.kind == kind; };
    };
    const auto lookup = [](const Record& r) {
      return r.kind != serve::QueryKind::kRules;
    };
    const Samples hits = LatenciesOf(traced, [&](const Record& r) {
      return lookup(r) && r.outcome == serve::CacheOutcome::kHit;
    });
    const Samples misses = LatenciesOf(traced, [&](const Record& r) {
      return lookup(r) && r.outcome != serve::CacheOutcome::kHit;
    });
    Samples wire;
    for (const Record& r : traced) {
      if (r.ok) wire.Add(r.ms - r.server_ms);
    }
    const double queries = static_cast<double>(traced.size());
    const double admitted = static_cast<double>(after.queries - before.queries);
    layers["bench.traced_ops"] = queries;
    layers["pipeline.source_wait_ms"] =
        queries > 0 ? fixture->clock.source_wait_ns.load() / 1e6 / queries : 0.0;
    layers["serve.cache_hit_ratio"] =
        admitted > 0 ? (after.cache_hits - before.cache_hits) / admitted : 0.0;
    layers["serve.coalesced"] = after.coalesced - before.coalesced;
    layers["serve.mine_runs"] = after.mine_runs - before.mine_runs;
    layers["serve.evictions"] = after.cache_evictions - before.cache_evictions;
    layers["serve.hit_latency_p50_ms"] = hits.Percentile(0.5);
    layers["serve.miss_latency_p50_ms"] = misses.Percentile(0.5);
    layers["serve.rules_latency_p50_ms"] =
        LatenciesOf(traced, is(serve::QueryKind::kRules)).Percentile(0.5);
    layers["serve.topk_latency_p50_ms"] =
        LatenciesOf(traced, is(serve::QueryKind::kTopK)).Percentile(0.5);
    layers["serve.wire_overhead_p50_ms"] = wire.Percentile(0.5);
    layers["serve.mine_queries"] =
        LatenciesOf(traced, is(serve::QueryKind::kMine)).size();
    layers["serve.topk_queries"] =
        LatenciesOf(traced, is(serve::QueryKind::kTopK)).size();
    layers["serve.rules_queries"] =
        LatenciesOf(traced, is(serve::QueryKind::kRules)).size();
    layers["serve.hit_queries"] = hits.size();
    layers["serve.miss_queries"] = misses.size();
  }

  for (const std::vector<Record>& records : {warmup, untraced, traced}) {
    if (!CheckRecords(records, *reference, &e2e.tally)) {
      return Status::Internal("serve reference mine failed");
    }
  }
  // Self-test: a key answered in both phases got the same bytes.
  std::map<std::tuple<int, size_t, size_t>, uint64_t> untraced_digests;
  for (const Record& r : untraced) {
    if (r.ok) untraced_digests[{static_cast<int>(r.kind), r.spec, r.grid}] = r.digest;
  }
  bool traced_matches_untraced = true;
  for (const Record& r : traced) {
    const auto it =
        untraced_digests.find({static_cast<int>(r.kind), r.spec, r.grid});
    if (r.ok && it != untraced_digests.end() && it->second != r.digest) {
      traced_matches_untraced = false;
    }
  }
  RunResult result = FinishRun(config, std::move(e2e), loops,
                               std::move(layers), traced_matches_untraced);
  size_t per_kind[3] = {0, 0, 0};
  for (const Record& r : untraced) ++per_kind[static_cast<int>(r.kind)];
  result.notes.push_back("untraced samples per kind: mine " +
                         std::to_string(per_kind[0]) + ", top-k " +
                         std::to_string(per_kind[1]) + ", rules " +
                         std::to_string(per_kind[2]));
  return result;
}

}  // namespace perfbench
