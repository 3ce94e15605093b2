#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>

#include "algos/ivm.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "cluster/cluster.h"
#include "common/delta_batch.h"
#include "common/delta_codec.h"
#include "common/serde.h"
#include "exec/coalesce.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/serve.h"
#include "storage/checkpoint_store.h"
#include "trace.h"

namespace perfbench {
namespace {

using rex::Cluster;
using rex::GraphData;
using rex::QueryRunResult;
using rex::Status;

constexpr double kDamping = 0.85;
constexpr double kThreshold = 1e-8;
constexpr int kBatchSize = 8;
constexpr int kBatchDeletes = 3;
constexpr int kCrashWorker = 1;
constexpr int kWorkers = 3;

// ---------------------------------------------------------------------------
// Measurement helpers.

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Calls `f` until at least `min_ns` have passed; returns ns per call.
double NanosPerCall(const std::function<void()>& f, int64_t min_ns = 30000000) {
  int64_t calls = 0;
  const int64_t start = NowNanos();
  int64_t now = start;
  do {
    f();
    ++calls;
    now = NowNanos();
  } while (now - start < min_ns);
  return static_cast<double>(now - start) / static_cast<double>(calls);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  SplitMix mix(seed * 0x100000001b3ULL ^ tag);
  return mix.Next();
}

/// Every workload's graph is fixed, so a run's work does not depend on
/// --seed; the seed only picks the update streams.
constexpr uint64_t kGraphSeed = 1;

/// Seed of repetition `rep`'s update stream (distinct across runs and reps).
uint64_t StreamSeed(uint64_t seed, uint64_t tag, int rep) {
  return DeriveSeed(DeriveSeed(seed, tag + 1), static_cast<uint64_t>(rep));
}

rex::EngineConfig BenchConfig(bool profile_operators) {
  rex::EngineConfig config;
  config.num_workers = kWorkers;
  config.profile_operators = profile_operators;
  return config;
}

rex::PageRankConfig PrConfig() {
  rex::PageRankConfig pr;
  pr.damping = kDamping;
  pr.threshold = kThreshold;
  return pr;
}

rex::SsspConfig SpConfig() { return rex::SsspConfig{}; }

// ---------------------------------------------------------------------------
// Per-layer metrics (traced mode). Every name is printed on every workload;
// a layer a workload does not exercise reads 0.

struct LayerSpec {
  const char* name;
  const char* unit;
};

constexpr LayerSpec kLayerMetrics[] = {
    {"cluster.strata", "count"},
    {"cluster.stratum_ms_p50", "ms"},
    {"cluster.messages_per_stratum", "count"},
    {"cluster.tail_stratum_ms", "ms"},
    {"cluster.tail_bytes_ratio", "ratio"},
    {"recovery.pass_ms", "ms"},
    {"recovery.detection_rounds", "count"},
    {"recovery.refetch_mb", "MB"},
    {"exec.delta_tuples", "count"},
    {"exec.tuples_sent", "count"},
    {"exec.join_incl_ms", "ms"},
    {"exec.groupby_incl_ms", "ms"},
    {"exec.rehash_incl_ms", "ms"},
    {"exec.fixpoint_incl_ms", "ms"},
    {"exec.worker_busy_ms", "ms"},
    {"exec.worker_wait_ms", "ms"},
    {"coalesce.fold_ratio", "ratio"},
    {"coalesce.ns_per_delta", "ns"},
    {"columnar.row_share", "ratio"},
    {"columnar.convert_ns_per_row", "ns"},
    {"net.bytes_sent_mb", "MB"},
    {"net.receiver_skew", "ratio"},
    {"net.backpressure_blocks", "count"},
    {"serde.encode_ns_per_delta", "ns"},
    {"serde.decode_ns_per_delta", "ns"},
    {"storage.ckpt_raw_mb", "MB"},
    {"storage.ckpt_stored_mb", "MB"},
    {"storage.ckpt_put_ms", "ms"},
    {"storage.ckpt_read_ms", "ms"},
    {"codec.encode_mb_per_s", "MB/s"},
    {"codec.decode_mb_per_s", "MB/s"},
    {"codec.wire_ratio", "ratio"},
    {"setup.table_load_ms", "ms"},
    {"setup.start_ms", "ms"},
    {"ivm.build_ms", "ms"},
    {"ivm.strata_per_epoch", "count"},
    {"ivm.tuples_per_epoch", "count"},
    {"serve.query_update_ms", "ms"},
    {"serve.epoch_overhead_ms", "ms"},
    {"serve.poll_ms", "ms"},
    {"serve.diff_rows_per_epoch", "count"},
    {"serve.failovers", "count"},
    {"obs.profile_cost_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

using Layers = std::map<std::string, double>;

/// Metrics read from one converged run's result and profile.
void RunLayers(const QueryRunResult& run, double converge_ms,
               int64_t messages, int64_t backpressure_blocks, Layers* L) {
  const rex::QueryProfile& p = run.profile;
  const double strata = std::max(1, run.strata_executed);
  (*L)["cluster.strata"] = run.strata_executed;
  std::vector<double> stratum_ms;
  int64_t peak = 0;
  size_t peak_at = 0;
  for (size_t i = 0; i < p.strata.size(); ++i) {
    stratum_ms.push_back(p.strata[i].seconds * 1e3);
    if (p.strata[i].delta_tuples > peak) {
      peak = p.strata[i].delta_tuples;
      peak_at = i;
    }
  }
  (*L)["cluster.stratum_ms_p50"] = Median(stratum_ms);
  (*L)["cluster.messages_per_stratum"] = static_cast<double>(messages) / strata;
  // Plateau strata carry at least half the peak Δ; the tail is every later
  // stratum whose Δ has fallen below that.
  std::vector<double> tail_ms;
  double tail_bytes = 0, plateau_bytes = 0;
  int tail_n = 0, plateau_n = 0;
  for (size_t i = 0; i < p.strata.size(); ++i) {
    if (2 * p.strata[i].delta_tuples >= peak) {
      plateau_bytes += static_cast<double>(p.strata[i].bytes_sent);
      ++plateau_n;
    } else if (i > peak_at) {
      tail_ms.push_back(p.strata[i].seconds * 1e3);
      tail_bytes += static_cast<double>(p.strata[i].bytes_sent);
      ++tail_n;
    }
  }
  (*L)["cluster.tail_stratum_ms"] = Median(tail_ms);
  (*L)["cluster.tail_bytes_ratio"] =
      tail_n > 0 && plateau_bytes > 0
          ? (tail_bytes / tail_n) / (plateau_bytes / plateau_n)
          : 0;

  int64_t delta_tuples = 0;
  for (const auto& s : p.strata) delta_tuples += s.delta_tuples;
  (*L)["exec.delta_tuples"] = static_cast<double>(delta_tuples);
  (*L)["exec.tuples_sent"] = static_cast<double>(p.tuples_sent);
  std::map<std::string, int64_t> incl;
  for (const auto& op : p.operators) {
    for (const auto& port : op.ports) incl[op.name] += port.consume_nanos;
  }
  (*L)["exec.join_incl_ms"] = Ms(incl["hashJoin"]);
  (*L)["exec.groupby_incl_ms"] = Ms(incl["groupBy"]);
  (*L)["exec.rehash_incl_ms"] = Ms(incl["rehash"]);
  (*L)["exec.fixpoint_incl_ms"] = Ms(incl["fixpoint"]);
  int64_t busy = 0;
  for (const auto& w : p.workers) {
    for (const auto& [name, stats] : w.timers) {
      if (name == rex::metrics::kDispatchTimer) {
        busy = std::max(busy, stats.total_nanos);
      }
    }
  }
  (*L)["exec.worker_busy_ms"] = Ms(busy);
  (*L)["exec.worker_wait_ms"] = converge_ms - Ms(busy);
  const double rows = static_cast<double>(p.batch_rows + p.batch_fallback_rows);
  (*L)["columnar.row_share"] =
      rows > 0 ? static_cast<double>(p.batch_rows) / rows : 0;
  (*L)["net.bytes_sent_mb"] = static_cast<double>(run.total_bytes_sent) / 1e6;
  std::vector<double> received;
  for (const auto& row : p.bytes_matrix) {
    received.resize(std::max(received.size(), row.size()), 0);
    for (size_t to = 0; to < row.size(); ++to) {
      received[to] += static_cast<double>(row[to]);
    }
  }
  double total_received = 0, max_received = 0;
  for (double r : received) {
    total_received += r;
    max_received = std::max(max_received, r);
  }
  const double receivers =
      static_cast<double>(std::max<size_t>(1, received.size()));
  const double mean_received = total_received / receivers;
  (*L)["net.receiver_skew"] =
      total_received > 0 ? max_received / mean_received : 0;
  (*L)["net.backpressure_blocks"] = static_cast<double>(backpressure_blocks);
  (*L)["storage.ckpt_raw_mb"] = static_cast<double>(p.ckpt_raw_bytes) / 1e6;
  (*L)["storage.ckpt_stored_mb"] =
      static_cast<double>(p.ckpt_stored_bytes) / 1e6;
  (*L)["codec.wire_ratio"] =
      p.run_compressed_bytes > 0
          ? static_cast<double>(p.run_raw_bytes) /
                static_cast<double>(p.run_compressed_bytes)
          : 0;
}

/// Micro-timings of public functions on data captured from the run: the
/// checkpointed Δ sets read back from the run's store, re-put into a fresh
/// store, run through the codec, and expanded into the per-edge
/// contribution stream the join ships for the largest Δ set.
void DataLayers(bool pagerank, Cluster* cluster, const rex::PlanSpec& plan,
                const Adj& adj, int strata, Layers* L) {
  auto fp = rex::FindFixpointNode(plan);
  if (!fp.ok()) return;
  std::vector<std::vector<rex::Tuple>> sets;
  const int64_t read0 = NowNanos();
  for (int s = 0; s < strata; ++s) {
    auto r = cluster->checkpoints()->Read(*fp, s, 0);
    if (r.ok()) sets.push_back(std::move(*r));
  }
  (*L)["storage.ckpt_read_ms"] = Ms(NowNanos() - read0);

  // A checkpoint tuple holds one serialized Δ; decode them, and split every
  // Δ set over three owners by key, as the workers hold them.
  std::vector<rex::DeltaVec> deltas(sets.size());
  std::vector<std::vector<std::vector<rex::Tuple>>> owned(
      sets.size(), std::vector<std::vector<rex::Tuple>>(kWorkers));
  for (size_t s = 0; s < sets.size(); ++s) {
    for (const rex::Tuple& t : sets[s]) {
      if (t.size() != 1 || t.field(0).type() != rex::ValueType::kString) {
        continue;
      }
      auto d = rex::DeserializeDelta(t.field(0).AsString());
      if (!d.ok() || d->tuple.size() < 2) continue;
      auto v = d->tuple.field(0).ToInt();
      if (!v.ok() || *v < 0 || *v >= static_cast<int64_t>(adj.size())) continue;
      owned[s][static_cast<size_t>(*v % kWorkers)].push_back(t);
      deltas[s].push_back(std::move(*d));
    }
  }
  rex::CheckpointStore::Options store_options;
  store_options.num_workers = kWorkers;
  store_options.diff_payloads = true;
  rex::CheckpointStore fresh(store_options);
  const std::vector<int> replicas = {0, 1, 2};
  const int64_t put0 = NowNanos();
  for (size_t s = 0; s < owned.size(); ++s) {
    for (int w = 0; w < kWorkers; ++w) {
      (void)fresh.Put(*fp, static_cast<int>(s), w, replicas,
                      owned[s][static_cast<size_t>(w)]);
    }
  }
  (*L)["storage.ckpt_put_ms"] = Ms(NowNanos() - put0);

  double raw_bytes = 0;
  int64_t enc_ns = 0, dec_ns = 0;
  for (int w = 0; w < kWorkers; ++w) {
    std::string prev;
    for (size_t s = 0; s < owned.size(); ++s) {
      std::string cur = rex::SerializeTuples(owned[s][static_cast<size_t>(w)]);
      if (!prev.empty()) {
        const int64_t t0 = NowNanos();
        std::string enc = rex::DeltaCodecEncode(prev, cur);
        const int64_t t1 = NowNanos();
        auto dec = rex::DeltaCodecDecode(prev, enc, cur.size() + 4096);
        dec_ns += NowNanos() - t1;
        enc_ns += t1 - t0;
        raw_bytes += static_cast<double>(cur.size());
      }
      prev = std::move(cur);
    }
  }
  (*L)["codec.encode_mb_per_s"] =
      enc_ns > 0 ? raw_bytes / 1e6 / Sec(enc_ns) : 0;
  (*L)["codec.decode_mb_per_s"] =
      dec_ns > 0 ? raw_bytes / 1e6 / Sec(dec_ns) : 0;

  // The per-edge contribution stream of the largest Δ set.
  size_t largest = 0;
  for (size_t s = 0; s < deltas.size(); ++s) {
    if (deltas[s].size() > deltas[largest].size()) largest = s;
  }
  rex::DeltaVec stream;
  if (!deltas.empty()) {
    for (const rex::Delta& d : deltas[largest]) {
      const auto& nbrs = adj[static_cast<size_t>(d.tuple.field(0).AsInt())];
      auto x = d.tuple.field(1).ToDouble();
      if (!x.ok() || nbrs.empty()) continue;
      for (int64_t w : nbrs) {
        const double deg = static_cast<double>(nbrs.size());
        rex::Value payload = pagerank
                                 ? rex::Value(kDamping * *x / deg)
                                 : rex::Value(static_cast<int64_t>(*x) + 1);
        stream.push_back(
            rex::Delta::Update(rex::Tuple{rex::Value(w), payload}));
      }
    }
  }
  if (stream.empty()) return;
  const double n = static_cast<double>(stream.size());
  rex::CoalesceOptions co;
  co.key_fields = {0};
  co.dedupe_idempotent = !pagerank;  // SSSP's plan declares min-merge dedupe
  co.pack_runs = true;
  co.columnar = true;
  rex::DeltaCoalescer coalescer(co);
  rex::CoalesceStats stats;
  auto folded = coalescer.Coalesce(stream, &stats);
  (*L)["coalesce.fold_ratio"] =
      folded.ok() ? static_cast<double>(folded->size()) / n : 0;
  const double copy_ns = NanosPerCall([&] {
    rex::DeltaVec copy = stream;
    (void)copy;
  });
  const double coalesce_ns = NanosPerCall([&] {
    rex::CoalesceStats s;
    (void)coalescer.Coalesce(stream, &s);
  });
  (*L)["coalesce.ns_per_delta"] = std::max(0.0, coalesce_ns - copy_ns) / n;
  (*L)["columnar.convert_ns_per_row"] =
      NanosPerCall([&] { (void)rex::DeltaBatch::FromDeltas(stream); }) / n;
  std::string bytes = rex::SerializeDeltas(stream);
  (*L)["serde.encode_ns_per_delta"] =
      NanosPerCall([&] { (void)rex::SerializeDeltas(stream); }) / n;
  (*L)["serde.decode_ns_per_delta"] =
      NanosPerCall([&] { (void)rex::DeserializeDeltas(bytes); }) / n;
}

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Algo { kPageRank, kSssp };

/// Phase boundaries of a repetition at which the host's speed is probed.
enum Probe { kBeforeClean, kAfterClean, kAfterUpdates, kAfterCrash, kProbes };

/// One repetition's measured values.
struct RepTimes {
  double setup_s = 0;
  double converge_s = 0;
  double crash_s = 0;
  double cpu_s = 0;
  std::vector<double> update_ms;
  /// The workload's single-threaded reference time (ms per call) at each
  /// probe point.
  double ref_ms[kProbes] = {};
};

/// The workload interface driven by the run loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Operations one repetition attempts (query runs + update epochs).
  virtual int OpsPerRep() const = 0;
  /// Repetition `rep` (0 = warm-up). Every repetition attempts the same
  /// operations; each draws its own update stream from (seed, rep). Returns
  /// false if an operation failed (the rest of the repetition is then
  /// skipped and counted failed).
  virtual bool RunRep(int rep, SpanRecorder* rec, Layers* layers,
                      Report* report, RepTimes* t) = 0;
  /// One converge without output checks with the given config (traced-mode
  /// overhead estimates); returns seconds, or a negative value on failure.
  virtual double ConvergeOnce(bool profile_operators, SpanRecorder* rec) = 0;

 protected:
  /// One call of the workload's single-threaded reference on its base graph
  /// (the benchmark's own code, so no change to the program moves it).
  virtual void ReferenceOnce() = 0;

  /// Median time of one ReferenceOnce over at least 8 calls and 40 ms. The
  /// host's speed drifts by up to 1.7x over minutes; timing the reference
  /// next to each engine phase lets the end-to-end metrics divide it out.
  double ReferenceMs() {
    std::vector<double> ms;
    const int64_t start = NowNanos();
    while (ms.size() < 8 || NowNanos() - start < 40000000) {
      const int64_t t0 = NowNanos();
      ReferenceOnce();
      ms.push_back(Ms(NowNanos() - t0));
    }
    return Median(ms);
  }

  volatile double sink_ = 0;  // keeps ReferenceOnce's result alive
};

/// Cluster + plan for one converge query.
struct Engine {
  std::unique_ptr<Cluster> cluster;
  rex::PlanSpec plan;
};

rex::Result<Engine> SetUpEngine(Algo algo, const GraphData& g,
                                const rex::EngineConfig& config,
                                SpanRecorder* rec) {
  Scoped all(rec, "setup");
  Engine e;
  {
    Scoped s(rec, "setup.cluster");
    e.cluster = std::make_unique<Cluster>(config);
  }
  {
    Scoped s(rec, "setup.start");
    REX_RETURN_NOT_OK(e.cluster->Start());
  }
  {
    Scoped s(rec, "setup.table_load");
    REX_RETURN_NOT_OK(rex::LoadGraphTables(e.cluster.get(), g));
  }
  Scoped s(rec, "setup.plan");
  if (algo == Algo::kPageRank) {
    REX_RETURN_NOT_OK(rex::RegisterPageRankUdfs(e.cluster->udfs(), PrConfig()));
    REX_ASSIGN_OR_RETURN(e.plan, rex::BuildPageRankDeltaPlan(PrConfig()));
  } else {
    REX_RETURN_NOT_OK(rex::RegisterSsspUdfs(e.cluster->udfs(), SpConfig()));
    REX_ASSIGN_OR_RETURN(e.plan, rex::BuildSsspDeltaPlan(SpConfig()));
  }
  return e;
}

/// Checks PageRank run from zero (no base updates applied).
std::string CheckPageRankFresh(const std::vector<double>& ranks,
                               const std::vector<double>& ref, int strata) {
  return CheckPageRankFromBelow(
      ranks, ref,
      PageRankDropBound(kDamping, kThreshold, static_cast<int64_t>(ref.size()),
                        strata));
}

/// Checks PageRank maintained through `mutations` signed edge mutations over
/// `strata` strata in total. Besides each vertex's dropped sub-threshold
/// diffs, a mutated source's seed retracts and re-asserts its whole rank,
/// not only the part it had propagated; that mismatch is at most twice the
/// source's own dropped diffs per mutation, hence N + 2 * mutations.
std::string CheckPageRankMaintained(const std::vector<double>& ranks,
                                    const std::vector<double>& ref,
                                    int64_t strata, int64_t mutations) {
  const int64_t n = static_cast<int64_t>(ref.size());
  return CheckPageRankWithin(
      ranks, ref,
      PageRankDropBound(kDamping, kThreshold, n + 2 * mutations, strata));
}

/// sssp_converge: a clean query to fixpoint, a stream of incremental base
/// updates on the converged query, and a query with worker 1 crashed
/// mid-run and recovered incrementally.
class SsspWorkload : public Workload {
 public:
  static constexpr int64_t kVertices = 33000;
  static constexpr int64_t kEdges = 480000;  // R-MAT edges, before wrap edges
  static constexpr int kUpdateEpochs = 16;
  static constexpr uint64_t kTag = 0x5353;

  explicit SsspWorkload(uint64_t seed) : seed_(seed) {
    graph_ = GenerateRmat(kVertices, kEdges, DeriveSeed(kGraphSeed, kTag));
    adj_ = OutAdjacency(graph_);
    ref_ = BfsDistances(adj_, 0);
  }

  int OpsPerRep() const override { return 2 + kUpdateEpochs; }

  bool RunRep(int rep, SpanRecorder* rec, Layers* layers, Report* report,
              RepTimes* t) override {
    const int64_t n = graph_.num_vertices;
    const auto stream =
        GenerateMutationStream(graph_, kUpdateEpochs, kBatchSize,
                               kBatchDeletes, StreamSeed(seed_, kTag, rep));
    Adj after = adj_;
    for (const auto& batch : stream) ApplyBatch(&after, batch);
    const std::vector<int64_t> ref_after = BfsDistances(after, 0);
    int ops_done = 0;
    auto fail = [&](const std::string& what, const Status& st) {
      std::fprintf(stderr, "operation failed: %s: %s\n", what.c_str(),
                   st.ToString().c_str());
      report->attempted += OpsPerRep();
      report->failed += OpsPerRep() - ops_done;
      return false;
    };
    const int64_t setup0 = NowNanos();
    auto engine = SetUpEngine(Algo::kSssp, graph_, BenchConfig(true), rec);
    t->setup_s = Sec(NowNanos() - setup0);
    if (!engine.ok()) return fail("setup", engine.status());
    Cluster* cluster = engine->cluster.get();

    // Clean query to fixpoint.
    t->ref_ms[kBeforeClean] = ReferenceMs();
    const int64_t msgs0 =
        cluster->network()->metrics().Value(rex::metrics::kMessagesSent);
    const int64_t bp0 =
        cluster->network()->metrics().Value(rex::metrics::kBackpressureBlocks);
    double cpu0 = CpuSeconds();
    int64_t t0 = NowNanos();
    rex::Result<QueryRunResult> run = [&] {
      Scoped s(rec, "cluster.run");
      return cluster->Run(engine->plan);
    }();
    t->converge_s = Sec(NowNanos() - t0);
    t->cpu_s += CpuSeconds() - cpu0;
    if (!run.ok()) return fail("converge", run.status());
    ++ops_done;
    rex::Result<std::vector<int64_t>> dist =
        rex::DistancesFromState(run->fixpoint_state, n);
    if (!dist.ok()) return fail("converge result", dist.status());
    report->Check(CheckSssp(*dist, ref_));
    if (crash_before_ < 0) crash_before_ = CrashStratum(*run);
    if (layers != nullptr) {
      const rex::MetricsRegistry& net = cluster->network()->metrics();
      RunLayers(*run, t->converge_s * 1e3,
                net.Value(rex::metrics::kMessagesSent) - msgs0,
                net.Value(rex::metrics::kBackpressureBlocks) - bp0, layers);
      DataLayers(false, cluster, engine->plan, adj_, run->strata_executed,
                 layers);
    }
    t->ref_ms[kAfterClean] = ReferenceMs();

    // Incremental base updates on the converged query.
    rex::Adjacency mirror = rex::AdjacencyFromGraph(graph_);
    std::vector<double> build_ms, query_ms, overhead_ms, strata_n, tuples_n;
    for (const auto& batch : stream) {
      cpu0 = CpuSeconds();
      t0 = NowNanos();
      rex::Result<Cluster::BaseUpdate> update = [&] {
        Scoped s(rec, "ivm.build");
        return rex::BuildSsspBaseUpdate(engine->plan, batch, *dist, mirror,
                                        0);
      }();
      const int64_t built = NowNanos();
      if (!update.ok()) return fail("ivm build", update.status());
      rex::Result<QueryRunResult> applied = [&] {
        Scoped s(rec, "cluster.apply_base_update");
        return cluster->ApplyBaseUpdate(*update);
      }();
      if (!applied.ok()) return fail("base update", applied.status());
      dist = rex::DistancesFromState(applied->fixpoint_state, n);
      if (!dist.ok()) return fail("base update result", dist.status());
      const int64_t done = NowNanos();
      t->update_ms.push_back(Ms(done - t0));
      t->cpu_s += CpuSeconds() - cpu0;
      ++ops_done;
      rex::ApplyEdgeMutations(&mirror, batch);
      build_ms.push_back(Ms(built - t0));
      query_ms.push_back(applied->profile.total_seconds * 1e3);
      overhead_ms.push_back(Ms(done - t0) - build_ms.back() - query_ms.back());
      strata_n.push_back(applied->strata_executed);
      tuples_n.push_back(static_cast<double>(applied->profile.tuples_sent));
    }
    report->Check(CheckSssp(*dist, ref_after));
    t->ref_ms[kAfterUpdates] = ReferenceMs();
    if (layers != nullptr) {
      (*layers)["ivm.build_ms"] = Median(build_ms);
      (*layers)["ivm.strata_per_epoch"] = Median(strata_n);
      (*layers)["ivm.tuples_per_epoch"] = Median(tuples_n);
      (*layers)["serve.query_update_ms"] = Median(query_ms);
      (*layers)["serve.epoch_overhead_ms"] = Median(overhead_ms);
    }
    engine->cluster.reset();

    // The same query with a worker crashed mid-run.
    auto crashed = SetUpEngine(Algo::kSssp, graph_, BenchConfig(true), rec);
    if (!crashed.ok()) return fail("crash setup", crashed.status());
    rex::QueryOptions options;
    options.failure.worker = kCrashWorker;
    options.failure.before_stratum = crash_before_;
    options.failure.strategy = rex::RecoveryStrategy::kIncremental;
    cpu0 = CpuSeconds();
    t0 = NowNanos();
    rex::Result<QueryRunResult> crash_run = [&] {
      Scoped s(rec, "cluster.run_crashed");
      return crashed->cluster->Run(crashed->plan, options);
    }();
    t->crash_s = Sec(NowNanos() - t0);
    t->cpu_s += CpuSeconds() - cpu0;
    if (!crash_run.ok()) return fail("crashed converge", crash_run.status());
    ++ops_done;
    dist = rex::DistancesFromState(crash_run->fixpoint_state, n);
    if (!dist.ok()) return fail("crashed result", dist.status());
    t->ref_ms[kAfterCrash] = ReferenceMs();
    report->Check(CheckRecovered(crash_run->recoveries));
    report->Check(CheckSssp(*dist, ref_));
    if (layers != nullptr) {
      double pass_ms = 0;
      for (const auto& pass : crash_run->profile.recovery_passes) {
        pass_ms += pass.seconds * 1e3;
      }
      (*layers)["recovery.pass_ms"] = pass_ms;
      (*layers)["recovery.detection_rounds"] =
          static_cast<double>(crash_run->profile.detection_latency_ticks);
      (*layers)["recovery.refetch_mb"] =
          static_cast<double>(crash_run->profile.recovery_refetch_bytes) / 1e6;
    }
    report->attempted += OpsPerRep();
    return true;
  }

  double ConvergeOnce(bool profile_operators, SpanRecorder* rec) override {
    auto engine =
        SetUpEngine(Algo::kSssp, graph_, BenchConfig(profile_operators), rec);
    if (!engine.ok()) return -1;
    const int64_t t0 = NowNanos();
    rex::Result<QueryRunResult> run = [&] {
      Scoped s(rec, "cluster.run");
      return engine->cluster->Run(engine->plan);
    }();
    return run.ok() ? Sec(NowNanos() - t0) : -1;
  }

 private:
  void ReferenceOnce() override {
    sink_ = sink_ + static_cast<double>(BfsDistances(adj_, 0).back());
  }

  /// Worker 1 dies before the stratum with the largest frontier.
  static int CrashStratum(const QueryRunResult& run) {
    int64_t peak = -1;
    int at = 1;
    for (const auto& s : run.profile.strata) {
      if (s.delta_tuples > peak) {
        peak = s.delta_tuples;
        at = s.stratum;
      }
    }
    return std::max(1, at);
  }

  GraphData graph_;
  Adj adj_;
  uint64_t seed_;
  std::vector<int64_t> ref_;
  int crash_before_ = -1;
};

/// update_stream: PageRank and SSSP standing queries registered through a
/// ServingSession; one client applies 8-edge batches in a closed loop and
/// drains both subscriber cursors after every epoch.
class StreamWorkload : public Workload {
 public:
  static constexpr int64_t kVertices = 825;
  static constexpr int64_t kEdges = 12000;  // R-MAT edges, before wrap edges
  static constexpr int kEpochs = 30;
  static constexpr int kCheckEvery = 10;
  static constexpr uint64_t kTag = 0x5553;

  explicit StreamWorkload(uint64_t seed) : seed_(seed) {
    graph_ = GenerateRmat(kVertices, kEdges, DeriveSeed(kGraphSeed, kTag));
    adj_ = OutAdjacency(graph_);
  }

  int OpsPerRep() const override { return 4 + kEpochs; }

  bool RunRep(int rep, SpanRecorder* rec, Layers* layers, Report* report,
              RepTimes* t) override {
    const int64_t n = graph_.num_vertices;
    stream_ = GenerateMutationStream(graph_, kEpochs, kBatchSize,
                                     kBatchDeletes, StreamSeed(seed_, kTag, rep));
    refs_.clear();
    Adj mirror = adj_;
    refs_[0] = {PowerIterationPageRank(mirror, kDamping),
                BfsDistances(mirror, 0)};
    for (int e = 1; e <= kEpochs; ++e) {
      ApplyBatch(&mirror, stream_[static_cast<size_t>(e - 1)]);
      if (e % kCheckEvery == 0 || e == kEpochs) {
        refs_[e] = {PowerIterationPageRank(mirror, kDamping),
                    BfsDistances(mirror, 0)};
      }
    }
    int ops_done = 0;
    auto fail = [&](const std::string& what, const Status& st) {
      std::fprintf(stderr, "operation failed: %s: %s\n", what.c_str(),
                   st.ToString().c_str());
      report->attempted += OpsPerRep();
      report->failed += OpsPerRep() - ops_done;
      return false;
    };
    int64_t build_ns = 0;
    const int64_t setup0 = NowNanos();
    auto serving = SetUp(BenchConfig(true), rec, &build_ns);
    t->setup_s = Sec(NowNanos() - setup0);
    if (!serving.ok()) return fail("setup", serving.status());
    rex::ServingSession* session = serving->session.get();

    t->ref_ms[kBeforeClean] = ReferenceMs();
    double cpu0 = CpuSeconds();
    int64_t t0 = NowNanos();
    rex::Result<int> pr_id = -1;
    rex::Result<int> sp_id = -1;
    {
      Scoped s(rec, "serve.register");
      pr_id = session->Register(std::move(serving->pagerank));
      if (pr_id.ok()) sp_id = session->Register(std::move(serving->sssp));
    }
    t->converge_s = Sec(NowNanos() - t0);
    t->cpu_s += CpuSeconds() - cpu0;
    if (!pr_id.ok()) return fail("register pagerank", pr_id.status());
    ++ops_done;
    if (!sp_id.ok()) return fail("register sssp", sp_id.status());
    ++ops_done;
    if (crash_before_ < 0) {
      const int strata = session->epoch_profiles().front().strata_executed;
      crash_before_ = std::max(1, strata * 7 / 8);
    }
    auto pr_sub = session->Subscribe(*pr_id);
    auto sp_sub = session->Subscribe(*sp_id);
    if (!pr_sub.ok()) return fail("subscribe", pr_sub.status());
    if (!sp_sub.ok()) return fail("subscribe", sp_sub.status());
    std::vector<rex::DeltaVec> pr_batches, sp_batches;
    auto drain = [&](int sub, std::vector<rex::DeltaVec>* out) {
      int64_t rows = 0;
      while (auto b = session->Poll(sub)) {
        rows += static_cast<int64_t>(b->diffs.size());
        out->push_back(std::move(b->diffs));
      }
      return rows;
    };
    drain(*pr_sub, &pr_batches);
    drain(*sp_sub, &sp_batches);
    t->ref_ms[kAfterClean] = ReferenceMs();

    std::vector<double> build_ms, query_ms, overhead_ms, poll_ms, strata_n,
        tuples_n, rows_n;
    for (int e = 1; e <= kEpochs; ++e) {
      const size_t profiles_before = session->epoch_profiles().size();
      build_ns = 0;
      cpu0 = CpuSeconds();
      t0 = NowNanos();
      Status st;
      {
        Scoped s(rec, "serve.apply_update");
        st = session->ApplyUpdate(stream_[static_cast<size_t>(e - 1)]);
      }
      if (!st.ok()) return fail("epoch " + std::to_string(e), st);
      const int64_t applied = NowNanos();
      int64_t rows = 0;
      {
        Scoped s(rec, "serve.poll");
        rows += drain(*pr_sub, &pr_batches);
        rows += drain(*sp_sub, &sp_batches);
      }
      const int64_t done = NowNanos();
      t->update_ms.push_back(Ms(done - t0));
      t->cpu_s += CpuSeconds() - cpu0;
      ++ops_done;

      double q_ms = 0, strata = 0, tuples = 0;
      const auto& profiles = session->epoch_profiles();
      for (size_t i = profiles_before; i < profiles.size(); ++i) {
        q_ms += profiles[i].total_seconds * 1e3;
        strata += profiles[i].strata_executed;
        tuples += static_cast<double>(profiles[i].tuples_sent);
      }
      build_ms.push_back(Ms(build_ns));
      query_ms.push_back(q_ms);
      overhead_ms.push_back(Ms(applied - t0) - q_ms - Ms(build_ns));
      poll_ms.push_back(Ms(done - applied));
      strata_n.push_back(strata);
      tuples_n.push_back(tuples);
      rows_n.push_back(static_cast<double>(rows));
      if (refs_.count(e) != 0) CheckEpoch(*session, *pr_id, *sp_id, e, report);
    }
    auto pr_now = session->CurrentResult(*pr_id);
    auto sp_now = session->CurrentResult(*sp_id);
    if (!pr_now.ok()) return fail("current result", pr_now.status());
    if (!sp_now.ok()) return fail("current result", sp_now.status());
    report->Check(CheckSubscriberFold(pr_batches, *pr_now));
    report->Check(CheckSubscriberFold(sp_batches, *sp_now));
    t->ref_ms[kAfterUpdates] = ReferenceMs();
    if (layers != nullptr) {
      (*layers)["ivm.build_ms"] = Median(build_ms);
      (*layers)["ivm.strata_per_epoch"] = Median(strata_n);
      (*layers)["ivm.tuples_per_epoch"] = Median(tuples_n);
      (*layers)["serve.query_update_ms"] = Median(query_ms);
      (*layers)["serve.epoch_overhead_ms"] = Median(overhead_ms);
      (*layers)["serve.poll_ms"] = Median(poll_ms);
      (*layers)["serve.diff_rows_per_epoch"] = Median(rows_n);
      (*layers)["serve.failovers"] = static_cast<double>(
          session->metrics()->Value(rex::metrics::kServeEpochFailovers));
    }
    serving->session.reset();
    serving->cluster.reset();

    // Registration with worker 1 crashed during the PageRank query.
    auto crashed = SetUp(BenchConfig(true), rec, &build_ns);
    if (!crashed.ok()) return fail("crash setup", crashed.status());
    crashed->pagerank.options.failure.worker = kCrashWorker;
    crashed->pagerank.options.failure.before_stratum = crash_before_;
    crashed->pagerank.options.failure.strategy =
        rex::RecoveryStrategy::kIncremental;
    session = crashed->session.get();
    cpu0 = CpuSeconds();
    t0 = NowNanos();
    {
      Scoped s(rec, "serve.register_crashed");
      pr_id = session->Register(std::move(crashed->pagerank));
      if (pr_id.ok()) sp_id = session->Register(std::move(crashed->sssp));
    }
    t->crash_s = Sec(NowNanos() - t0);
    t->cpu_s += CpuSeconds() - cpu0;
    if (!pr_id.ok()) return fail("crashed register pagerank", pr_id.status());
    ++ops_done;
    if (!sp_id.ok()) return fail("crashed register sssp", sp_id.status());
    ++ops_done;
    t->ref_ms[kAfterCrash] = ReferenceMs();
    const rex::QueryProfile& pr_profile = session->epoch_profiles().front();
    report->Check(CheckRecovered(pr_profile.recoveries));
    auto pr_rows = session->CurrentResult(*pr_id);
    auto sp_rows = session->CurrentResult(*sp_id);
    if (!pr_rows.ok()) return fail("current result", pr_rows.status());
    if (!sp_rows.ok()) return fail("current result", sp_rows.status());
    const Reference& ref0 = refs_.at(0);
    report->Check(CheckPageRankFresh(RanksFromRows(*pr_rows, n), ref0.ranks,
                                     pr_profile.strata_executed));
    report->Check(CheckSssp(DistancesFromRows(*sp_rows, n), ref0.dist));
    if (layers != nullptr) {
      double pass_ms = 0;
      for (const auto& pass : pr_profile.recovery_passes) {
        pass_ms += pass.seconds * 1e3;
      }
      (*layers)["recovery.pass_ms"] = pass_ms;
      (*layers)["recovery.detection_rounds"] =
          static_cast<double>(pr_profile.detection_latency_ticks);
      (*layers)["recovery.refetch_mb"] =
          static_cast<double>(pr_profile.recovery_refetch_bytes) / 1e6;
      PlainRunLayers(layers);
    }
    report->attempted += OpsPerRep();
    return true;
  }

  double ConvergeOnce(bool profile_operators, SpanRecorder* rec) override {
    int64_t build_ns = 0;
    auto serving = SetUp(BenchConfig(profile_operators), rec, &build_ns);
    if (!serving.ok()) return -1;
    const int64_t t0 = NowNanos();
    Scoped s(rec, "serve.register");
    auto pr = serving->session->Register(std::move(serving->pagerank));
    if (!pr.ok()) return -1;
    auto sp = serving->session->Register(std::move(serving->sssp));
    return sp.ok() ? Sec(NowNanos() - t0) : -1;
  }

 private:
  void ReferenceOnce() override {
    sink_ = sink_ + PowerIterationPageRank(adj_, kDamping).back();
  }

  struct Serving {
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<rex::ServingSession> session;  // destroyed first
    rex::StandingQuerySpec pagerank, sssp;
  };

  /// Cluster, tables, UDFs and both standing-query specs, with each spec's
  /// build_update wrapped to time (and trace) the ivm builders.
  rex::Result<Serving> SetUp(const rex::EngineConfig& config, SpanRecorder* rec,
                             int64_t* build_ns) {
    Scoped all(rec, "setup");
    Serving sv;
    {
      Scoped s(rec, "setup.cluster");
      sv.cluster = std::make_unique<Cluster>(config);
    }
    {
      Scoped s(rec, "setup.start");
      REX_RETURN_NOT_OK(sv.cluster->Start());
    }
    {
      Scoped s(rec, "setup.table_load");
      REX_RETURN_NOT_OK(rex::LoadGraphTables(sv.cluster.get(), graph_));
    }
    Scoped s(rec, "setup.plan");
    REX_RETURN_NOT_OK(
        rex::RegisterPageRankUdfs(sv.cluster->udfs(), PrConfig()));
    REX_RETURN_NOT_OK(rex::RegisterSsspUdfs(sv.cluster->udfs(), SpConfig()));
    REX_ASSIGN_OR_RETURN(sv.pagerank,
                         rex::MakePageRankStandingQuery(graph_, PrConfig()));
    REX_ASSIGN_OR_RETURN(sv.sssp,
                         rex::MakeSsspStandingQuery(graph_, SpConfig()));
    for (rex::StandingQuerySpec* spec : {&sv.pagerank, &sv.sssp}) {
      auto inner = spec->build_update;
      spec->build_update = [inner, rec, build_ns](
                               const std::vector<rex::EdgeMutation>& edges) {
        Scoped span(rec, "ivm.build");
        const int64_t t0 = NowNanos();
        auto update = inner(edges);
        *build_ns += NowNanos() - t0;
        return update;
      };
    }
    sv.session = std::make_unique<rex::ServingSession>(sv.cluster.get());
    return sv;
  }

  void CheckEpoch(rex::ServingSession& session, int pr_id, int sp_id, int epoch,
                  Report* report) {
    const int64_t n = graph_.num_vertices;
    auto pr_rows = session.CurrentResult(pr_id);
    auto sp_rows = session.CurrentResult(sp_id);
    if (!pr_rows.ok() || !sp_rows.ok()) {
      report->Check("epoch " + std::to_string(epoch) + ": no current result");
      return;
    }
    int64_t strata = 0;
    for (const auto& p : session.epoch_profiles()) {
      if (p.name.rfind("pagerank", 0) == 0) strata += p.strata_executed;
    }
    const Reference& ref = refs_.at(epoch);
    const int64_t mutations = int64_t{epoch} * kBatchSize;
    for (std::string err :
         {CheckPageRankMaintained(RanksFromRows(*pr_rows, n), ref.ranks,
                                  strata, mutations),
          CheckSssp(DistancesFromRows(*sp_rows, n), ref.dist)}) {
      if (!err.empty()) err = "epoch " + std::to_string(epoch) + ": " + err;
      report->Check(err);
    }
  }

  /// Run-level layers of update_stream come from a plain converge of the
  /// PageRank query on the stream's graph (the session keeps its residents'
  /// checkpoint stores to itself).
  void PlainRunLayers(Layers* layers) {
    SpanRecorder off(false);
    auto engine = SetUpEngine(Algo::kPageRank, graph_, BenchConfig(true), &off);
    if (!engine.ok()) return;
    Cluster* cluster = engine->cluster.get();
    const int64_t t0 = NowNanos();
    auto run = cluster->Run(engine->plan);
    const double ms = Ms(NowNanos() - t0);
    if (!run.ok()) return;
    RunLayers(*run, ms,
              cluster->network()->metrics().Value(rex::metrics::kMessagesSent),
              cluster->network()->metrics().Value(
                  rex::metrics::kBackpressureBlocks),
              layers);
    DataLayers(true, cluster, engine->plan, adj_, run->strata_executed, layers);
  }

  /// References of one state of the stream's graph.
  struct Reference {
    std::vector<double> ranks;
    std::vector<int64_t> dist;
  };

  GraphData graph_;
  Adj adj_;
  uint64_t seed_;
  /// The current repetition's update stream and its references.
  std::vector<std::vector<rex::EdgeMutation>> stream_;
  std::map<int, Reference> refs_;  // epoch -> reference (0 = base graph)
  int crash_before_ = -1;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sssp_converge") {
    return std::make_unique<SsspWorkload>(seed);
  }
  if (name == "update_stream") {
    return std::make_unique<StreamWorkload>(seed);
  }
  return nullptr;
}

/// End-to-end mode: the first repetition is warm-up (its set-up, the first
/// in the process, is the cold set-up), then whole repetitions run until
/// the next one would overrun the budget.
Report RunEndToEnd(Workload* w, const RunOptions& options) {
  Report report;
  SpanRecorder off(false);
  std::vector<RepTimes> reps;
  double setup_s = 0, peak_rss_mb = 0;
  const int64_t start = NowNanos();
  const int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  for (int i = 0;; ++i) {
    const int64_t rep0 = NowNanos();
    RepTimes t;
    const bool ok = w->RunRep(i, &off, nullptr, &report, &t);
    std::fprintf(stderr,
                 "rep %d%s: converge %.4f s, crash %.4f s, cpu %.3f s, "
                 "update p50 %.2f ms over %zu epochs, reference %.3f ms\n",
                 i, i == 0 ? " (warm-up)" : "", t.converge_s, t.crash_s,
                 t.cpu_s, Percentile(t.update_ms, 0.5), t.update_ms.size(),
                 t.ref_ms[kBeforeClean]);
    if (i == 0) {
      // The process's first cluster set-up; input generation (the
      // benchmark's own work) is left out.
      setup_s = t.setup_s;
      // Peak memory of exactly one repetition: later repetitions only add
      // allocator fragmentation, and how many fit depends on speed.
      peak_rss_mb = PeakRssMb();
    } else if (ok) {
      reps.push_back(t);
    }
    const int64_t now = NowNanos();
    const int64_t rep_ns = now - rep0;
    if (i >= 1 && now + rep_ns - start > budget) break;
  }
  // Each phase is divided by the reference time probed at its two ends;
  // CPU time, spent over the whole repetition, by the mean of all probes.
  std::vector<double> converge, crash, cpu, updates;
  std::vector<double> converge_s, crash_s, cpu_s, update_ms, ref_ms;
  for (const RepTimes& t : reps) {
    const double* r = t.ref_ms;
    const double clean_ref = (r[kBeforeClean] + r[kAfterClean]) / 2;
    const double update_ref = (r[kAfterClean] + r[kAfterUpdates]) / 2;
    const double crash_ref = (r[kAfterUpdates] + r[kAfterCrash]) / 2;
    const double rep_ref = (r[kBeforeClean] + r[kAfterClean] +
                            r[kAfterUpdates] + r[kAfterCrash]) /
                           static_cast<double>(kProbes);
    converge.push_back(t.converge_s * 1e3 / clean_ref);
    crash.push_back(t.crash_s * 1e3 / crash_ref);
    cpu.push_back(t.cpu_s * 1e3 / rep_ref);
    for (double ms : t.update_ms) updates.push_back(ms / update_ref);
    converge_s.push_back(t.converge_s);
    crash_s.push_back(t.crash_s);
    cpu_s.push_back(t.cpu_s);
    update_ms.insert(update_ms.end(), t.update_ms.begin(), t.update_ms.end());
    ref_ms.push_back(rep_ref);
  }
  report.Metric("setup_s", setup_s, "s");
  report.Metric("converge_vs_ref", Median(converge), "x");
  report.Metric("crash_converge_vs_ref", Median(crash), "x");
  report.Metric("cpu_vs_ref", Median(cpu), "x");
  report.Metric("update_p50_vs_ref", Percentile(updates, 0.5), "x");
  report.Metric("update_p90_vs_ref", Percentile(updates, 0.9), "x");
  report.Metric("peak_rss_mb", peak_rss_mb, "MB");
  std::fprintf(stderr,
               "measured %zu repetitions (%zu update samples) after warm-up\n"
               "raw medians: converge %.4f s, crash %.4f s, cpu %.3f s, "
               "update p50 %.2f ms, p90 %.2f ms, reference %.3f ms\n",
               reps.size(), updates.size(), Median(converge_s),
               Median(crash_s), Median(cpu_s), Percentile(update_ms, 0.5),
               Percentile(update_ms, 0.9), Median(ref_ms));
  return report;
}

void WriteSpans(const SpanRecorder& rec, const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  out << "[\n";
  const auto& spans = rec.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out << "  {\"id\": " << i << ", \"name\": \"" << spans[i].name
        << "\", \"start_ns\": " << spans[i].start_ns
        << ", \"end_ns\": " << spans[i].end_ns
        << ", \"parent\": " << spans[i].parent << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

/// Traced mode: one warm-up repetition, one traced repetition that fills
/// the layer metrics, then alternating untraced / traced / profiling-off
/// converges for the rest of the budget (the overhead estimates).
Report RunTraced(Workload* w, const RunOptions& options) {
  Report report;
  SpanRecorder off(false);
  SpanRecorder rec(true);
  Layers layers;
  for (const LayerSpec& spec : kLayerMetrics) layers[spec.name] = 0;
  const int64_t start = NowNanos();
  RepTimes warm, traced;
  w->RunRep(0, &off, nullptr, &report, &warm);
  w->RunRep(1, &rec, &layers, &report, &traced);
  const std::map<std::string, double> self = rec.SelfMillis();
  auto self_ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  layers["setup.table_load_ms"] = self_ms("setup.table_load");
  layers["setup.start_ms"] = self_ms("setup.start");

  std::vector<double> plain, with_spans, no_profile;
  const int64_t budget = static_cast<int64_t>(options.seconds * 1e9);
  do {
    plain.push_back(w->ConvergeOnce(true, &off));
    with_spans.push_back(w->ConvergeOnce(true, &rec));
    no_profile.push_back(w->ConvergeOnce(false, &off));
    report.attempted += 3;
  } while (NowNanos() - start < budget);
  for (const auto* v : {&plain, &with_spans, &no_profile}) {
    for (double x : *v) {
      if (x < 0) ++report.failed;
    }
  }
  layers["obs.profile_cost_ms"] = (Median(plain) - Median(no_profile)) * 1e3;
  layers["trace.overhead_ms"] = (Median(with_spans) - Median(plain)) * 1e3;
  for (const LayerSpec& spec : kLayerMetrics) {
    report.Metric(spec.name, layers[spec.name], spec.unit);
  }
  if (!options.trace_out.empty()) WriteSpans(rec, options.trace_out);
  return report;
}

}  // namespace

Report RunWorkload(const RunOptions& options, bool* known) {
  std::unique_ptr<Workload> w = MakeWorkload(options.workload, options.seed);
  *known = w != nullptr;
  if (w == nullptr) return Report{};
  return options.trace ? RunTraced(w.get(), options)
                       : RunEndToEnd(w.get(), options);
}

}  // namespace perfbench
