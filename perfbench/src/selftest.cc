// Self-test of the benchmark's own references and checks:
//  - the BFS and power-iteration references agree with the program's
//    single-threaded oracles in src/algos/reference;
//  - every output check passes on real engine outputs and fails on a
//    corrupted copy of them (one distance off by one, one rank scaled by
//    1.01, one dropped diff batch, a crashed run without a recovery pass);
//  - the seeded inputs are deterministic and keep their stated shape.
// Build with the benchmark (perfbench/CMakeLists.txt) and run
// `ctest --test-dir .bench_build/perfbench` or the rexbench_selftest binary.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/sssp.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/serve.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void ExpectPass(const std::string& err, const std::string& what) {
  Expect(err.empty(), what + (err.empty() ? "" : " (" + err + ")"));
}

void ExpectFail(const std::string& err, const std::string& what) {
  Expect(!err.empty(), what + " is rejected");
}

constexpr double kDamping = 0.85;
constexpr double kThreshold = 1e-8;

rex::EngineConfig Config() {
  rex::EngineConfig config;
  config.num_workers = 3;
  return config;
}

void ReferencesMatchProgramOracles() {
  for (uint64_t seed : {1, 2, 3}) {
    rex::GraphData g = GenerateRmat(500, 6000, seed);
    Adj adj = OutAdjacency(g);
    const std::string tag = " (seed " + std::to_string(seed) + ")";
    Expect(BfsDistances(adj, 0) == rex::ReferenceSssp(g, 0),
           "BFS equals ReferenceSssp" + tag);
    std::vector<double> ours = PowerIterationPageRank(adj, kDamping);
    std::vector<double> theirs =
        rex::ReferencePageRank(g, kDamping, 1e-12, 100000);
    double max_diff = 0;
    for (size_t v = 0; v < ours.size(); ++v) {
      max_diff = std::max(max_diff, std::fabs(ours[v] - theirs[v]));
    }
    Expect(max_diff < 1e-9, "power iteration equals ReferencePageRank" + tag);
  }
}

void InputsAreSeededAndShaped() {
  rex::GraphData a = GenerateRmat(825, 12000, 7);
  rex::GraphData b = GenerateRmat(825, 12000, 7);
  rex::GraphData c = GenerateRmat(825, 12000, 8);
  Expect(a.edges == b.edges, "same seed gives the same graph");
  Expect(a.edges != c.edges, "another seed gives another graph");
  Adj adj = OutAdjacency(a);
  bool all_out = true;
  for (const auto& nbrs : adj) all_out = all_out && !nbrs.empty();
  Expect(all_out, "every out-degree is >= 1");

  auto stream = GenerateMutationStream(a, 60, 8, 3, 9);
  bool shaped = stream.size() == 60;
  for (const auto& batch : stream) {
    int deletes = 0;
    std::set<std::pair<int64_t, int64_t>> seen;
    for (const auto& e : batch) {
      deletes += e.weight < 0;
      shaped = shaped && seen.insert({e.src, e.dst}).second && e.src != e.dst;
      const auto& nbrs = adj[static_cast<size_t>(e.src)];
      const bool present =
          std::find(nbrs.begin(), nbrs.end(), e.dst) != nbrs.end();
      shaped = shaped && present == (e.weight < 0);
      ApplyBatch(&adj, {e});
      shaped = shaped && !adj[static_cast<size_t>(e.src)].empty();
    }
    shaped = shaped && batch.size() == 8 && deletes == 3;
  }
  Expect(shaped, "mutation batches: 3 deletes of live edges, 5 new inserts, "
                 "no source left without out-edges");
}

void ConvergedOutputsAndCorruptions() {
  rex::GraphData g = GenerateRmat(400, 5000, 11);
  Adj adj = OutAdjacency(g);

  rex::Cluster cluster(Config());
  if (!rex::LoadGraphTables(&cluster, g).ok()) {
    Expect(false, "load tables");
    return;
  }
  rex::PageRankConfig pr;
  pr.threshold = kThreshold;
  (void)rex::RegisterPageRankUdfs(cluster.udfs(), pr);
  (void)rex::RegisterSsspUdfs(cluster.udfs(), rex::SsspConfig{});

  // SSSP: exact BFS distances; one distance off by one is caught.
  auto sssp_plan = rex::BuildSsspDeltaPlan(rex::SsspConfig{});
  auto sssp_run = cluster.Run(*sssp_plan);
  Expect(sssp_run.ok(), "sssp runs");
  if (sssp_run.ok()) {
    auto dist = rex::DistancesFromState(sssp_run->fixpoint_state, 400);
    const auto ref = BfsDistances(adj, 0);
    ExpectPass(CheckSssp(*dist, ref), "sssp equals BFS");
    auto bad = *dist;
    for (auto& d : bad) {
      if (d > 0) {
        d += 1;
        break;
      }
    }
    ExpectFail(CheckSssp(bad, ref), "sssp with one distance off by one");
    auto unreachable = *dist;
    unreachable[1] = -1;
    if ((*dist)[1] != -1) {
      ExpectFail(CheckSssp(unreachable, ref),
                 "sssp with a vertex made unreachable");
    }
  }

  // PageRank from zero: bounded from below; one rank x1.01 is caught.
  auto pr_plan = rex::BuildPageRankDeltaPlan(pr);
  auto pr_run = cluster.Run(*pr_plan);
  Expect(pr_run.ok(), "pagerank runs");
  if (pr_run.ok()) {
    auto ranks = rex::RanksFromState(pr_run->fixpoint_state, 400);
    const auto ref = PowerIterationPageRank(adj, kDamping);
    const double bound =
        PageRankDropBound(kDamping, kThreshold, 400, pr_run->strata_executed);
    ExpectPass(CheckPageRankFromBelow(*ranks, ref, bound),
               "pagerank within its drop bound, from below");
    ExpectPass(CheckPageRankWithin(*ranks, ref, bound),
               "pagerank within its drop bound, both sides");
    auto bad = *ranks;
    bad[static_cast<size_t>(std::max_element(bad.begin(), bad.end()) -
                            bad.begin())] *= 1.01;
    ExpectFail(CheckPageRankFromBelow(bad, ref, bound),
               "pagerank with one rank x1.01 (from below)");
    ExpectFail(CheckPageRankWithin(bad, ref, bound),
               "pagerank with one rank x1.01 (both sides)");
    auto low = *ranks;
    low[0] *= 0.99;
    ExpectFail(CheckPageRankFromBelow(low, ref, bound),
               "pagerank with one rank x0.99 (mass deficit)");
  }

  // A crashed run must report a recovery pass.
  ExpectPass(CheckRecovered(1), "one recovery pass");
  ExpectFail(CheckRecovered(0), "a crashed run without a recovery pass");
}

void SubscriberFoldAndCorruption() {
  rex::GraphData g = GenerateRmat(300, 3000, 21);
  rex::Cluster cluster(Config());
  (void)rex::LoadGraphTables(&cluster, g);
  rex::PageRankConfig pr;
  pr.threshold = kThreshold;
  (void)rex::RegisterPageRankUdfs(cluster.udfs(), pr);
  (void)rex::RegisterSsspUdfs(cluster.udfs(), rex::SsspConfig{});
  rex::ServingSession session(&cluster);
  auto pr_spec = rex::MakePageRankStandingQuery(g, pr);
  auto sp_spec = rex::MakeSsspStandingQuery(g, rex::SsspConfig{});
  auto pr_id = session.Register(std::move(*pr_spec));
  auto sp_id = session.Register(std::move(*sp_spec));
  Expect(pr_id.ok() && sp_id.ok(), "standing queries register");
  if (!pr_id.ok() || !sp_id.ok()) return;
  auto pr_sub = session.Subscribe(*pr_id);
  auto sp_sub = session.Subscribe(*sp_id);
  std::vector<rex::DeltaVec> pr_batches, sp_batches;
  auto drain = [&](int sub, std::vector<rex::DeltaVec>* out) {
    while (auto b = session.Poll(sub)) out->push_back(b->diffs);
  };
  drain(*pr_sub, &pr_batches);
  drain(*sp_sub, &sp_batches);
  Adj mirror = OutAdjacency(g);
  auto stream = GenerateMutationStream(g, 6, 8, 3, 5);
  for (const auto& batch : stream) {
    Expect(session.ApplyUpdate(batch).ok(), "epoch applies");
    drain(*pr_sub, &pr_batches);
    drain(*sp_sub, &sp_batches);
    ApplyBatch(&mirror, batch);
  }
  auto pr_now = session.CurrentResult(*pr_id);
  auto sp_now = session.CurrentResult(*sp_id);
  ExpectPass(CheckSubscriberFold(pr_batches, *pr_now),
             "pagerank subscriber fold equals CurrentResult");
  ExpectPass(CheckSubscriberFold(sp_batches, *sp_now),
             "sssp subscriber fold equals CurrentResult");
  ExpectPass(
      CheckSssp(DistancesFromRows(*sp_now, 300), BfsDistances(mirror, 0)),
      "maintained sssp equals BFS on the mutated mirror");
  int64_t strata = 0;
  for (const auto& p : session.epoch_profiles()) {
    if (p.name.rfind("pagerank", 0) == 0) strata += p.strata_executed;
  }
  const double bound = PageRankDropBound(kDamping, kThreshold,
                                         300 + 2 * 6 * 8, strata);
  auto ranks = RanksFromRows(*pr_now, 300);
  const auto ref = PowerIterationPageRank(mirror, kDamping);
  ExpectPass(CheckPageRankWithin(ranks, ref, bound),
             "maintained pagerank within its bound on the mutated mirror");

  // Drop one non-empty diff batch after the snapshot.
  for (auto* batches : {&pr_batches, &sp_batches}) {
    auto dropped = *batches;
    for (size_t i = 1; i < dropped.size(); ++i) {
      if (!dropped[i].empty()) {
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    ExpectFail(CheckSubscriberFold(dropped, batches == &pr_batches ? *pr_now
                                                                   : *sp_now),
               std::string(batches == &pr_batches ? "pagerank" : "sssp") +
                   " subscriber with one dropped diff batch");
  }
}

}  // namespace

int main() {
  ReferencesMatchProgramOracles();
  InputsAreSeededAndShaped();
  ConvergedOutputsAndCorruptions();
  SubscriberFoldAndCorruption();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
