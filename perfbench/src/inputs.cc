#include "inputs.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace perfbench {

rex::GraphData GenerateRmat(int64_t num_vertices, int64_t num_edges,
                            uint64_t seed) {
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  rex::GraphData g;
  g.num_vertices = num_vertices;
  SplitMix rng(seed);
  int levels = 1;
  while ((int64_t{1} << levels) < num_vertices) ++levels;

  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<size_t>(num_edges) * 2);
  g.edges.reserve(static_cast<size_t>(num_edges + num_vertices / 8));
  int64_t attempts = 0;
  const int64_t max_attempts = num_edges * 20;
  while (static_cast<int64_t>(g.edges.size()) < num_edges &&
         attempts++ < max_attempts) {
    int64_t src = 0, dst = 0;
    for (int l = 0; l < levels; ++l) {
      const double r = rng.NextDouble();
      src <<= 1;
      dst <<= 1;
      if (r < kA) {
      } else if (r < kA + kB) {
        dst |= 1;
      } else if (r < kA + kB + kC) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    if (src >= num_vertices || dst >= num_vertices || src == dst) continue;
    const uint64_t key =
        (static_cast<uint64_t>(src) << 32) | static_cast<uint64_t>(dst);
    if (!seen.insert(key).second) continue;
    g.edges.emplace_back(src, dst);
  }
  std::vector<char> has_out(static_cast<size_t>(num_vertices), 0);
  for (const auto& [src, dst] : g.edges) has_out[static_cast<size_t>(src)] = 1;
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (!has_out[static_cast<size_t>(v)]) {
      g.edges.emplace_back(v, (v + 1) % num_vertices);
    }
  }
  return g;
}

std::vector<std::vector<int64_t>> OutAdjacency(const rex::GraphData& graph) {
  std::vector<std::vector<int64_t>> adj(
      static_cast<size_t>(graph.num_vertices));
  for (const auto& [src, dst] : graph.edges) {
    adj[static_cast<size_t>(src)].push_back(dst);
  }
  return adj;
}

void ApplyBatch(std::vector<std::vector<int64_t>>* adj,
                const std::vector<rex::EdgeMutation>& batch) {
  for (const rex::EdgeMutation& e : batch) {
    auto& nbrs = (*adj)[static_cast<size_t>(e.src)];
    if (e.weight > 0) {
      nbrs.push_back(e.dst);
    } else {
      auto it = std::find(nbrs.begin(), nbrs.end(), e.dst);
      if (it != nbrs.end()) nbrs.erase(it);
    }
  }
}

std::vector<std::vector<rex::EdgeMutation>> GenerateMutationStream(
    const rex::GraphData& graph, int epochs, int batch_size, int deletes,
    uint64_t seed) {
  SplitMix rng(seed);
  auto adj = OutAdjacency(graph);
  const uint64_t n = static_cast<uint64_t>(graph.num_vertices);
  std::vector<std::vector<rex::EdgeMutation>> stream;
  stream.reserve(static_cast<size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    std::vector<rex::EdgeMutation> batch;
    std::set<std::pair<int64_t, int64_t>> touched;
    while (static_cast<int>(batch.size()) < deletes) {
      const int64_t src = static_cast<int64_t>(rng.Below(n));
      const auto& nbrs = adj[static_cast<size_t>(src)];
      if (nbrs.size() < 2) continue;  // the source must keep an out-edge
      const int64_t dst = nbrs[rng.Below(nbrs.size())];
      if (!touched.insert({src, dst}).second) continue;
      batch.push_back({src, dst, -1});
      ApplyBatch(&adj, {batch.back()});
    }
    while (static_cast<int>(batch.size()) < batch_size) {
      const int64_t src = static_cast<int64_t>(rng.Below(n));
      const int64_t dst = static_cast<int64_t>(rng.Below(n));
      if (src == dst) continue;
      const auto& nbrs = adj[static_cast<size_t>(src)];
      if (std::find(nbrs.begin(), nbrs.end(), dst) != nbrs.end()) continue;
      if (!touched.insert({src, dst}).second) continue;
      batch.push_back({src, dst, +1});
      ApplyBatch(&adj, {batch.back()});
    }
    stream.push_back(std::move(batch));
  }
  return stream;
}

}  // namespace perfbench
