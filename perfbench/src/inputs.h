// Seeded inputs for the benchmark: its own R-MAT graph generator and its
// own edge-mutation stream, so that a change to the program's data module
// cannot change a workload. Everything here is a pure function of its
// arguments; the same seed gives the same bytes on every platform.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algos/ivm.h"
#include "data/generators.h"

namespace perfbench {

/// SplitMix64: a tiny deterministic generator (no std::distribution, whose
/// outputs are implementation-defined).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// R-MAT graph with quadrant probabilities a = 0.57, b = c = 0.19 (the
/// DBPedia-like shape): `num_edges` distinct non-self-loop edges, then one
/// wrap-around edge v -> v+1 for every vertex left without out-edges, so
/// every out-degree is >= 1.
rex::GraphData GenerateRmat(int64_t num_vertices, int64_t num_edges,
                            uint64_t seed);

/// Plain out-adjacency of `graph` (the benchmark's own mirror; a multiset,
/// like the program's base table).
std::vector<std::vector<int64_t>> OutAdjacency(const rex::GraphData& graph);

/// A stream of `epochs` batches of `batch_size` edge mutations against
/// `graph`. Each batch deletes `deletes` existing edges, each from a source
/// whose out-degree stays >= 1, and inserts the rest as edges not present
/// at that point. No batch touches the same (src, dst) twice.
std::vector<std::vector<rex::EdgeMutation>> GenerateMutationStream(
    const rex::GraphData& graph, int epochs, int batch_size, int deletes,
    uint64_t seed);

/// Applies one batch to an out-adjacency mirror (insert appends, delete
/// removes one copy).
void ApplyBatch(std::vector<std::vector<int64_t>>* adj,
                const std::vector<rex::EdgeMutation>& batch);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
