// The benchmark's own references and output checks. The references are
// computed apart from the program (a BFS and a Jacobi power iteration over
// the benchmark's own adjacency mirror); the checks compare the program's
// outputs against them using only properties the method guarantees. Each
// check returns an empty string on success and a one-line reason on
// failure.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/delta.h"
#include "common/tuple.h"

namespace perfbench {

using Adj = std::vector<std::vector<int64_t>>;

/// Unweighted shortest-path distances from `source`; -1 = unreachable.
std::vector<int64_t> BfsDistances(const Adj& adj, int64_t source);

/// r = (1 - d) + d * A^T (r / outdeg), iterated from r = 0 until no rank
/// moves by more than 1e-13 (every out-degree must be >= 1).
std::vector<double> PowerIterationPageRank(const Adj& adj, double damping);

/// Absolute slack for comparing against the power iteration (its own
/// truncation plus floating-point summation order).
inline constexpr double kRankEps = 1e-9;

/// The most rank mass that dropped sub-threshold diffs can withhold:
/// each of `n` vertices drops at most `threshold` per stratum, and a diff
/// withheld from propagation would have grown by at most d / (1 - d).
double PageRankDropBound(double damping, double threshold, int64_t n,
                         int64_t strata);

/// Exact equality of distances, unreachable vertices included.
std::string CheckSssp(const std::vector<int64_t>& got,
                      const std::vector<int64_t>& ref);

/// Delta PageRank from a zero start with non-negative diffs: every rank is
/// at most its reference (r(v) <= ref(v) + eps), and the mass deficit
/// sum(ref - r) lies in [0, bound].
std::string CheckPageRankFromBelow(const std::vector<double>& got,
                                   const std::vector<double>& ref,
                                   double bound);

/// PageRank maintained under signed (insert and delete) updates: the L1
/// distance to the reference lies within `bound` (and so does every
/// single rank).
std::string CheckPageRankWithin(const std::vector<double>& got,
                                const std::vector<double>& ref, double bound);

/// A recovered run must report at least one recovery pass.
std::string CheckRecovered(int recoveries);

/// Folds a subscriber's batches (the snapshot, then one diff per epoch)
/// into a keyed relation and compares it with `current`, keyed on field 0.
std::string CheckSubscriberFold(const std::vector<rex::DeltaVec>& batches,
                                const std::vector<rex::Tuple>& current);

/// (v, value) rows -> per-vertex vectors.
std::vector<double> RanksFromRows(const std::vector<rex::Tuple>& rows,
                                  int64_t n);
std::vector<int64_t> DistancesFromRows(const std::vector<rex::Tuple>& rows,
                                       int64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
