#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>

namespace perfbench {

namespace {

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

std::vector<int64_t> BfsDistances(const Adj& adj, int64_t source) {
  std::vector<int64_t> dist(adj.size(), -1);
  std::deque<int64_t> frontier{source};
  dist[static_cast<size_t>(source)] = 0;
  while (!frontier.empty()) {
    const int64_t u = frontier.front();
    frontier.pop_front();
    for (int64_t v : adj[static_cast<size_t>(u)]) {
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
        frontier.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<double> PowerIterationPageRank(const Adj& adj, double damping) {
  const size_t n = adj.size();
  std::vector<double> r(n, 0.0), next(n);
  for (int iter = 0; iter < 100000; ++iter) {
    std::fill(next.begin(), next.end(), 1.0 - damping);
    for (size_t u = 0; u < n; ++u) {
      const auto& nbrs = adj[u];
      const double share = damping * r[u] / static_cast<double>(nbrs.size());
      for (int64_t v : nbrs) next[static_cast<size_t>(v)] += share;
    }
    double change = 0;
    for (size_t v = 0; v < n; ++v) {
      change = std::max(change, std::fabs(next[v] - r[v]));
    }
    r.swap(next);
    if (change <= 1e-13) break;
  }
  return r;
}

double PageRankDropBound(double damping, double threshold, int64_t n,
                         int64_t strata) {
  return damping / (1.0 - damping) * threshold * static_cast<double>(n) *
         static_cast<double>(strata);
}

std::string CheckSssp(const std::vector<int64_t>& got,
                      const std::vector<int64_t>& ref) {
  if (got.size() != ref.size()) return "sssp: wrong vertex count";
  for (size_t v = 0; v < ref.size(); ++v) {
    if (got[v] != ref[v]) {
      return "sssp: vertex " + std::to_string(v) + " has distance " +
             std::to_string(got[v]) + ", BFS says " + std::to_string(ref[v]);
    }
  }
  return "";
}

std::string CheckPageRankFromBelow(const std::vector<double>& got,
                                   const std::vector<double>& ref,
                                   double bound) {
  if (got.size() != ref.size()) return "pagerank: wrong vertex count";
  double deficit = 0;
  for (size_t v = 0; v < ref.size(); ++v) {
    if (!(got[v] <= ref[v] + kRankEps)) {
      return "pagerank: vertex " + std::to_string(v) +
             Format(" has rank %.12g above its reference %.12g", got[v],
                    ref[v]);
    }
    deficit += ref[v] - got[v];
  }
  const double slack = kRankEps * static_cast<double>(ref.size());
  if (deficit < -slack || deficit > bound + slack) {
    return Format("pagerank: mass deficit %.6g outside [0, %.6g]", deficit,
                  bound);
  }
  return "";
}

std::string CheckPageRankWithin(const std::vector<double>& got,
                                const std::vector<double>& ref, double bound) {
  if (got.size() != ref.size()) return "pagerank: wrong vertex count";
  double l1 = 0;
  for (size_t v = 0; v < ref.size(); ++v) {
    const double err = std::fabs(got[v] - ref[v]);
    if (!(err <= bound + kRankEps)) {
      return "pagerank: vertex " + std::to_string(v) +
             Format(" has rank %.12g, reference %.12g, bound %.3g", got[v],
                    ref[v], bound);
    }
    l1 += err;
  }
  if (l1 > bound + kRankEps * static_cast<double>(ref.size())) {
    return Format("pagerank: L1 error %.6g above bound %.6g", l1, bound);
  }
  return "";
}

std::string CheckRecovered(int recoveries) {
  return recoveries >= 1 ? "" : "crashed run reports no recovery pass";
}

std::string CheckSubscriberFold(const std::vector<rex::DeltaVec>& batches,
                                const std::vector<rex::Tuple>& current) {
  std::map<int64_t, rex::Tuple> folded;
  auto key_of = [](const rex::Tuple& t) { return t.field(0).AsInt(); };
  for (const rex::DeltaVec& batch : batches) {
    for (const rex::Delta& d : batch) {
      const int64_t key = key_of(d.tuple);
      switch (d.op) {
        case rex::DeltaOp::kInsert:
          if (!folded.emplace(key, d.tuple).second) {
            return "subscriber: insert of live key " + std::to_string(key);
          }
          break;
        case rex::DeltaOp::kDelete: {
          auto it = folded.find(key);
          if (it == folded.end() || it->second != d.tuple) {
            return "subscriber: delete of absent row " + std::to_string(key);
          }
          folded.erase(it);
          break;
        }
        case rex::DeltaOp::kReplace: {
          auto it = folded.find(key);
          if (it == folded.end() || it->second != d.old_tuple) {
            return "subscriber: replace of absent row " + std::to_string(key);
          }
          it->second = d.tuple;
          break;
        }
        default:
          return "subscriber: unexpected delta op";
      }
    }
  }
  if (folded.size() != current.size()) {
    return "subscriber: folded " + std::to_string(folded.size()) +
           " rows, current result has " + std::to_string(current.size());
  }
  for (const rex::Tuple& row : current) {
    auto it = folded.find(key_of(row));
    if (it == folded.end() || it->second != row) {
      return "subscriber: folded row differs for key " +
             std::to_string(key_of(row));
    }
  }
  return "";
}

std::vector<double> RanksFromRows(const std::vector<rex::Tuple>& rows,
                                  int64_t n) {
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  for (const rex::Tuple& t : rows) {
    const int64_t v = t.field(0).AsInt();
    auto r = t.field(1).ToDouble();
    if (v >= 0 && v < n && r.ok()) ranks[static_cast<size_t>(v)] = *r;
  }
  return ranks;
}

std::vector<int64_t> DistancesFromRows(const std::vector<rex::Tuple>& rows,
                                       int64_t n) {
  std::vector<int64_t> dist(static_cast<size_t>(n), -1);
  for (const rex::Tuple& t : rows) {
    const int64_t v = t.field(0).AsInt();
    auto d = t.field(1).ToInt();
    if (v >= 0 && v < n && d.ok()) dist[static_cast<size_t>(v)] = *d;
  }
  return dist;
}

}  // namespace perfbench
