// The benchmark's workloads. Each runs whole repetitions of the same
// operations for a fixed wall-clock budget, checks every output against the
// benchmark's own references, and reports end-to-end metrics (untraced) or
// per-layer metrics (traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where traced mode writes its spans (empty = nowhere).
  std::string trace_out;
};

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<MetricValue> metrics;

  /// Records a check's outcome (empty = passed).
  void Check(const std::string& error) {
    if (error.empty()) return;
    correct = false;
    errors.push_back(error);
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Runs `options.workload`; returns false in `*known` for an unknown name.
Report RunWorkload(const RunOptions& options, bool* known);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
