// rexbench: runs one workload of the REX benchmark and prints, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics.
//
//   rexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <path>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "rexbench: %s\nusage: rexbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  if (options.workload.empty()) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  bool known = false;
  perfbench::Report report = perfbench::RunWorkload(options, &known);
  if (!known) return Usage(("unknown workload " + options.workload).c_str());
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::string metrics;
  for (const perfbench::MetricValue& m : report.metrics) {
    char buf[256];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
