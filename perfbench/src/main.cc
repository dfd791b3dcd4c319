// perfbench: runs one workload and prints one JSON result line.
//
//   perfbench --workload chatty|bulk|tenants --seed N --seconds S
//             --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The line before the result carries the host shape ({"host": ...}).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload chatty|bulk|tenants "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !perfbench::IsWorkload(options.workload) ||
      !(options.seconds > 0)) {
    return Usage();
  }

  auto result = perfbench::RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("{\"host\": %s}\n", result->host_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result->failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed));
  for (std::size_t i = 0; i < result->metrics.size(); ++i) {
    const perfbench::Metric& m = result->metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
