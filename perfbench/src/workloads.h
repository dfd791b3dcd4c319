// The closed-loop workloads and the run loop that measures them.
//
//   chatty   small-kernel steps: the forwarding path does the work
//   bulk     rounds of 1 MiB transfers: the per-byte layers do the work
//   tenants  three chatty VMs beside one device-heavy VM on one router
//
// See perfbench/README.md for the metrics and why each workload exists.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Host shape and run parameters, as one JSON object.
  std::string host_json;
};

bool IsWorkload(const std::string& name);

ava::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
