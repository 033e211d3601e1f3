// The ledger's three workloads (see pipebench/README.md): set-up, warm-up,
// the closed-loop timed run, the traced run, and every output check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny corpus and repository: the self-test size.
  bool smoke = false;
  /// Directory for the run's files (store image, event journal).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // human-readable context (sample counts, bases)
  /// Listed in BENCHMARK.json, so part of the final JSON line; unlisted
  /// metrics are printed for people only.
  bool listed = true;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed checks, one line each; the run is correct iff this is empty
  /// and no operation failed.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && errors.empty(); }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string_view>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
Result run_workload(const Options& options);

}  // namespace pipebench
