// pipebench: program-in -> verdict-out ledger of the SCAGuard pipeline.
//
//   pipebench --workload <pipeline-mixed|scan-repo48|single-asm>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>]
//
// Prints one line per metric for people, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 0 only when every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--work-dir <dir>]\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const pipebench::Options& opt,
                  const pipebench::Result& result) {
  std::printf("workload %s, seed %llu, %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const pipebench::Metric& m : result.metrics)
    std::printf("  %-34s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const std::string& e : result.errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const pipebench::Metric& m : result.metrics) {
    if (!m.listed) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();

  namespace fs = std::filesystem;
  const bool own_work_dir = opt.work_dir.empty();
  if (own_work_dir)
    opt.work_dir = ".bench_build/work-" + std::to_string(getpid());
  try {
    fs::create_directories(opt.work_dir);
    const pipebench::Result result = pipebench::run_workload(opt);
    if (own_work_dir) fs::remove_all(opt.work_dir);
    for (const pipebench::Metric& m : result.metrics)
      if (!std::isfinite(m.value))
        throw std::runtime_error("metric " + m.name + " is not finite");
    print_result(opt, result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    if (own_work_dir) fs::remove_all(opt.work_dir);
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
}
