// perfbench: the FRAPP benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (batch-detgd, dist-mask, serve-drilldown,
// append-window) from the seed, checks every op's output, and prints as its
// last stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Earlier lines carry provenance and diagnostics. Exits 0
// only when every op succeeded with the right output. Input files live in a
// temporary directory under .bench_tmp/ of the working directory, removed
// on exit.

#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "frapp/mining/kernels.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Removes the run's temporary directory (and .bench_tmp when it is left
/// empty) on every exit path.
class TempDir {
 public:
  static StatusOr<std::unique_ptr<TempDir>> Create() {
    std::error_code ec;
    std::filesystem::create_directories(kRoot, ec);
    if (ec) return Status::IOError("cannot create " + std::string(kRoot));
    std::string pattern = std::string(kRoot) + "/run-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      return Status::IOError("mkdtemp failed under " + std::string(kRoot));
    }
    return std::unique_ptr<TempDir>(new TempDir(pattern));
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(kRoot, ec);  // only succeeds when empty
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  static constexpr const char* kRoot = ".bench_tmp";
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

int Usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload batch-detgd|dist-mask|"
               "serve-drilldown|append-window --seed N --seconds S "
               "--trace 0|1\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0) ||
          config.seconds > 60) {
        return Usage("--seconds must be in (0, 60]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds are required");
  }
  StatusOr<RunResult> (*run)(const RunConfig&) = nullptr;
  if (config.workload == "batch-detgd") run = RunBatchDetGd;
  if (config.workload == "dist-mask") run = RunDistMask;
  if (config.workload == "serve-drilldown") run = RunServeDrilldown;
  if (config.workload == "append-window") run = RunAppendWindow;
  if (run == nullptr) return Usage(("unknown workload " + config.workload).c_str());

  // Timings from anything but an optimized build are meaningless.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: REFUSED: build type is " << PERFBENCH_BUILD_TYPE
              << ", not Release\n";
    return 3;
  }

  const char* kernel =
      frapp::mining::KernelLevelName(frapp::mining::ActiveKernels().level);
  std::cout << "{\"provenance\": {\"workload\": " << JsonString(config.workload)
            << ", \"seed\": " << config.seed
            << ", \"seconds\": " << JsonNumber(config.seconds)
            << ", \"trace\": " << (config.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"kernel\": " << JsonString(kernel)
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << "}}" << std::endl;

  StatusOr<std::unique_ptr<TempDir>> tmp = TempDir::Create();
  if (!tmp.ok()) {
    std::cerr << "perfbench: " << tmp.status().ToString() << "\n";
    return 1;
  }
  config.tmp_dir = (*tmp)->path();
  StatusOr<RunResult> result = run(config);
  tmp->reset();
  if (!result.ok()) {
    std::cerr << "perfbench: " << config.workload
              << " failed before measuring: " << result.status().ToString()
              << "\n";
    return 1;
  }
  for (const std::string& note : result->notes) std::cout << note << "\n";
  std::ostringstream line;
  line << "{\"correct\": " << (result->correct ? "true" : "false")
       << ", \"attempted\": " << result->attempted
       << ", \"failed\": " << result->failed << ", \"metrics\": {";
  for (size_t i = 0; i < result->metrics.size(); ++i) {
    const Metric& m = result->metrics[i];
    line << (i ? ", " : "") << JsonString(m.name)
         << ": {\"value\": " << JsonNumber(m.value)
         << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return result->correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
