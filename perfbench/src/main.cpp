// perfbench — the repo benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload (fsync_rebuild, kasync_stream, certified_sweep) for
// about S seconds and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of untraced repetitions; --trace 1 alternates
// untraced and traced repetitions and reports the per-layer metrics.
// The line before it records the hardware the numbers were taken on.
// Normally started through perfbench/run.py, which builds it first.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "run/json.hpp"
#include "workloads.hpp"

namespace {

using cohesion::run::Json;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || o.workload.empty() || o.work_dir.empty() || !(o.seconds > 0.0)) {
    return usage();
  }

  try {
    const perfbench::Outcome out = perfbench::run_workload(o);
    for (const std::string& f : out.failures) std::cerr << "perfbench: FAILED " << f << "\n";

    Json hardware = Json::object();
    hardware.set("nproc", std::thread::hardware_concurrency());
    hardware.set("cpu", cpu_model());
    hardware.set("compiler", PERFBENCH_COMPILER);
    std::cout << "hardware " << hardware.dump() << "\n";

    Json metrics = Json::object();
    for (const perfbench::Metric& m : out.metrics) {
      Json entry = Json::object();
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
    }
    Json result = Json::object();
    result.set("correct", out.failed == 0 && out.failures.empty());
    result.set("attempted", out.attempted);
    result.set("failed", out.failed);
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
