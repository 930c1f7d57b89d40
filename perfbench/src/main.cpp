// tbcs_perfbench: runs one named workload and prints its result record as
// one JSON line.  Usually driven by perfbench/run.py, which builds it,
// stamps host and build, and prints the metrics.
//
//   tbcs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--workdir DIR] [--min-runs K]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "tbcs_perfbench: " << why
            << "\nusage: tbcs_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--min-runs K]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

bool parse_number(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MeasureOptions mo;
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double x = 0.0;
    if (flag == "--workload") {
      mo.workload = value;
      have_workload = true;
    } else if (flag == "--workdir") {
      mo.workdir = value;
      have_workdir = true;
    } else if (!parse_number(value, x) || x < 0) {
      return usage(("bad value for " + flag + ": " + value).c_str());
    } else if (flag == "--seed") {
      mo.seed = static_cast<std::uint64_t>(x);
    } else if (flag == "--seconds") {
      mo.seconds = x;
    } else if (flag == "--trace") {
      mo.trace = x != 0.0;
    } else if (flag == "--min-runs") {
      mo.min_runs = static_cast<int>(x);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (mo.min_runs < 1) return usage("--min-runs must be at least 1");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == mo.workload;
  if (!known) return usage(("unknown workload " + mo.workload).c_str());
  if (!have_workdir && mo.workload == "ring_fault_sweep_j4") {
    return usage("--workdir is required: the sweep writes its fault plans there");
  }
  try {
    const perfbench::Record rec = perfbench::measure(mo);
    std::cout << rec.to_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "tbcs_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
