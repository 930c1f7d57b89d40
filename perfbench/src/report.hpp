// Order statistics and the result record the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear interpolation between closest ranks (p in [0, 100]); NaN for an
/// empty sample.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);

/// The highest of the percentiles 50, 75, 90, 95, 99, 99.9 that leaves at
/// least `min_beyond` samples above it (p50 when even that does not).
struct Tail {
  double p = 50.0;
  double value = 0.0;
};
Tail tail_percentile(const std::vector<double>& values, int min_beyond = 10);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One invocation's outcome.  `failed` counts runs with any output-check
/// failure; failed / attempted is the failed_share.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string fingerprint_json = "{}";  // the workload's reference run
  std::vector<std::string> failures;    // first few, for diagnosis
  std::vector<std::string> notes;       // human-readable context

  void fail(const std::string& why);
  /// Single-line JSON.
  std::string to_json() const;
};

}  // namespace perfbench
