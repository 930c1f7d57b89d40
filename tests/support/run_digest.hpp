// A 64-bit FNV-1a digest of everything a run makes observable: logical
// clocks (as hex floats, so every bit counts), counters, flight-recorder
// trace records and recorded execution bytes.  Pinned digests let a test
// assert that a run reproduces a reference run byte for byte without
// keeping the reference engine around.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace tbcs::testing_support {

class RunDigest {
 public:
  RunDigest& add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  RunDigest& add(double x) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a;", x);
    return add(std::string(buf));
  }
  RunDigest& add(std::uint64_t x) { return add(std::to_string(x) + ";"); }

  /// Every field but aux, which carries a per-lane queue depth.
  RunDigest& add(const std::vector<obs::TraceRecord>& trace) {
    add(static_cast<std::uint64_t>(trace.size()));
    for (const obs::TraceRecord& r : trace) {
      add(r.seq).add(std::uint64_t{r.kind}).add(std::uint64_t{r.flags});
      add(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.node)));
      add(std::uint64_t{r.edge}).add(r.t).add(r.a).add(r.b);
    }
    return *this;
  }

  /// 16 lower-case hex digits.
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace tbcs::testing_support
