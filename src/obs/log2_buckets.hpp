// Power-of-two bucket math for lossy value summaries.
//
// The HistoryStore quantile sketches bucket values this way: bucket 0
// collects everything that is not a positive finite value, bucket b >= 1
// covers (2^(b-18), 2^(b-17)].  Any estimate read back from a bucket is
// therefore within a factor of two of the true positive value — the
// error bound the stores advertise.
#pragma once

#include <algorithm>
#include <cmath>

namespace tbcs::obs {

inline constexpr int kLog2Buckets = 48;

/// Bucket for `value`: 0 for zero/negative/NaN, otherwise clamped so
/// values below 2^-17 land in bucket 1 and values above 2^29 in the last.
inline int log2_bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp with m in [0.5, 1)
  const int idx = exp + 17;  // 2^-17 < v <= 2^-16  ->  bucket 1
  return std::clamp(idx, 1, kLog2Buckets - 1);
}

/// Inclusive lower edge of a bucket (0 for the catch-all bucket 0).
inline double log2_bucket_lower_bound(int bucket) {
  if (bucket <= 0) return 0.0;
  return std::ldexp(1.0, bucket - 18);
}

}  // namespace tbcs::obs
