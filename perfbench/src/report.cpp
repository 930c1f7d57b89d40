#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

Tail tail_percentile(const std::vector<double>& values, int min_beyond) {
  const double n = static_cast<double>(values.size());
  Tail t;
  for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n * (100.0 - p) / 100.0 >= static_cast<double>(min_beyond)) t.p = p;
  }
  t.value = percentile(values, t.p);
  return t;
}

void Record::fail(const std::string& why) {
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string string_list(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += quote(v[i]);
  }
  return s + "]";
}

}  // namespace

std::string Record::to_json() const {
  std::string s = "{\"workload\": " + quote(workload) +
                  ", \"seed\": " + std::to_string(seed) +
                  ", \"trace\": " + (trace ? "1" : "0") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += quote(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
         ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  s += "}, \"build\": {\"type\": " + quote(PERFBENCH_BUILD_TYPE) +
       ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
       "}, \"fingerprint\": " + fingerprint_json +
       ", \"failures\": " + string_list(failures) +
       ", \"notes\": " + string_list(notes) + "}";
  return s;
}

}  // namespace perfbench
