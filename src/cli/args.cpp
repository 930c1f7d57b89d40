#include "cli/args.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace tbcs::cli {

namespace {

bool is_true_literal(const std::string& s) {
  return s == "true" || s == "1" || s == "yes";
}

bool is_false_literal(const std::string& s) {
  return s == "false" || s == "0" || s == "no";
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

ArgParser::ArgParser(const std::vector<std::string>& args) { parse(args); }

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0 || a.size() <= 2) {
      errors_.push_back("unexpected argument: " + a);
      continue;
    }
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      values_[a.substr(2, eq - 2)] = Entry{a.substr(eq + 1), false};
      continue;
    }
    const std::string key = a.substr(2);
    // --key value (if the next token is not itself a flag), else boolean
    // --key.  A next token starting with a single '-' (e.g. "-0.5") is a
    // legitimate value; only "--"-prefixed tokens are flags.
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      values_[key] = Entry{args[i + 1], true};
      ++i;
    } else {
      values_[key] = Entry{"true", false};
    }
  }
}

ArgParser::Entry* ArgParser::lookup(const std::string& key) {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

void ArgParser::reject(const std::string& key, const std::string& what,
                       const std::string& value) {
  errors_.push_back("flag --" + key + " expects " + what + ", got '" +
                    value + "'");
}

std::string ArgParser::get_string(const std::string& key,
                                  const std::string& fallback) {
  const Entry* e = lookup(key);
  return e == nullptr ? fallback : e->value;
}

double ArgParser::get_double(const std::string& key, double fallback) {
  const Entry* e = lookup(key);
  if (e == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(e->value.c_str(), &end);
  if (end == e->value.c_str() || *end != '\0') {
    reject(key, "a number", e->value);
    return fallback;
  }
  return v;
}

int ArgParser::get_int(const std::string& key, int fallback) {
  const Entry* e = lookup(key);
  if (e == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(e->value.c_str(), &end, 10);
  if (end == e->value.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    reject(key, "an integer in int range", e->value);
    return fallback;
  }
  return static_cast<int>(v);
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) {
  const Entry* e = lookup(key);
  if (e == nullptr) return fallback;
  const std::string& s = e->value;
  // strtoull accepts a sign (and wraps "-1"), so demand a leading digit.
  const bool digit = !s.empty() && s[0] >= '0' && s[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = digit ? std::strtoull(s.c_str(), &end, 10) : 0;
  if (!digit || *end != '\0' || errno == ERANGE) {
    reject(key,
           errno == ERANGE ? "an integer below 2^64"
                           : "an unsigned decimal integer",
           s);
    return fallback;
  }
  return v;
}

bool ArgParser::get_bool(const std::string& key, bool fallback) {
  Entry* e = lookup(key);
  if (e == nullptr) return fallback;
  if (is_true_literal(e->value)) return true;
  if (is_false_literal(e->value)) return false;
  if (e->from_next_token) {
    // "--flag token" where token is no boolean literal: the token was a
    // positional argument, not the flag's value.  Reclassify: the flag is
    // bare boolean true, the token is reported as unexpected.
    errors_.push_back("unexpected argument: " + e->value);
    *e = Entry{"true", false};
    return true;
  }
  reject(key, "a boolean", e->value);
  return fallback;
}

std::vector<std::string> ArgParser::unknown_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : values_) {
    if (queried_.count(key) == 0) out.push_back(key);
  }
  return out;
}

}  // namespace tbcs::cli
