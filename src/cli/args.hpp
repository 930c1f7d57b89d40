// Tiny command-line flag parser for the tools (no external dependencies).
//
// Accepts --key=value and --key value forms plus boolean --flag; tracks
// which keys were consumed so unknown flags can be reported.
//
// Disambiguation rules:
//  * Only tokens starting with "--" are flags; "--key -0.5" therefore
//    binds the negative number as key's value.  A value that itself
//    starts with "--" must use the "--key=value" form.
//  * A spaced token after a flag is bound as its value, but get_bool()
//    re-classifies: if the bound token is not a boolean literal
//    (true/false/1/0/yes/no), the flag is treated as bare boolean true
//    and the token is reported as an unexpected argument — so
//    "--help extra" still shows help instead of silently parsing
//    "extra" as help's value.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace tbcs::cli {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);
  explicit ArgParser(const std::vector<std::string>& args);

  /// Value lookups; each records the key as known.
  std::string get_string(const std::string& key, const std::string& fallback);
  double get_double(const std::string& key, double fallback);
  /// Rejects values outside int range (no wrapping).
  int get_int(const std::string& key, int fallback);
  /// Unsigned 64-bit decimal (seeds): rejects a sign, overflow and
  /// trailing junk.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback);
  bool get_bool(const std::string& key, bool fallback = false);

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Flags present on the command line that no lookup asked about.
  std::vector<std::string> unknown_keys() const;

  /// Parse errors (malformed flags, missing values).
  const std::vector<std::string>& errors() const { return errors_; }
  bool ok() const { return errors_.empty(); }

 private:
  struct Entry {
    std::string value;
    // True when the value came from a separate token ("--key value")
    // rather than "--key=value" or a bare flag; get_bool() uses this to
    // detect a positional token mistakenly bound to a boolean flag.
    bool from_next_token = false;
  };

  void parse(const std::vector<std::string>& args);
  /// Marks `key` as known; its entry, or nullptr when absent.
  Entry* lookup(const std::string& key);
  /// Records "flag --key expects <what>, got '<value>'".
  void reject(const std::string& key, const std::string& what,
              const std::string& value);

  std::map<std::string, Entry> values_;
  std::set<std::string> queried_;
  std::vector<std::string> errors_;
};

}  // namespace tbcs::cli
