// Minimal command-line flag parser for the bench/example binaries.
//
// Supports --name value and --name=value forms plus typed accessors with
// defaults.  Unknown flags are tolerated and reported through unknown()
// (google-benchmark binaries share argv with their own flags).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ge::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(std::string_view name) const;
  std::string get_string(std::string_view name, std::string default_value) const;
  double get_double(std::string_view name, double default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  bool get_bool(std::string_view name, bool default_value) const;

  // get_int for a value that must be a whole integer >= `min`.  Anything
  // else -- "-1", "abc", "2x" -- prints a one-line reason naming the flag
  // to stderr and exits with status 2.
  std::int64_t get_int_at_least(std::string_view name, std::int64_t default_value,
                                std::int64_t min) const;

  // get_double for a value that must be a finite number > 0.  Anything
  // else -- "0", "-1", "abc", "0.2x", "inf" -- prints a one-line reason
  // naming the flag to stderr and exits with status 2.
  double get_positive_double(std::string_view name, double default_value) const;

  // Parses a comma-separated list of doubles, e.g. --rates 100,150,200.
  std::vector<double> get_double_list(std::string_view name,
                                      std::vector<double> default_value) const;

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::optional<std::string> find(std::string_view name) const;

  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace ge::util
