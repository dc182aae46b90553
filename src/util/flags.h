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
  bool get_bool(std::string_view name, bool default_value) const;

  // Numeric accessors return the default when the flag is absent or empty.
  // A value that is not wholly a finite number of the asked-for kind --
  // "abc", "0.9x", "inf", "1.5" for an integer -- or is out of range
  // prints a one-line reason naming the flag to stderr and exits with
  // status 2.
  double get_double(std::string_view name, double default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  // An integer >= `min`.
  std::int64_t get_int_at_least(std::string_view name, std::int64_t default_value,
                                std::int64_t min) const;
  // A number > 0.
  double get_positive_double(std::string_view name, double default_value) const;
  // A number in [0, 1].
  double get_fraction(std::string_view name, double default_value) const;
  // A comma-separated list of numbers, e.g. --rates 100,150,200.
  std::vector<double> get_double_list(std::string_view name,
                                      std::vector<double> default_value) const;
  // The same, every element > 0.
  std::vector<double> get_positive_double_list(
      std::string_view name, std::vector<double> default_value) const;
  // The same, every element in [0, 1].
  std::vector<double> get_fraction_list(std::string_view name,
                                        std::vector<double> default_value) const;
  // A comma-separated list of integers, every element >= `min`.
  std::vector<std::int64_t> get_int_list_at_least(
      std::string_view name, std::vector<std::int64_t> default_value,
      std::int64_t min) const;

  // Rejects a flag value the accessors above cannot judge (an unknown enum
  // name, say): prints "error: --<name> must be <what>, got '<value>'" to
  // stderr and exits with status 2.
  [[noreturn]] static void reject(std::string_view name, const std::string& what,
                                  const std::string& value);

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::optional<std::string> find(std::string_view name) const;

  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace ge::util
