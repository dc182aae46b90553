// Minimal command-line flag parser for the bench/example binaries.
//
// Supports --name value and --name=value forms plus typed accessors with
// defaults.  The parser keeps every --name it sees, judges only the names a
// caller asks for and records which names were asked for.  A binary that
// reads all of its flags through one Flags calls reject_unread() after its
// last read, so a misspelled flag exits 2; a binary that does not (one
// sharing argv with google-benchmark's own flags, say) ignores it.
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
  // A bare --name reads true.  Any value other than true/false, 1/0, yes/no
  // or on/off -- a stray token after the switch, say -- exits 2 like the
  // numeric accessors below.
  bool get_bool(std::string_view name, bool default_value) const;

  // Numeric accessors return the default when the flag is absent or empty.
  // A value that is not wholly a finite number of the asked-for kind --
  // "abc", "0.9x", "inf", "1.5" for an integer -- or is out of range
  // prints a one-line reason naming the flag to stderr and exits with
  // status 2.
  double get_double(std::string_view name, double default_value) const;
  // An integer >= `min`.
  std::int64_t get_int_at_least(std::string_view name, std::int64_t default_value,
                                std::int64_t min) const;
  // A number > 0.
  double get_positive_double(std::string_view name, double default_value) const;
  // A number in [0, 1].
  double get_fraction(std::string_view name, double default_value) const;
  // A comma-separated list of numbers > 0, e.g. --rates 100,150,200.
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

  // Exits with status 2 and one line on stderr for the first bare token on
  // the command line ("error: unexpected argument '<tok>'": no binary takes
  // positional arguments), else for the first flag that no accessor above
  // has looked up ("error: unknown flag --<name>").
  void reject_unread() const;

 private:
  std::optional<std::string> find(std::string_view name) const;

  std::vector<std::pair<std::string, std::string>> values_;
  mutable std::vector<bool> read_;  // per values_ entry: looked up yet
  std::optional<std::string> stray_;  // first bare token, if any
};

}  // namespace ge::util
