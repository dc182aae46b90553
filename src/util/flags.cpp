#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <utility>

namespace ge::util {
namespace {

// The whole of `text` as a finite T; nullopt for anything else -- "abc",
// "0.9x", "inf", an empty list element.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(static_cast<double>(value))) {
    return std::nullopt;
  }
  return value;
}

// `part` (all or one element of the flag's value `text`) as a T accepted
// by `ok`; otherwise reject() naming `what`.
template <typename T, typename Ok>
T parse_checked(std::string_view part, const std::string& text,
                std::string_view name, const std::string& what, Ok ok) {
  const std::optional<T> value = parse_number<T>(part);
  if (!value || !ok(*value)) {
    Flags::reject(name, what, text);
  }
  return *value;
}

// The flag's value as a T accepted by `ok`; the default when the flag is
// absent or empty.
template <typename T, typename Ok>
T checked(const std::optional<std::string>& text, std::string_view name,
          T default_value, const std::string& what, Ok ok) {
  if (!text || text->empty()) {
    return default_value;
  }
  return parse_checked<T>(*text, *text, name, what, ok);
}

// The flag's comma-separated value as Ts each accepted by `ok`; the default
// when the flag is absent or empty.
template <typename T, typename Ok>
std::vector<T> checked_list(const std::optional<std::string>& text,
                            std::string_view name, std::vector<T> default_value,
                            const std::string& what, Ok ok) {
  if (!text || text->empty()) {
    return default_value;
  }
  std::vector<T> out;
  for (std::size_t pos = 0; pos < text->size();) {
    const std::size_t comma = std::min(text->find(',', pos), text->size());
    out.push_back(parse_checked<T>(std::string_view(*text).substr(pos, comma - pos),
                                   *text, name, what, ok));
    pos = comma + 1;
  }
  return out;
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on" || text.empty()) {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      if (!stray_) {
        stray_ = std::string(arg);
      }
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_.emplace_back(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      continue;
    }
    // --name value form: consume the next token if it does not look like a flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_.emplace_back(std::string(arg), std::string(argv[i + 1]));
      ++i;
    } else {
      values_.emplace_back(std::string(arg), std::string());  // boolean switch
    }
  }
  read_.assign(values_.size(), false);
}

std::optional<std::string> Flags::find(std::string_view name) const {
  // Last occurrence wins so callers can override defaults on the command line.
  std::optional<std::string> result;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].first == name) {
      result = values_[i].second;
      read_[i] = true;
    }
  }
  return result;
}

bool Flags::has(std::string_view name) const { return find(name).has_value(); }

std::string Flags::get_string(std::string_view name, std::string default_value) const {
  auto v = find(name);
  return v ? *v : default_value;
}

double Flags::get_double(std::string_view name, double default_value) const {
  return checked(find(name), name, default_value, "a finite number",
                 [](double) { return true; });
}

std::int64_t Flags::get_int_at_least(std::string_view name,
                                     std::int64_t default_value,
                                     std::int64_t min) const {
  return checked(find(name), name, default_value,
                 "an integer >= " + std::to_string(min),
                 [min](std::int64_t value) { return value >= min; });
}

double Flags::get_positive_double(std::string_view name,
                                  double default_value) const {
  return checked(find(name), name, default_value, "a number > 0",
                 [](double value) { return value > 0.0; });
}

bool Flags::get_bool(std::string_view name, bool default_value) const {
  auto v = find(name);
  if (!v) {
    return default_value;
  }
  const std::optional<bool> value = parse_bool(*v);
  if (!value) {
    reject(name, "true, false, 1, 0, yes, no, on or off", *v);
  }
  return *value;
}

double Flags::get_fraction(std::string_view name, double default_value) const {
  return checked(find(name), name, default_value, "a number in [0, 1]",
                 [](double value) { return value >= 0.0 && value <= 1.0; });
}

std::vector<double> Flags::get_positive_double_list(
    std::string_view name, std::vector<double> default_value) const {
  return checked_list(find(name), name, std::move(default_value),
                      "a comma-separated list of numbers > 0",
                      [](double value) { return value > 0.0; });
}

std::vector<double> Flags::get_fraction_list(std::string_view name,
                                             std::vector<double> default_value) const {
  return checked_list(find(name), name, std::move(default_value),
                      "a comma-separated list of numbers in [0, 1]",
                      [](double value) { return value >= 0.0 && value <= 1.0; });
}

std::vector<std::int64_t> Flags::get_int_list_at_least(
    std::string_view name, std::vector<std::int64_t> default_value,
    std::int64_t min) const {
  return checked_list(find(name), name, std::move(default_value),
                      "a comma-separated list of integers >= " + std::to_string(min),
                      [min](std::int64_t value) { return value >= min; });
}

void Flags::reject_unread() const {
  if (stray_) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n", stray_->c_str());
    std::exit(2);
  }
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!read_[i]) {
      std::fprintf(stderr, "error: unknown flag --%s\n", values_[i].first.c_str());
      std::exit(2);
    }
  }
}

void Flags::reject(std::string_view name, const std::string& what,
                   const std::string& value) {
  std::fprintf(stderr, "error: --%.*s must be %s, got '%s'\n",
               static_cast<int>(name.size()), name.data(), what.c_str(),
               value.c_str());
  std::exit(2);
}

}  // namespace ge::util
