// Small string helpers shared across modules. Nothing here allocates unless
// the return type is std::string/std::vector.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace certchain::util {

/// Splits on a single-character delimiter. Adjacent delimiters yield empty
/// fields; an empty input yields one empty field.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Splits but drops empty fields.
std::vector<std::string> split_nonempty(std::string_view text, char delimiter);

/// Scans `text` into exactly `count` delimiter-separated fields written to
/// `out[0..count)`. Returns false (leaving `out` unspecified) when the field
/// count differs. The allocation-free row scanner for fixed-layout TSV.
bool split_exact(std::string_view text, char delimiter, std::string_view* out,
                 std::size_t count);

/// Joins with a delimiter string.
std::string join(const std::vector<std::string>& parts, std::string_view delimiter);

/// The value of one hex digit of either case, or -1 for any other byte.
int hex_value(char c);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// True if `text` contains `needle`.
bool contains(std::string_view text, std::string_view needle);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view text, std::string_view from, std::string_view to);

/// A whole decimal number that fits in T: digits only, so a sign, a blank,
/// an empty string, trailing junk or a value beyond T's range is rejected,
/// never wrapped or truncated. The one parser for counts that come from
/// outside the program: Zeek and PEM fields, command-line flags, knobs.
template <typename T>
std::optional<T> parse_count(std::string_view text) {
  std::uint64_t value = 0;
  const auto result = std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size() ||
      value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(value);
}

/// A finite real number in [min, max], in decimal or exponent form: NaN,
/// infinity, a blank, a '+', trailing junk or an empty string is rejected.
/// For a range that excludes zero, pass min =
/// std::numeric_limits<double>::denorm_min(), the smallest positive double.
std::optional<double> parse_real(std::string_view text, double min, double max);

/// Stores a parsed value into `field` when there is one and returns whether
/// there was. Both have one type T, so a value must fit the field it lands
/// in: `valid = util::store(util::parse_count<T>(text), field)`.
template <typename T>
bool store(const std::optional<T>& parsed, T& field) {
  if (parsed) field = *parsed;
  return parsed.has_value();
}

/// Formats a double with the given number of decimal places ("%.*f").
std::string format_double(double value, int decimals);

/// Formats counts with thousands separators: 1234567 -> "1,234,567".
std::string with_commas(std::uint64_t value);

/// Formats a ratio as a percentage string with two decimals ("97.21").
std::string percent(double numerator, double denominator, int decimals = 2);

}  // namespace certchain::util
