// Minimal JSON support for the metrics exporters.
//
// The writer side is a small builder that produces compact, valid JSON with
// deterministic key order (callers iterate ordered maps). The reader side is
// a strict-enough recursive-descent parser used by the round-trip tests and
// by anything that wants to diff two exported metrics files. Neither side
// aims to be a general-purpose JSON library — no comments, no NaN/Infinity
// literals (non-finite doubles are emitted as null), UTF-8 passed through.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace certchain::obs::json {

/// Escapes and quotes a string for embedding in JSON output.
std::string quote(std::string_view text);

/// Renders a double as a JSON number (null when not finite). Integral values
/// print without a fractional part so counters stay greppable.
std::string number(double value);

/// Incremental writer for nested objects/arrays. Usage:
///   Writer w;
///   w.begin_object();
///   w.key("counters"); w.begin_object(); ... w.end_object();
///   w.end_object();
///   std::string out = std::move(w).str();
class Writer {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view name);
  void value_string(std::string_view text);
  void value_number(double value);
  void value_uint(std::uint64_t value);
  void value_bool(bool value);
  void value_null();
  /// Emits pre-rendered JSON verbatim (caller guarantees validity).
  void value_raw(std::string_view json);

  std::string str() && { return std::move(out_); }
  const std::string& str() const& { return out_; }

 private:
  void open(char bracket);
  void close(char bracket);
  void separate();

  std::string out_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
};

/// Parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string string;
  std::vector<std::pair<std::string, Value>> object;  // in document order
  std::vector<Value> array;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Numbers follow the RFC 8259 grammar exactly and must
/// be finite. On failure returns nullopt and, when `error` is given, a short
/// reason ("bad number", "number out of range", ...) with the byte offset.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// 2^53: every integer up to here is exact in a double, and no further.
inline constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

/// The one checked number-to-integer read: stores `*value` in `out` when it
/// is a number holding a non-negative integer no larger than `max` (nor than
/// kMaxExactInteger). False, with `out` untouched, for a null `value`, a
/// non-number, a negative, a fraction or a larger number.
bool read_uint(const Value* value, std::uint64_t& out,
               std::uint64_t max = kMaxExactInteger);

}  // namespace certchain::obs::json
