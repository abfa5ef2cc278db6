#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace certchain::obs::json {

std::string quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  if (std::fabs(value) < 9e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  // Wide enough for %.6f of any finite double (309 integer digits).
  char buffer[328];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

void Writer::open(char bracket) {
  separate();
  out_.push_back(bracket);
  first_in_scope_.push_back(true);
}

void Writer::close(char bracket) {
  out_.push_back(bracket);
  if (!first_in_scope_.empty()) first_in_scope_.pop_back();
}

void Writer::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (first_in_scope_.empty()) return;
  if (first_in_scope_.back()) {
    first_in_scope_.back() = false;
  } else {
    out_.push_back(',');
  }
}

void Writer::key(std::string_view name) {
  separate();
  out_ += quote(name);
  out_.push_back(':');
  pending_key_ = true;
}

void Writer::value_string(std::string_view text) {
  separate();
  out_ += quote(text);
}

void Writer::value_number(double value) {
  separate();
  out_ += number(value);
}

void Writer::value_uint(std::uint64_t value) {
  separate();
  out_ += std::to_string(value);
}

void Writer::value_bool(bool value) {
  separate();
  out_ += value ? "true" : "false";
}

void Writer::value_null() {
  separate();
  out_ += "null";
}

void Writer::value_raw(std::string_view json) {
  separate();
  out_ += json;
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> run() {
    skip_whitespace();
    Value value;
    if (!parse_value(value)) return std::nullopt;
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing garbage");
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const char* reason) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(reason) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ >= text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out.kind = Value::Kind::kString; return parse_string(out.string);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (consume('}')) return true;
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':')) return fail("expected ':'");
      skip_whitespace();
      Value value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (consume(']')) return true;
    while (true) {
      skip_whitespace();
      Value value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // The exporters only emit \u00XX control escapes; decode the
          // single-byte range and pass anything else through as '?'.
          out.push_back(code < 0x100 ? static_cast<char>(code) : '?');
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(Value& out) {
    out.kind = Value::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(Value& out) {
    out.kind = Value::Kind::kNull;
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(Value& out) {
    // RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
    const std::size_t begin = pos_;
    consume('-');
    if (consume('0')) {
      if (digit()) return fail("bad number");  // no leading zeros
    } else if (!digits()) {
      return fail(pos_ == begin ? "expected value" : "bad number");
    }
    if (consume('.') && !digits()) return fail("bad number");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return fail("bad number");
    }
    const double value = std::strtod(
        std::string(text_.substr(begin, pos_ - begin)).c_str(), nullptr);
    if (!std::isfinite(value)) return fail("number out of range");
    out.kind = Value::Kind::kNumber;
    out.num = value;
    return true;
  }

  bool digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  /// Consumes a run of decimal digits; false when there is none.
  bool digits() {
    const std::size_t begin = pos_;
    while (digit()) ++pos_;
    return pos_ != begin;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

bool read_uint(const Value* value, std::uint64_t& out, std::uint64_t max) {
  if (value == nullptr || !value->is_number()) return false;
  const double num = value->num;
  if (!(num >= 0) || num != std::floor(num) ||
      num > static_cast<double>(std::min(max, kMaxExactInteger))) {
    return false;
  }
  out = static_cast<std::uint64_t>(num);
  return true;
}

}  // namespace certchain::obs::json
