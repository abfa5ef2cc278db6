#include "x509/distinguished_name.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "util/hash.hpp"

namespace certchain::x509 {

namespace {

bool is_special(char c) {
  switch (c) {
    case ',':
    case '+':
    case '"':
    case '\\':
    case '<':
    case '>':
    case ';':
      return true;
    default:
      return false;
  }
}

char upper(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}

/// Appends the canonical form of an attribute type: uppercased.
void append_canonical_type(std::string& out, std::string_view type) {
  for (const char c : type) out.push_back(upper(c));
}

/// Appends the canonical form of an attribute value: lowercased, runs of
/// whitespace collapsed to single spaces, trimmed.
void append_canonical_value(std::string& out, std::string_view value) {
  bool wrote = false;
  bool pending_space = false;
  for (const char c : value) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = wrote;
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    wrote = true;
  }
}

/// Appends `value` escaped per RFC 4514.
void append_escaped(std::string& out, std::string_view value) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const char c = value[i];
    const bool needs_escape =
        is_special(c) || (i == 0 && (c == ' ' || c == '#')) ||
        (i + 1 == value.size() && c == ' ');
    if (needs_escape) out.push_back('\\');
    out.push_back(c);
  }
}

/// True if two attribute types are equal ignoring ASCII case.
bool same_type(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (upper(a[i]) != upper(b[i])) return false;
  }
  return true;
}

}  // namespace

DistinguishedName::DistinguishedName(std::vector<Rdn> rdns) {
  auto body = std::make_shared<Body>();
  body->rdns.reserve(rdns.size());
  for (Rdn& rdn : rdns) body->append(std::move(rdn));
  body_ = std::move(body);
}

const DistinguishedName::Body& DistinguishedName::empty_body() {
  static const Body empty;
  return empty;
}

void DistinguishedName::Body::append(Rdn rdn) {
  if (!rdns.empty()) {
    canonical.push_back('\n');  // unambiguous separator
    display.push_back(',');
  }
  append_canonical_type(canonical, rdn.type);
  canonical.push_back('=');
  append_canonical_value(canonical, rdn.value);
  display.append(rdn.type);
  display.push_back('=');
  append_escaped(display, rdn.value);
  rdns.push_back(std::move(rdn));
}

std::optional<DistinguishedName> DistinguishedName::parse(std::string_view text) {
  // The body is built as the text parses: each RDN's canonical and display
  // forms are written straight into it, sized once for the whole name.
  auto body = std::make_shared<Body>();
  body->rdns.reserve(1 + static_cast<std::size_t>(
                             std::count(text.begin(), text.end(), ',')));
  body->canonical.reserve(text.size());
  body->display.reserve(text.size());
  std::size_t i = 0;
  const std::size_t n = text.size();

  const auto skip_spaces = [&] {
    while (i < n && text[i] == ' ') ++i;
  };

  while (i < n) {
    skip_spaces();
    // Attribute type: up to unescaped '='.
    std::string type;
    while (i < n && text[i] != '=' && text[i] != ',') {
      type.push_back(text[i]);
      ++i;
    }
    if (i >= n || text[i] != '=') return std::nullopt;  // missing '='
    ++i;  // consume '='
    while (!type.empty() && type.back() == ' ') type.pop_back();
    if (type.empty()) return std::nullopt;

    // Attribute value: runs to unescaped ',' or end.
    std::string value;
    bool saw_non_space = false;
    std::size_t trailing_spaces = 0;
    while (i < n) {
      const char c = text[i];
      if (c == '\\') {
        if (i + 1 >= n) return std::nullopt;  // dangling escape
        const char next = text[i + 1];
        if (is_special(next) || next == '=' || next == ' ' || next == '#') {
          value.push_back(next);
          i += 2;
        } else if (std::isxdigit(static_cast<unsigned char>(next)) && i + 2 < n &&
                   std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
          // \XX hex pair
          const char hex[3] = {next, text[i + 2], 0};
          value.push_back(static_cast<char>(std::strtol(hex, nullptr, 16)));
          i += 3;
        } else {
          return std::nullopt;
        }
        saw_non_space = true;
        trailing_spaces = 0;
        continue;
      }
      if (c == ',') break;
      if (!saw_non_space && c == ' ') {  // skip leading unescaped spaces
        ++i;
        continue;
      }
      value.push_back(c);
      trailing_spaces = (c == ' ') ? trailing_spaces + 1 : 0;
      if (c != ' ') saw_non_space = true;
      ++i;
    }
    // Drop trailing unescaped spaces.
    value.resize(value.size() - trailing_spaces);
    body->append(Rdn{std::move(type), std::move(value)});

    if (i < n) {
      // consume ','
      ++i;
      if (i == n) return std::nullopt;  // trailing comma
    }
  }
  DistinguishedName name;
  name.body_ = std::move(body);
  return name;
}

DistinguishedName DistinguishedName::parse_or_die(std::string_view text) {
  auto parsed = parse(text);
  if (!parsed) {
    throw std::invalid_argument("DistinguishedName::parse_or_die: malformed DN: " +
                                std::string(text));
  }
  return *std::move(parsed);
}

DistinguishedName DistinguishedName::parse_lenient(std::string_view text) {
  if (auto parsed = parse(text)) return *std::move(parsed);
  DistinguishedName fallback;
  fallback.add("CN", std::string(text));
  return fallback;
}

std::string escape_dn_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  append_escaped(out, value);
  return out;
}

std::optional<std::string> DistinguishedName::attribute(std::string_view type) const {
  for (const Rdn& rdn : rdns()) {
    if (same_type(rdn.type, type)) return rdn.value;
  }
  return std::nullopt;
}

DistinguishedName& DistinguishedName::add(std::string type, std::string value) {
  auto body = std::make_shared<Body>(this->body());
  body->append(Rdn{std::move(type), std::move(value)});
  body_ = std::move(body);
  return *this;
}

std::uint64_t DistinguishedName::canonical_hash() const {
  return certchain::util::fnv1a64(canonical());
}

}  // namespace certchain::x509
