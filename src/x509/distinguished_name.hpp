// X.500 distinguished names.
//
// Zeek's X509.log renders issuer and subject as RFC 4514-style strings
// ("CN=example.com,O=Example,C=US"); the paper's whole issuer–subject
// methodology operates on these strings. DistinguishedName is an ordered RDN
// sequence with RFC 4514 parsing/serialization (including escaping) and the
// caseIgnore matching X.500 specifies for the attribute types that matter
// here, so that "cn=Example" and "CN=example" compare equal the way a real
// path builder would treat them.
//
// A DistinguishedName is a handle to one immutable, reference-counted body
// holding the RDNs, the canonical form and the RFC 4514 display, all built
// once when the name is parsed or built (DESIGN.md §16.1). Copying a name —
// into a joined certificate, a first-seen chain, a CT entry or a trust
// store — bumps a reference count and never copies a string; add() copies
// the body before it writes, so no holder ever sees another's edit. Bodies
// are never written after they are shared, so copies may be read and
// dropped from any number of threads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace certchain::x509 {

/// One relative distinguished name component ("CN=example.com").
struct Rdn {
  std::string type;   // attribute type as written, e.g. "CN", "emailAddress"
  std::string value;  // unescaped attribute value

  bool operator==(const Rdn&) const = default;
};

/// An ordered sequence of RDNs, most-specific first (leaf convention used by
/// Zeek and OpenSSL one-line output: "CN=...,OU=...,O=...,C=...").
class DistinguishedName {
 public:
  DistinguishedName() = default;
  explicit DistinguishedName(std::vector<Rdn> rdns);

  /// Parses an RFC 4514-style string. Handles backslash escaping of the
  /// special characters , + " \ < > ; = and leading '#'/space. Returns
  /// nullopt on malformed input (dangling escape, missing '=').
  static std::optional<DistinguishedName> parse(std::string_view text);

  /// Convenience for tests and generators; aborts on malformed input.
  static DistinguishedName parse_or_die(std::string_view text);

  /// RFC 4514 form with escaping, kept in the body: a reference, never an
  /// allocation.
  const std::string& to_string() const { return body().display; }

  /// Canonical form for matching: attribute types uppercased and values
  /// lowercased with internal whitespace collapsed. Two names with equal
  /// canonical forms are considered the same entity (X.500 caseIgnoreMatch).
  /// Kept in the body like the display (DESIGN.md §16).
  const std::string& canonical() const { return body().canonical; }

  /// Matching per canonical form; a shared body matches without a compare.
  bool matches(const DistinguishedName& other) const {
    return body_ == other.body_ || canonical() == other.canonical();
  }

  bool empty() const { return rdns().empty(); }
  std::size_t size() const { return rdns().size(); }
  const std::vector<Rdn>& rdns() const { return body().rdns; }

  /// First value for the given attribute type (case-insensitive type match),
  /// or nullopt.
  std::optional<std::string> attribute(std::string_view type) const;

  /// Common accessors.
  std::optional<std::string> common_name() const { return attribute("CN"); }
  std::optional<std::string> organization() const { return attribute("O"); }
  std::optional<std::string> country() const { return attribute("C"); }

  /// Appends an RDN (builder-style use). Builds a new body, so copies taken
  /// before the call keep the name they had.
  DistinguishedName& add(std::string type, std::string value);

  /// Strict structural equality (types + values as written). The canonical
  /// and display forms are derived state and deliberately not compared.
  bool operator==(const DistinguishedName& other) const {
    return body_ == other.body_ || rdns() == other.rdns();
  }

  /// Stable 64-bit hash of the canonical form.
  std::uint64_t canonical_hash() const;

 private:
  struct Body {
    std::vector<Rdn> rdns;
    std::string canonical;  // derived from rdns, kept in lockstep
    std::string display;    // derived from rdns, kept in lockstep

    /// Appends `rdn` to the sequence and to both derived forms.
    void append(Rdn rdn);
  };

  /// The body behind this handle; a shared empty body for a default name.
  const Body& body() const { return body_ ? *body_ : empty_body(); }
  static const Body& empty_body();

  std::shared_ptr<const Body> body_;
};

/// Escapes one attribute value per RFC 4514.
std::string escape_dn_value(std::string_view value);

}  // namespace certchain::x509
