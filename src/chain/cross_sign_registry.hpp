// Cross-signing knowledge base.
//
// Cross-signed CAs make a textual issuer–subject comparison report a
// mismatch even though the chain is valid (Appendix D.1): the same CA key is
// certified under two different issuer names. The paper suppresses these
// false positives by consulting Zeek's validation verdicts and CA
// cross-signing disclosures [32]. CrossSignRegistry is that knowledge base:
// a set of (issuer DN, subject DN) pairs that must be treated as matching,
// plus DN equivalence groups ("these two names identify the same CA").
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "x509/distinguished_name.hpp"

namespace certchain::chain {

class CrossSignRegistry {
 public:
  /// Declares that a certificate whose issuer is `issuer` may legitimately
  /// follow a certificate whose subject is `subject` (directed pair, read as
  /// "issuer-of-lower-cert is known to cross-sign as subject-of-upper-cert").
  void add_pair(const x509::DistinguishedName& issuer,
                const x509::DistinguishedName& subject);

  /// Declares two DNs as naming the same CA entity (symmetric; e.g. the CA's
  /// self-operated root name and its cross-signed intermediate name).
  void add_equivalence(const x509::DistinguishedName& a,
                       const x509::DistinguishedName& b);

  /// True if the (issuer, subject) pair should be accepted despite the
  /// textual mismatch.
  bool covers(const x509::DistinguishedName& issuer,
              const x509::DistinguishedName& subject) const;

  std::size_t pair_count() const { return pairs_.size(); }
  std::size_t equivalence_count() const;

 private:
  const std::string* find_root(std::string_view canonical) const;

  /// Transparent lexicographic compare over (DN, DN) pairs: std::pair has no
  /// heterogeneous operator<, so covers() could not otherwise probe with a
  /// pair of string_views.
  struct PairLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const std::string_view a_first = a.first, a_second = a.second;
      const std::string_view b_first = b.first, b_second = b.second;
      if (a_first != b_first) return a_first < b_first;
      return a_second < b_second;
    }
  };

  // Transparent comparators: covers() probes with the certificates' cached
  // canonical forms without building key strings or pairs of them.
  std::set<std::pair<std::string, std::string>, PairLess> pairs_;
  // Union-find over canonical DNs, path-compressed on mutation only (lookup
  // is const); groups are tiny so the linear find is fine.
  std::map<std::string, std::string, std::less<>> parent_;
};

}  // namespace certchain::chain
