// The interned-DN pool (DESIGN.md §16).
//
// Every distinguished name the ingest path sees is canonicalized exactly
// once — at intern time — and mapped to a dense DnId, which the joiner
// stamps on each certificate. From then on the analysis compares 32-bit ids
// instead of re-canonicalizing strings: issuer classification is a memo
// load per id (truststore::IssuerClassifier), and categorization's
// interception-issuer test is an id-set probe.
//
// Two intern entry points serve the two ingest shapes:
//
//   intern(raw)    raw RFC 4514 bytes from a log field. A raw-bytes memo
//                  (arena-backed keys) skips DN parsing entirely when the
//                  same spelling recurs — the common case, since X509 rows
//                  repeat a small set of issuers thousands of times. A
//                  malformed DN degrades to a single CN=<raw> RDN, byte-for-
//                  byte the lenient behaviour the joiner always had.
//   intern(name)   an already-parsed DistinguishedName, keyed by its
//                  canonical form.
//
// Ids are pool-local, and a study run has exactly one pool: only its joiner
// interns, on the coordinating thread, so workers only ever read a complete
// pool and no two pools' ids ever meet. A parallel fold's workers parse DNs
// off the pool; the joiner hands their parses over in row order
// (intern_raw(raw, parsed)), so ids come out as a serial fold assigns them.
//
// Distinct spellings that canonicalize equally ("CN=Example" vs
// "cn=example") share one id but keep their own parsed form: name_for_raw()
// returns the parse of *those* bytes, so certificates built through the pool
// render exactly as they would without it (byte-identity of reports).
//
// Entries are DistinguishedName handles held by value: each body (RDNs,
// canonical form, display) lives on the heap and is shared with every
// certificate the joiner builds from it, so the pool keeps no display copy
// and canonical()/display() are views into the shared body.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/dn_id.hpp"
#include "x509/distinguished_name.hpp"

namespace certchain::core {

class DnPool {
 public:
  DnPool() = default;
  DnPool(const DnPool&) = delete;
  DnPool& operator=(const DnPool&) = delete;
  DnPool(DnPool&&) = default;
  DnPool& operator=(DnPool&&) = default;

  /// Id plus the parse of exactly one raw spelling. For a spelling that
  /// collides canonically with an earlier entry, `name` is the variant parse
  /// of *these* bytes, not the pool entry — display fidelity is preserved.
  struct Interned {
    DnId id = kInvalidDnId;
    const x509::DistinguishedName* name = nullptr;
  };

  /// Interns the raw RFC 4514 text of one log field (lenient). Repeated
  /// spellings hit the raw-bytes memo and never touch the parser.
  DnId intern(std::string_view raw) { return intern_raw(raw).id; }

  /// Interns an already-parsed DN by canonical form.
  DnId intern(const x509::DistinguishedName& name);

  /// Raw-bytes intern returning both the id and the spelling's parse — the
  /// joiner's entry point (one hash lookup covers both).
  Interned intern_raw(std::string_view raw);

  /// The same for a spelling already parsed off the pool (a worker-built
  /// certificate's DN, DESIGN.md §10.2): `parsed` must be the lenient parse
  /// of `raw`, and a miss keeps it, sharing its body, instead of parsing
  /// again.
  Interned intern_raw(std::string_view raw,
                      const x509::DistinguishedName& parsed);

  /// The parse of exactly these raw bytes (interning them if new).
  const x509::DistinguishedName& name_for_raw(std::string_view raw) {
    return *intern_raw(raw).name;
  }

  /// Id for a canonical form already present, or kInvalidDnId.
  DnId find_canonical(std::string_view canonical) const;

  /// The first-interned DistinguishedName behind `id`.
  const x509::DistinguishedName& name(DnId id) const { return entries_[id]; }

  /// Canonical form of `id`; a view into the entry's shared body.
  std::string_view canonical(DnId id) const { return entries_[id].canonical(); }

  /// RFC 4514 display form of `id`; a view into the entry's shared body.
  std::string_view display(DnId id) const { return entries_[id].to_string(); }

  std::size_t size() const { return entries_.size(); }

 private:
  /// Bump-allocating byte arena for memo keys; views into it stay valid for
  /// the pool's lifetime.
  std::string_view arena_store(std::string_view bytes);

  /// Adds `name`, whose canonical form the pool does not hold yet.
  DnId intern_parsed(x509::DistinguishedName name);
  /// Files a new spelling's parse: a new entry, the entry it equals, or a
  /// variant; then remembers `raw` for it.
  Interned remember_raw(std::string_view raw, x509::DistinguishedName parsed);

  // Canonical and display views point into the entries' heap bodies, so
  // they survive deque growth and pool moves; Interned::name points at the
  // handles themselves, which a deque never relocates.
  std::deque<x509::DistinguishedName> entries_;
  // Variant parses: spellings whose canonical form was already interned.
  std::deque<x509::DistinguishedName> variants_;

  std::unordered_map<std::string_view, DnId> by_canonical_;
  std::unordered_map<std::string_view, Interned> by_raw_;

  std::vector<std::unique_ptr<char[]>> arena_chunks_;
  std::size_t arena_used_ = 0;
  std::size_t arena_capacity_ = 0;
};

}  // namespace certchain::core
