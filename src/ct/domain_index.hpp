// Sharded domain + validity index for CT log entries (DESIGN.md §14.2).
//
// The study-scale CtLog answered entries_for_domain with a std::map lookup
// plus a linear scan over *every* wildcard entry — O(wildcards) per query,
// which drowns at millions of entries. DomainIndex replaces both sides:
//
//   - names are label-sharded: shard = fnv1a64(lowercased key) % shard_count,
//     so large logs spread their postings across independent maps (and a
//     future concurrent ingest can lock per shard);
//   - exact names index under themselves; a wildcard `*.suffix` indexes
//     under its bucket key `suffix`. A query for `a.b.example` probes its
//     exact shard and the wildcard bucket of its parent suffix `b.example` —
//     RFC 6125 wildcards match exactly one extra left label, so that single
//     bucket covers every pattern that could match;
//   - every map uses a transparent comparator (std::less<>), so lookups are
//     heterogeneous string_view probes with zero per-query allocations
//     (the lowercase fold reuses one caller-provided buffer);
//   - postings carry the entry's validity range so time-windowed queries
//     (issuers_for_domain) can filter before touching the entry store.
//
// Semantics are proven identical to the legacy scan by the brute-force
// differential test in tests/test_ct_log.cpp. One deliberate nuance kept
// from the legacy code: a query string that is itself a wildcard pattern
// (e.g. "*.wild.example") matches entries carrying that exact pattern,
// because x509::wildcard_matches(p, p) is true — the bucket probe covers it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace certchain::ct {

/// One indexed (name -> entry) edge.
struct DomainPosting {
  std::uint32_t entry = 0;       // index into CtLog::entries()
  util::TimeRange validity;      // copied from the entry for early filtering
};

class DomainIndex {
 public:
  explicit DomainIndex(std::size_t shard_count = 16);

  /// Indexes one already-lowercased domain (exact name or `*.suffix`
  /// wildcard pattern) for `entry`.
  void add(std::string_view domain, std::uint32_t entry,
           const util::TimeRange& validity);

  /// Entry indices whose indexed names may cover `domain` (exact hits are
  /// definitive; wildcard-bucket hits still need x509::wildcard_matches
  /// re-verification by the caller). Sorted ascending, deduplicated.
  /// `domain` is matched case-insensitively.
  std::vector<std::uint32_t> candidates(std::string_view domain) const;

  /// Same, keeping only postings whose validity overlaps `period`.
  std::vector<std::uint32_t> candidates(std::string_view domain,
                                        const util::TimeRange& period) const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  using Bucket = std::map<std::string, std::vector<DomainPosting>, std::less<>>;

  struct Shard {
    Bucket exact;      // keyed by the full name
    Bucket wildcard;   // keyed by the suffix after "*."
  };

  const Shard& shard_for(std::string_view key) const;
  Shard& shard_for(std::string_view key);

  template <typename Filter>
  std::vector<std::uint32_t> collect(std::string_view domain,
                                     Filter&& keep) const;

  std::vector<Shard> shards_;
};

}  // namespace certchain::ct
