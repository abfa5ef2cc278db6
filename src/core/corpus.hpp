// Corpus indexing: from joined connections to deduplicated chains with usage
// statistics.
//
// The study counts three things per certificate chain: how many TLS
// connections delivered it, how many completed the handshake, and how many
// distinct client IPs were involved (§3.2.2, Table 2). CorpusIndex folds a
// stream of joined SSL/X509 records into one ChainObservation per unique
// chain (identity = ordered certificate fingerprints) plus corpus-wide
// counters, preserving exactly the fields the downstream analyzers read.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chain/chain.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "zeek/joiner.hpp"

namespace certchain::core {

/// Everything the study tracks about one unique certificate chain.
struct ChainObservation {
  chain::CertificateChain chain;

  std::uint64_t connections = 0;
  std::uint64_t established = 0;
  std::set<std::string> client_ips;
  std::set<std::string> server_keys;  // "ip:port" delivery points
  util::Counter<std::uint16_t> ports;
  std::uint64_t with_sni = 0;
  std::uint64_t without_sni = 0;
  std::set<std::string> domains;  // observed SNI values
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;

  double establish_rate() const {
    return connections == 0 ? 0.0
                            : static_cast<double>(established) /
                                  static_cast<double>(connections);
  }
};

/// Corpus-wide counters that don't belong to a single chain.
struct CorpusTotals {
  std::uint64_t connections = 0;          // all SSL.log rows
  std::uint64_t with_certificates = 0;    // rows that delivered a chain
  std::uint64_t tls13_connections = 0;    // certificates invisible (§6.3)
  std::uint64_t incomplete_joins = 0;     // rows with missing fuids
  std::size_t distinct_certificates = 0;  // unique cert fingerprints
};

class CorpusIndex {
 public:
  CorpusIndex() = default;
  // The fold memo points into chains_: map nodes survive moves, so the
  // defaulted moves are sound, but a copy must not inherit pointers into the
  // source — copies start with a cold memo.
  CorpusIndex(const CorpusIndex& other)
      : chains_(other.chains_),
        certificate_fingerprints_(other.certificate_fingerprints_),
        totals_(other.totals_) {}
  CorpusIndex& operator=(const CorpusIndex& other) {
    chains_ = other.chains_;
    certificate_fingerprints_ = other.certificate_fingerprints_;
    totals_ = other.totals_;
    reset_fold_memo();
    return *this;
  }
  CorpusIndex(CorpusIndex&&) = default;
  CorpusIndex& operator=(CorpusIndex&&) = default;

  /// Folds connections in. Connections without certificates (TLS 1.3,
  /// resumed) contribute to totals only.
  void add(const zeek::JoinedConnection& connection);
  void add_all(const std::vector<zeek::JoinedConnection>& connections);

  /// Fused join+fold — the hot ingest path (DESIGN.md §16). Resolves the
  /// row's fuids against the joiner and folds the connection in place:
  /// no JoinedConnection is materialized, so the SSL record and the
  /// certificates are never copied per row; a chain is deep-copied exactly
  /// once, when its id is first observed. Byte-identical in effect to
  /// add(joiner.join(ssl)).
  void add(const zeek::LogJoiner& joiner, const zeek::SslLogRecord& ssl);

  const std::map<std::string, ChainObservation>& chains() const { return chains_; }
  const CorpusTotals& totals() const { return totals_; }

  std::size_t unique_chain_count() const { return chains_.size(); }

  /// Union of client IPs across a set of chain ids.
  static std::size_t distinct_clients(
      const std::vector<const ChainObservation*>& observations);

  /// Writes the complete fold state as one JSON object (the `corpus` block
  /// of a stream checkpoint, DESIGN.md §11). Chains are stored as ordered
  /// certificate fingerprints, not serialized certificates — every
  /// certificate in the corpus came out of the X509 log, so a resuming run
  /// re-derives the objects from its re-ingested records.
  void write_snapshot(obs::json::Writer& writer) const;

  /// Restores a write_snapshot() state into an empty index. Fingerprints are
  /// resolved through `by_fingerprint` (built from the re-ingested X509
  /// records); an unresolvable fingerprint or a malformed snapshot fails
  /// with `error` set and leaves the index cleared.
  bool restore_snapshot(
      const obs::json::Value& value,
      const std::map<std::string, x509::Certificate>& by_fingerprint,
      std::string* error);

 private:
  std::map<std::string, ChainObservation> chains_;  // by chain id
  std::set<std::string> certificate_fingerprints_;
  CorpusTotals totals_;

  /// Slow half of the fused fold: resolves fuids, digests the chain id, and
  /// registers the chain — runs once per distinct fuid list, not per row.
  ChainObservation* resolve_and_register(const zeek::LogJoiner& joiner,
                                         const zeek::SslLogRecord& ssl,
                                         bool& missing);

  void reset_fold_memo() {
    fold_memo_.clear();
    fold_joiner_ = nullptr;
    fold_joiner_size_ = 0;
  }

  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  /// What one fuid list folds to under the current joiner: the chain's
  /// observation slot (nullptr when no fuid resolved) and whether any fuid
  /// was missing. ChainObservation pointers are std::map nodes — stable.
  struct FoldMemoEntry {
    ChainObservation* observation = nullptr;
    bool missing = false;
  };

  // Scratch reused across fused add(joiner, ssl) calls so the per-row fold
  // stays allocation-free (one CorpusIndex is only ever fed from one thread).
  std::vector<const x509::Certificate*> fold_certs_;
  std::string fold_id_bytes_;
  std::string fold_fingerprint_;
  std::string fold_key_;
  // Fuid-list memo, valid only for one (joiner, certificate_count) snapshot:
  // the joiner can grow between folds (svc appends X509 rows incrementally),
  // and growth can turn a missing fuid into a resolved one.
  const zeek::LogJoiner* fold_joiner_ = nullptr;
  std::size_t fold_joiner_size_ = 0;
  std::unordered_map<std::string, FoldMemoEntry, TransparentHash,
                     std::equal_to<>>
      fold_memo_;
};

}  // namespace certchain::core
