// Corpus indexing: from joined connections to deduplicated chains with usage
// statistics.
//
// The study counts three things per certificate chain: how many TLS
// connections delivered it, how many completed the handshake, and how many
// distinct client IPs were involved (§3.2.2, Table 2). CorpusIndex folds a
// stream of joined SSL/X509 records into one ChainObservation per unique
// chain (identity = ordered certificate fingerprints) plus corpus-wide
// counters, preserving exactly the fields the downstream analyzers read.
// SSL rows arrive either as owned records or as views into the log text
// (zeek::SslRowView, the engine's path); both feed one fold body. Client
// addresses are interned as dense ClientIds in first-seen order, so a
// chain's clients are an id vector and every distinct-client count in the
// analysis is one bitmap pass over ids (distinct_clients). One hash set of
// (chain, client) pairs keeps each vector unique at O(1) expected cost per
// row, however many clients a chain has. Snapshots store the addresses
// themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/chain.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "zeek/joiner.hpp"
#include "zeek/records.hpp"

namespace certchain::core {

/// A client address interned by one CorpusIndex: dense, in first-seen
/// order. An id means something only within the index (or a copy of the
/// index) that assigned it.
using ClientId = std::uint32_t;

/// Everything the study tracks about one unique certificate chain.
struct ChainObservation {
  chain::CertificateChain chain;

  std::uint64_t connections = 0;
  std::uint64_t established = 0;
  std::vector<ClientId> client_ips;  // unique, in insertion order
  std::set<std::string> server_keys;  // "ip:port" delivery points
  util::Counter<std::uint16_t> ports;
  std::uint64_t with_sni = 0;
  std::uint64_t without_sni = 0;
  std::set<std::string> domains;  // observed SNI values
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;
  /// Position in the owning CorpusIndex's chain creation order; with a
  /// ClientId it keys the index's (chain, client) set.
  std::uint32_t ordinal = 0;

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
  /// Folds connections in. Connections without certificates (TLS 1.3,
  /// resumed) contribute to totals only.
  void add(const zeek::JoinedConnection& connection);

  /// Fused join+fold (DESIGN.md §16). Resolves the row's fuids through the
  /// joiner's hashed index and folds the connection in place: no
  /// JoinedConnection is materialized, so the SSL record is never copied
  /// per row, and no certificate is copied at all — a chain first observed
  /// here holds handles to the joiner's sealed certificates. Byte-identical
  /// in effect to add(joiner.join(ssl)).
  void add(const zeek::LogJoiner& joiner, const zeek::SslLogRecord& ssl);

  /// The same fold over a row parsed in place — the engine's hot path. No
  /// per-row allocation in the steady state: the fuid-list key and the
  /// server key are built in reused scratch strings, a fuid or SNI cell is
  /// unescaped only when it holds a backslash, and fuid strings are
  /// materialized only when the fuid list is new to the memo.
  void add(const zeek::LogJoiner& joiner, const zeek::SslRowView& row);

  const std::map<std::string, ChainObservation>& chains() const { return chains_; }
  const CorpusTotals& totals() const { return totals_; }

  std::size_t unique_chain_count() const { return chains_.size(); }

  /// Number of distinct clients across ClientId lists of one index (each a
  /// ChainObservation::client_ips, or a union of some). Ids are dense, so
  /// this marks one bit per id.
  static std::size_t distinct_clients(
      const std::vector<const std::vector<ClientId>*>& id_lists);
  /// The same over the observations' client lists.
  static std::size_t distinct_clients(
      const std::vector<const ChainObservation*>& observations);

  /// Writes the complete fold state as one JSON object (the `corpus` block
  /// of a stream checkpoint, DESIGN.md §11). Chains are stored as ordered
  /// certificate fingerprints, not serialized certificates — every
  /// certificate in the corpus came out of the X509 log, so a resuming run
  /// re-derives the objects from its re-ingested records. Client ids are
  /// written as their addresses, sorted.
  void write_snapshot(obs::json::Writer& writer) const;

  /// Restores a write_snapshot() state into an empty index, interning the
  /// client addresses afresh. Fingerprints are resolved to the handles in
  /// `by_fingerprint` (LogJoiner::by_fingerprint() over the re-ingested X509
  /// records), so restored chains share the joiner's certificates; an
  /// unresolvable fingerprint or a malformed snapshot fails with `error`
  /// set and leaves the index cleared.
  bool restore_snapshot(const obs::json::Value& value,
                        const zeek::CertificateIndex& by_fingerprint,
                        std::string* error);

 private:
  /// What one SSL row contributes to the fold, whichever form it came in.
  /// The row's fuid-list key is in fold_.key.
  struct FoldRow {
    util::SimTime ts = 0;
    bool established = false;
    bool tls13 = false;
    std::string_view client;
    std::string_view server_host;
    std::uint16_t server_port = 0;
    const std::string* server_name = nullptr;  // unescaped; empty = no SNI
  };

  /// The fold's view of an owned record (server_name points into it).
  static FoldRow fold_row_of(const zeek::SslLogRecord& ssl);

  /// The one fused fold body behind both add(joiner, ...) overloads.
  void fold(const zeek::LogJoiner& joiner, const FoldRow& row);

  /// The per-connection usage tail shared by every fold entry point:
  /// first/last seen, establishment, client/server endpoints, SNI.
  void fold_usage(ChainObservation& observation, const FoldRow& row);

  /// The observation slot for `chain_id`; a new slot gets the next ordinal.
  ChainObservation& observation_slot(const std::string& chain_id);
  /// Appends `client` to the chain's clients unless it is there already.
  void add_client(ChainObservation& observation, ClientId client);

  /// Slow half of the fused fold: resolves the fuids in fold_.key, digests
  /// the chain id, and registers the chain — runs once per distinct fuid
  /// list, not per row.
  ChainObservation* resolve_and_register(const zeek::LogJoiner& joiner,
                                         bool& missing);

  ClientId intern_client(std::string_view address);
  void clear();
  /// What one fuid list folds to under the current joiner: the chain's
  /// observation slot (nullptr when no fuid resolved) and whether any fuid
  /// was missing. ChainObservation pointers are std::map nodes — stable.
  struct FoldMemoEntry {
    ChainObservation* observation = nullptr;
    bool missing = false;
  };

  /// The (chain, client) pairs already in some chain's client_ips, each
  /// `ordinal << 32 | id`: one flat open-addressing table with linear
  /// probing, so a lookup is O(1) expected and growth is the only
  /// allocation. ~0 marks an empty slot (no client gets id 2^32 - 1).
  struct ClientPairSet {
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    /// Adds `pair`; false when it was already there.
    bool insert(std::uint64_t pair);
    void clear() {
      slots.clear();
      size = 0;
    }
    std::vector<std::uint64_t> slots;  // power-of-two count, at most half full
    std::size_t size = 0;
  };

  /// Scratch reused across fused folds, so the per-row fold stays
  /// allocation-free (one CorpusIndex is only ever fed from one thread), and
  /// the fuid-list memo. The memo is valid only for one (joiner,
  /// certificate_count) snapshot: the joiner can grow between folds (svc
  /// appends X509 rows incrementally), and growth can turn a missing fuid
  /// into a resolved one. It points into the chain map, whose nodes survive
  /// moves, so moves keep it; a copy starts cold instead of inheriting
  /// pointers into the source.
  struct FoldState {
    FoldState() = default;
    FoldState(const FoldState&) {}
    FoldState& operator=(const FoldState&) {
      reset_memo();
      return *this;
    }
    FoldState(FoldState&&) = default;
    FoldState& operator=(FoldState&&) = default;

    void reset_memo() {
      memo.clear();
      joiner = nullptr;
      joiner_size = 0;
    }

    std::vector<const x509::CertificateHandle*> certs;
    std::string key;  // the row's fuids, each prefixed by its length
    std::string unescaped;
    std::string server_name;
    std::string server_key;
    std::string id_bytes;
    const zeek::LogJoiner* joiner = nullptr;
    std::size_t joiner_size = 0;
    std::unordered_map<std::string, FoldMemoEntry, util::StringHash,
                       std::equal_to<>>
        memo;
  };

  std::map<std::string, ChainObservation> chains_;  // by chain id
  /// Hashed; write_snapshot() sorts it.
  std::unordered_set<std::string> certificate_fingerprints_;
  CorpusTotals totals_;
  std::vector<std::string> client_addresses_;  // by ClientId
  std::unordered_map<std::string, ClientId, util::StringHash, std::equal_to<>>
      client_ids_;
  ClientPairSet chain_clients_;
  FoldState fold_;
};

}  // namespace certchain::core
