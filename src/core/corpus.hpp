// Corpus indexing: from joined connections to deduplicated chains with usage
// statistics.
//
// The study counts three things per certificate chain: how many TLS
// connections delivered it, how many completed the handshake, and how many
// distinct client IPs were involved (§3.2.2, Table 2). CorpusIndex folds a
// stream of joined SSL/X509 records into one ChainObservation per unique
// chain (identity = the digest of its ordered certificate fingerprints, a
// util::Digest256) plus corpus-wide counters, preserving exactly the fields
// the downstream analyzers read. SSL rows arrive as owned records, as views
// into the log text (zeek::SslRowView, the engine's path), or routed from a
// pool worker to the index that owns their chain (RoutedRow, the parallel
// fold of DESIGN.md §10.2); all feed one fold body. Client addresses are
// interned as dense ClientIds, so a chain's clients are an id vector and
// every distinct-client count in the analysis is one bitmap pass over ids
// (distinct_clients). One hash set of (chain, client) pairs keeps each
// vector unique at O(1) expected cost per row, however many clients a chain
// has. Snapshots store the addresses themselves, and digests as hex.
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

/// A client address interned by one CorpusIndex: dense, and otherwise
/// arbitrary. A serial fold numbers clients in first-seen order; a combined
/// parallel fold numbers them owner by owner. Nothing reads an id but as an
/// identity (distinct_clients bitmaps), and an id means something only
/// within the index (or a copy of the index) that assigned it.
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
  /// Unique per chain within the owning CorpusIndex (creation order, or
  /// chain-id order after a combine); with a ClientId it keys the index's
  /// (chain, client) set.
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

/// A cert_chain_fuids cell resolved against a joiner off the index: what a
/// pool worker makes of an SSL row's chain before the row goes to the index
/// that owns the chain (DESIGN.md §10.2). Only `observation` changes after
/// resolution, and only the owner of `id` touches it.
struct ResolvedChain {
  /// The joiner's handles of the fuids that resolved, in delivery order;
  /// empty when none did (the row has no chain and no owner).
  std::vector<const x509::CertificateHandle*> certs;
  util::Digest256 id;    // the chain id of `certs`
  bool missing = false;  // some fuid did not resolve
  /// The owner's observation slot, set by the owner's first fold of this
  /// entry.
  ChainObservation* observation = nullptr;
};

/// Resolves each distinct cert_chain_fuids cell once, through the joiner's
/// read-only find(): one resolver per pool worker, so workers share nothing
/// but the joiner. Entries stay put for the resolver's lifetime.
class ChainResolver {
 public:
  explicit ChainResolver(const zeek::LogJoiner& joiner) : joiner_(&joiner) {}

  ResolvedChain& resolve(std::string_view cell);

 private:
  const zeek::LogJoiner* joiner_;
  std::unordered_map<std::string, ResolvedChain, util::StringHash,
                     std::equal_to<>>
      memo_;
  std::string unescaped_;
};

/// One SSL row on its way to the index that owns its chain: the resolved
/// chain plus the fields the fold reads, views into the row's line.
struct RoutedRow {
  ResolvedChain* chain = nullptr;
  util::SimTime ts = 0;
  std::string_view client;
  std::string_view server_host;
  std::string_view server_name;  // the escaped cell; empty = no SNI
  std::uint16_t server_port = 0;
  bool established = false;
  bool tls13 = false;

  static RoutedRow of(const zeek::SslRowView& row, ResolvedChain* chain);
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
  /// per-row allocation in the steady state: the fuid memo is keyed by the
  /// raw cert_chain_fuids cell, the server key is built in a reused scratch
  /// string, an SNI cell is unescaped only when it holds a backslash, and
  /// fuids are split out of the cell only when it is new to the memo.
  void add(const zeek::LogJoiner& joiner, const zeek::SslRowView& row);

  /// The parallel fold's entry point: the row's chain registers in this
  /// index on the entry's first fold here, then the row folds through the
  /// same body as add(joiner, row). A row whose chain has an owner must
  /// come to that owner (owner_of); a chainless row adds to totals only,
  /// in any index.
  void add(const RoutedRow& row);

  /// The index, of `owners`, whose add(RoutedRow) folds chain `id`.
  static std::size_t owner_of(const util::Digest256& id, std::size_t owners) {
    return static_cast<std::size_t>(id.words[1] % owners);
  }

  /// Moves every chain, with its clients, into the index of `owners` that
  /// owns it (owner_of), which must not hold it already. This index keeps
  /// its totals and certificate set. A resumed parallel fold uses it to
  /// hand its restored chains out.
  void hand_off(std::vector<CorpusIndex>& owners);

  /// Folds `owners`, whose chains are disjoint from each other's and from
  /// this index's, into this index: the chain maps spliced, certificate
  /// sets united, totals summed, clients given one dense id space, ordinals
  /// renumbered in chain-id order and the (chain, client) set rebuilt
  /// (lazily, by the next add). The result accepts later add()s exactly as
  /// a serial fold of the same rows would. The owners are left without
  /// chains, holding only tables the caller frees. Throws std::logic_error
  /// when two indexes hold one chain.
  void combine(std::vector<CorpusIndex>& owners);

  /// The chains, in id order (which is the order of their hex ids).
  const std::map<util::Digest256, ChainObservation>& chains() const {
    return chains_;
  }
  const CorpusTotals& totals() const { return totals_; }

  std::size_t unique_chain_count() const { return chains_.size(); }

  /// The address interned as `id`.
  const std::string& client_address(ClientId id) const {
    return client_addresses_[id];
  }

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
  /// written as their addresses, sorted, and digests as lowercase hex.
  void write_snapshot(obs::json::Writer& writer) const;

  /// The snapshot of indexes holding disjoint chains: byte for byte what
  /// write_snapshot writes for their combine(). A parallel fold checkpoints
  /// its owners this way without combining them.
  static void write_snapshot(obs::json::Writer& writer,
                             const std::vector<const CorpusIndex*>& parts);

  /// Restores a write_snapshot() state into an empty index, interning the
  /// client addresses afresh. Fingerprints are resolved to the handles in
  /// `by_fingerprint` (LogJoiner::by_fingerprint() over the re-ingested X509
  /// records), so restored chains share the joiner's certificates. A chain
  /// id or certificate fingerprint that is not 64 lowercase hex digits, an
  /// unresolvable fingerprint or a malformed snapshot fails with `error`
  /// set and leaves the index cleared.
  bool restore_snapshot(const obs::json::Value& value,
                        const zeek::CertificateIndex& by_fingerprint,
                        std::string* error);

 private:
  /// What one SSL row contributes to the usage fold, whichever form it came
  /// in.
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
  /// The fold's view of a parsed row's fields; the SNI cell is unescaped
  /// into fold_.server_name.
  FoldRow fold_row_of(const RoutedRow& row);

  /// What one fuid list folds to under the current joiner: the chain's
  /// observation slot (nullptr when no fuid resolved) and whether any fuid
  /// was missing. ChainObservation pointers are std::map nodes — stable.
  struct FoldMemoEntry {
    ChainObservation* observation = nullptr;
    bool missing = false;
  };
  using FoldMemo = std::unordered_map<std::string, FoldMemoEntry,
                                      util::StringHash, std::equal_to<>>;

  /// The memo entry for `key` in `memo`; on a miss, resolves the fuids
  /// `for_each_fuid` visits, registers their chain and remembers it.
  template <typename ForEachFuid>
  FoldMemoEntry memo_entry(const zeek::LogJoiner& joiner, FoldMemo& memo,
                           std::string_view key, ForEachFuid&& for_each_fuid);

  /// The one fused fold body behind both add(joiner, ...) overloads.
  void fold(const FoldMemoEntry& entry, const FoldRow& row);

  /// The per-connection usage tail shared by every fold entry point:
  /// first/last seen, establishment, client/server endpoints, SNI.
  void fold_usage(ChainObservation& observation, const FoldRow& row);

  /// The observation slot for `chain_id`; a new slot gets the next ordinal.
  ChainObservation& observation_slot(const util::Digest256& chain_id);

  /// Appends `client` to the chain's clients unless it is there already.
  void add_client(ChainObservation& observation, ClientId client);
  /// Refills chain_clients_ from the chains' client lists (after combine).
  void rebuild_pairs();

  /// Registers the chain of the joiner's `certs`, whose id is `id`: their
  /// fingerprints join the distinct-certificate set, and a chain first
  /// observed shares the joiner's handles.
  ChainObservation& register_chain(
      const util::Digest256& id,
      const std::vector<const x509::CertificateHandle*>& certs);

  ClientId intern_client(std::string_view address);
  void clear();

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
    /// Empties the set and sizes it to take `pairs` inserts without growing.
    void reset(std::size_t pairs);
    std::vector<std::uint64_t> slots;  // power-of-two count, at most half full
    std::size_t size = 0;
  };

  /// Scratch reused across fused folds, so the per-row fold stays
  /// allocation-free (one CorpusIndex is fed from one thread at a time), and
  /// the fuid-list memos: one keyed by raw cert_chain_fuids cells (views),
  /// one by length-prefixed fuid lists (owned records). The memos are valid
  /// only for one (joiner, certificate_count) snapshot: the joiner can grow
  /// between folds (svc appends X509 rows incrementally), and growth can
  /// turn a missing fuid into a resolved one. They point into the chain map,
  /// whose nodes survive moves, so moves keep them; a copy starts cold
  /// instead of inheriting pointers into the source.
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
      cell_memo.clear();
      record_memo.clear();
      joiner = nullptr;
      joiner_size = 0;
    }

    std::vector<const x509::CertificateHandle*> certs;
    std::string key;  // an owned record's fuids, each prefixed by its length
    std::string unescaped;
    std::string server_name;
    std::string server_key;
    const zeek::LogJoiner* joiner = nullptr;
    std::size_t joiner_size = 0;
    FoldMemo cell_memo;
    FoldMemo record_memo;
  };

  std::map<util::Digest256, ChainObservation> chains_;  // by chain id
  /// Hashed; write_snapshot() sorts it.
  std::unordered_set<util::Digest256, util::Digest256Hash>
      certificate_fingerprints_;
  CorpusTotals totals_;
  std::vector<std::string> client_addresses_;  // by ClientId
  std::unordered_map<std::string, ClientId, util::StringHash, std::equal_to<>>
      client_ids_;
  ClientPairSet chain_clients_;
  bool pairs_stale_ = false;  // chain_clients_ awaits rebuild_pairs()
  FoldState fold_;
};

}  // namespace certchain::core
