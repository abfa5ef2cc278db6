// The certchain.svc.wal v1 ingest write-ahead log and the
// certchain.svc.snapshot v1 compaction snapshot (DESIGN.md §13).
//
// Every ingest_append batch the serving layer accepts is committed here —
// raw TSV rows plus the client's idempotency key — *before* the in-memory
// fold runs, so a crash at any point between the wire ACK and the next
// startup can lose nothing a client was told succeeded. The file layout:
//
//   bytes 0..3   magic "CWAL"
//   byte  4      format version (kWalVersion)
//   bytes 5..7   reserved, must be zero
//   then records, each:
//     bytes 0..3   payload length, unsigned 32-bit big-endian
//     bytes 4..11  FNV-1a64 of the payload, big-endian
//     bytes 12..   payload: one JSON object
//                  {"seq":n,"key":"...","ssl_rows":[...],"x509_rows":[...]}
//
// following the certchain.stream.checkpoint v1 idiom from DESIGN.md §11:
// schema-versioned, checksummed, and replayed defensively. Replay accepts
// the longest prefix of intact records and reports everything after it as a
// torn tail — the expected end state of a kill -9 mid-write — which the
// recovery path truncates away before re-arming the log for appends. A
// record that fails its checksum mid-file also ends replay there: bytes
// after damage have no trustworthy framing.
//
// The snapshot is the WAL's compaction partner: a JSON document capturing
// the complete post-fold serving state (corpus snapshot, appended X509 rows,
// generation, applied idempotency keys, last absorbed WAL seq). Recovery is
// snapshot + WAL-tail replay; compaction writes a fresh snapshot and resets
// the WAL so replay cost stays bounded no matter how long the daemon lives.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/corpus.hpp"
#include "obs/json.hpp"

namespace certchain::svc {

inline constexpr std::string_view kWalSchemaName = "certchain.svc.wal";
inline constexpr std::uint8_t kWalVersion = 1;
inline constexpr std::string_view kWalMagic = "CWAL";
inline constexpr std::size_t kWalHeaderBytes = 8;
inline constexpr std::size_t kWalRecordHeaderBytes = 12;
/// Upper bound on one record's payload; a declared length beyond this is
/// damage, not an allocation request (same stance as the wire decoder).
inline constexpr std::size_t kMaxWalPayloadBytes = 64 * 1024 * 1024;

inline constexpr std::string_view kSvcSnapshotSchema = "certchain.svc.snapshot";
inline constexpr int kSvcSnapshotVersion = 1;

/// One committed ingest_append batch.
struct WalRecord {
  std::uint64_t seq = 0;            // strictly increasing, 1-based
  std::string idempotency_key;      // empty = none supplied
  std::vector<std::string> ssl_rows;
  std::vector<std::string> x509_rows;
};

/// What replaying a WAL file found.
struct WalReplay {
  std::vector<WalRecord> records;   // the intact prefix, in commit order
  std::uint64_t good_bytes = 0;     // file offset after the last intact record
  std::uint64_t torn_bytes = 0;     // bytes of torn/damaged tail dropped
  bool header_valid = false;        // magic + version checked out
};

/// Append-side handle. One writer at a time (the serving layer holds its
/// exclusive corpus lock across commits, so this needs no locking of its
/// own). Every append is flushed and fsynced before it returns — the fold
/// must never run ahead of the disk.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog() { close(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Replays an existing WAL file. A missing file is a valid empty log
  /// (records empty, header_valid true), and so is a file shorter than the
  /// header whose bytes are a prefix of a valid header — the state a crash
  /// between open(O_CREAT) and the header fsync leaves behind; open()
  /// re-stamps it. Returns nullopt with `error` set only on real I/O
  /// failure or a foreign/unsupported header — damaged record bytes are
  /// never an error, they are the torn tail.
  static std::optional<WalReplay> replay(const std::string& path,
                                         std::string* error);

  /// Opens (creating if needed) the log for appending, truncating any torn
  /// tail found by a prior replay(). `next_seq` seeds the sequence counter
  /// (1 + the last durable seq, from replay/snapshot).
  bool open(const std::string& path, std::uint64_t good_bytes,
            std::uint64_t next_seq, std::string* error);

  /// Commits one record: encode, length+checksum frame, write, fsync.
  /// Assigns and returns the record's seq via `record.seq`. On failure the
  /// file is rolled back (ftruncate) to the last committed record so damage
  /// can never sit beneath a later acknowledged append; if the rollback
  /// itself fails the log is poisoned and every further append refuses
  /// until a restart recovers. Either way the failed record's seq is not
  /// consumed — a retry reuses it.
  bool append(WalRecord& record, std::string* error);

  /// A poisoned log holds unaccounted bytes it could not truncate away; it
  /// accepts no appends (fail closed) until recovery reopens it.
  bool poisoned() const { return poisoned_; }

  /// Test-only fault injection: the next append() writes only half its
  /// frame and then reports failure — the shape ENOSPC leaves — so tests
  /// can exercise the rollback path on a healthy disk. With
  /// `rollback_fails`, the rollback is skipped as if ftruncate failed,
  /// leaving the log poisoned.
  void inject_torn_append_for_test(bool rollback_fails = false) {
    injected_fault_ = rollback_fails ? InjectedFault::kTornWriteNoRollback
                                     : InjectedFault::kTornWrite;
  }

  /// Atomically replaces the log with a fresh, empty one (post-snapshot
  /// compaction). The seq counter keeps counting — seq is global to the
  /// serving state's lifetime, not to one file generation.
  bool reset(std::string* error);

  void close();

  const std::string& path() const { return path_; }
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t bytes_on_disk() const { return bytes_on_disk_; }

 private:
  enum class InjectedFault { kNone, kTornWrite, kTornWriteNoRollback };

  int fd_ = -1;
  std::string path_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t bytes_on_disk_ = 0;
  bool poisoned_ = false;
  InjectedFault injected_fault_ = InjectedFault::kNone;
};

/// Encodes one record's framed bytes (record header + JSON payload) —
/// exposed so tests can construct torn tails byte-precisely.
std::string encode_wal_record(const WalRecord& record);
/// The 8-byte file header.
std::string encode_wal_header();

// --- snapshot ---------------------------------------------------------------

/// Accounting for one ingest_append call.
struct AppendResult {
  std::uint64_t ssl_added = 0;
  std::uint64_t x509_added = 0;
  std::uint64_t ssl_malformed = 0;
  std::uint64_t x509_malformed = 0;
  std::uint64_t generation = 0;     // generation after the fold
  std::uint64_t unique_chains = 0;  // corpus state after the fold
  std::uint64_t connections = 0;
  bool duplicate = false;           // idempotency key seen before; not re-folded
  std::uint64_t wal_seq = 0;        // 0 when the state is not durable
};

/// One applied append remembered for idempotent replay of client retries.
/// The snapshot stores every result field except `duplicate`, which a
/// replayed answer sets.
struct AppliedAppend {
  std::string key;
  AppendResult result;
};

/// The complete durable serving state at one generation.
struct SvcSnapshot {
  std::uint64_t generation = 0;
  std::uint64_t wal_seq = 0;        // last WAL seq folded into this snapshot
  std::vector<std::string> appended_x509_rows;  // since the base corpus load
  std::vector<AppliedAppend> applied;           // idempotency ledger
};

/// Serializes snapshot + corpus fold state into the schema-versioned JSON
/// document (the corpus block reuses CorpusIndex::write_snapshot, exactly as
/// stream checkpoints do).
std::string encode_svc_snapshot(const SvcSnapshot& snapshot,
                                const core::CorpusIndex& corpus);

/// Parses a snapshot document, feeds the appended X509 rows back into the
/// base-loaded joiner, and restores the corpus fold state by resolving chain
/// fingerprints against the joiner's certificate view (exactly how stream
/// checkpoints restore, DESIGN.md §11). Returns nullopt with `error` set on
/// schema/version mismatch or malformed content; the joiner and corpus are
/// left in an unspecified state on failure — recovery must start over.
std::optional<SvcSnapshot> decode_svc_snapshot(std::string_view text,
                                               zeek::LogJoiner& joiner,
                                               core::CorpusIndex& corpus,
                                               std::string* error);

/// The snapshot path derived from a WAL path.
std::string snapshot_path_for(const std::string& wal_path);

}  // namespace certchain::svc
