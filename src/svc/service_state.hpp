// The live corpus behind certchain_serve (DESIGN.md §12.3, durability §13,
// lock-free reads §15).
//
// ServiceState keeps everything a query needs warm between requests and
// serves it RCU-style: the entire read-side world — the analyzed StudyReport,
// the interception issuer set the chain categorizer consumes, the fleet
// epoch list and the generation stamp — lives in one immutable
// AnalysisSnapshot published through an atomic shared_ptr. Readers grab the
// current snapshot with a single atomic load and answer from it with **zero
// locks**; a reader that is mid-request keeps its snapshot alive (and
// byte-stable) no matter how many newer generations the writer publishes,
// and the snapshot is freed the instant its last reader drops it.
// `svc.snapshot.published` counts publications and the `svc.snapshot.live`
// gauge tracks how many generations are currently pinned (1 = only the
// current one).
//
// Writes stay serialized: ingest_append takes the writer mutex, folds the
// new rows through the same LogJoiner/CorpusIndex machinery the batch
// pipeline uses into writer-private state, re-analyzes eagerly, then builds
// the next snapshot off to the side and publishes it with one atomic store —
// so every answer reflects a complete, consistent analysis generation, never
// a half-updated one. Readers never wait for the (expensive) re-analysis.
// Each write publishes exactly once, and a snapshot shares its report and
// epoch list with its neighbours instead of copying them.
//
// Durability (opt-in via recover_and_arm): every append is committed to a
// write-ahead log before the fold, a snapshot compacts the log every N
// appends, and a restarted daemon replays snapshot + WAL tail back to a
// state whose report is byte-identical to a never-crashed run. Appends may
// carry an idempotency key; a key seen before (in memory, or replayed from
// the WAL after a crash) short-circuits to the original result, so client
// retries fold exactly once. The WAL-commit-before-fold order is unchanged:
// the new analysis generation is published only after the WAL commit.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chain/categorizer.hpp"
#include "chain/linter.hpp"
#include "chain/matcher.hpp"
#include "core/dn_pool.hpp"
#include "core/epoch_delta.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "ct/monitor.hpp"
#include "svc/telemetry.hpp"
#include "svc/wal.hpp"

namespace certchain::svc {

/// What categorize_chain answers for one submitted chain: the §3.2.2
/// category, the matched-path verdict, the hybrid classification when the
/// category warrants one, and the lint findings.
struct ChainVerdict {
  chain::ChainCategory category = chain::ChainCategory::kNonPublicDbOnly;
  chain::PathAnalysis paths;
  std::optional<chain::HybridClassification> hybrid;
  chain::LintReport lints;
  std::uint64_t generation = 0;  // corpus generation that answered
};

/// Durability configuration for recover_and_arm.
struct DurabilityOptions {
  std::string wal_path;
  /// Compact (snapshot + WAL reset) after this many appends; 0 = never.
  std::size_t snapshot_every = 0;
  /// Bound on the idempotency ledger: only the most recent N applied keys
  /// are remembered, evicted FIFO in commit order (0 = unbounded). Keeps
  /// ledger memory and snapshot size from growing with the daemon's
  /// lifetime; the trade-off is that a retry arriving after more than N
  /// newer keyed appends re-folds — pick N well above any client's retry
  /// horizon.
  std::size_t applied_ledger_max = 65536;
};

/// What a recovery pass found, for operator logs and telemetry.
struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t wal_records_seen = 0;     // intact records in the WAL
  std::uint64_t wal_records_applied = 0;  // folded during replay
  std::uint64_t wal_records_skipped = 0;  // <= snapshot seq or duplicate key
  std::uint64_t torn_bytes = 0;           // damaged tail truncated from the WAL
  std::uint64_t generation = 0;           // generation after recovery
};

/// One immutable, fully analyzed view of the corpus. Everything a read-only
/// request needs lives here, so a single atomic shared_ptr load yields a
/// self-consistent answer set: the report (corpus totals and unique chains
/// included), the interception issuer set, the fleet epochs and the
/// generation stamp all belong to the same publication. Snapshots are never
/// mutated after publication — a reader holding one can render from it for
/// as long as it likes while newer generations come and go. The report and
/// the epoch list are shared, immutable parts: a publication that changes
/// only one of them carries the other over by pointer.
struct AnalysisSnapshot {
  std::shared_ptr<const core::StudyReport> report;
  /// Completed fleet epochs (index order). The fleet_status / epoch_delta
  /// endpoints and the "fleet" report section answer from this list, so a
  /// reader sees epochs and corpus state from the same publication. The
  /// current snapshot's list is the service's epoch registry.
  std::shared_ptr<const std::vector<core::EpochSummary>> fleet_epochs;
  chain::InterceptionIssuerSet interception_issuers;
  std::uint64_t generation = 0;
};

class ServiceState {
 public:
  using SnapshotPtr = std::shared_ptr<const AnalysisSnapshot>;

  /// The referenced databases must outlive the state (same contract as
  /// StudyPipeline's).
  ServiceState(const truststore::TrustStoreSet& stores,
               const ct::CtLogSet& ct_logs, const core::VendorDirectory& vendors,
               const chain::CrossSignRegistry* registry = nullptr);
  ~ServiceState();

  /// Loads the initial corpus through the engine's fold (core::fold_input,
  /// lenient), replacing any previous state, runs the first analysis, and
  /// publishes generation 0. The fold runs off to the side on the service's
  /// DnPool and is swapped in only on success: a load that throws (a file
  /// that cannot be opened) leaves the serving generation, the corpus and
  /// the idempotency ledger as they were. Returns the fold's ingest
  /// accounting (unpopulated for records); the served report carries none,
  /// exactly as a load of the same records would.
  core::IngestReport load(const core::StudyInput& input);
  /// load() over parsed records.
  void load(const std::vector<zeek::SslLogRecord>& ssl,
            const std::vector<zeek::X509LogRecord>& x509) {
    load(core::StudyInput::records(ssl, x509));
  }

  /// Arms durability: restores any snapshot at snapshot_path_for(wal_path),
  /// replays the WAL tail (preserving original batch boundaries, skipping
  /// records the snapshot already absorbed and idempotency keys already
  /// applied), truncates the torn tail, and opens the WAL for appending.
  /// Call after load() and before serving. On failure the state is not
  /// durable and may hold a partially restored corpus — refuse to serve, or
  /// load() again and serve without durability.
  bool recover_and_arm(const DurabilityOptions& options, RecoveryStats* stats,
                       std::string* error);

  /// The current analysis snapshot: one atomic load, no lock. Hold the
  /// returned pointer for the duration of one request so every value you
  /// read belongs to the same generation; drop it promptly so superseded
  /// generations can be freed.
  SnapshotPtr acquire_snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// §3.2.1 issuer classification. The databases are immutable, so this
  /// needs no snapshot at all.
  truststore::IssuerClass classify_issuer(
      const x509::DistinguishedName& issuer) const;

  /// Categorizes a submitted chain exactly the way the batch pipeline
  /// categorizes corpus chains — same categorize_chain call against the
  /// live interception issuer set — plus the matched-path analysis, hybrid
  /// classification and lints. Lock-free: answers from one snapshot.
  ChainVerdict categorize_chain(const chain::CertificateChain& chain) const;

  /// Renders the selected report sections from the warm StudyReport.
  /// Lock-free; byte-identical to rendering a batch run over the same
  /// folded records. (Callers that also need the generation should
  /// acquire_snapshot() once and read both from it.)
  std::string report_section(const core::ReportTextOptions& options) const;

  /// Parses raw Zeek TSV body rows and folds them into the live corpus.
  /// Damaged rows are counted and skipped (the live fold is always lenient:
  /// a server must not die on one bad row). X509 rows are indexed before the
  /// SSL rows join, so an append can introduce a chain and its
  /// connections together; SSL rows referencing fuids never seen remain
  /// incomplete joins, exactly as in batch. Takes the writer mutex, folds
  /// and re-analyzes off to the side, then publishes the new snapshot with
  /// one atomic store — concurrent readers are never blocked and never see
  /// a half-updated corpus.
  ///
  /// When durability is armed the batch is committed to the WAL before the
  /// fold; a WAL write failure throws std::runtime_error with nothing folded
  /// (the client sees a typed error and may retry). A non-empty
  /// idempotency_key that was applied before returns the original result
  /// with duplicate=true and folds nothing.
  ///
  /// `epoch` records one completed fleet epoch in the same publication:
  /// it replaces the summary with the same index, else it is inserted in
  /// index order, so a retried or re-fed epoch lands once. On a duplicate
  /// key the corpus is unchanged, and the epoch republishes the current
  /// report with the updated list (no re-analysis). The epoch list is
  /// in-memory only; after a crash the fleet re-feeds it alongside its
  /// idempotent row appends (DESIGN.md §17.3).
  AppendResult ingest_append(const std::vector<std::string>& ssl_rows,
                             const std::vector<std::string>& x509_rows,
                             const std::string& idempotency_key = "",
                             std::optional<core::EpochSummary> epoch =
                                 std::nullopt);

  // --- snapshot accessors (each one atomic load, no lock) -----------------
  std::uint64_t generation() const { return acquire_snapshot()->generation; }
  std::size_t unique_chains() const {
    return acquire_snapshot()->report->unique_chains;
  }
  bool durable() const { return durable_; }

  // --- snapshot lifecycle observability (DESIGN.md §15.2) -----------------

  /// Mirrors snapshot lifecycle events into `telemetry`: the
  /// `svc.snapshot.published` counter and the `svc.snapshot.live` gauge
  /// (updated on every publication and every release, including releases on
  /// reader threads). Pass nullptr to detach; the caller must detach before
  /// the telemetry object is destroyed. The server attaches on start() and
  /// detaches when its teardown completes.
  void attach_telemetry(SyncTelemetry* telemetry);

  /// How many analysis generations are currently alive (the published one
  /// plus any pinned by in-flight readers). Test observability.
  std::int64_t live_snapshots() const;
  /// How many snapshots have ever been published: one per write (load, a
  /// recovery that folded anything, a fresh append, a duplicate append that
  /// carries an epoch). The empty snapshot a state serves before load() is
  /// not a publication.
  std::uint64_t snapshots_published() const;

  // --- CT subsystem (DESIGN.md §14.5) -------------------------------------
  // The CtLogSet is immutable while serving (issuance happened at world
  // build time), so these need no corpus snapshot; the monitor carries its
  // own mutex for the background poll thread.

  /// Current signed tree heads of every known log, in log order.
  std::vector<std::pair<std::string, ct::TreeHead>> ct_sths() const;

  /// Inclusion proof for a logged certificate fingerprint. Searches the
  /// named log (by id) or, with an empty log_id, every log in order.
  /// nullopt when no log holds the fingerprint — the handler answers
  /// NOT_FOUND.
  struct CtInclusionAnswer {
    std::string log_id;
    std::size_t index = 0;
    std::size_t tree_size = 0;
    ct::Digest256 root;
    std::vector<ct::Digest256> proof;
  };
  std::optional<CtInclusionAnswer> ct_prove_inclusion(
      std::string_view fingerprint, std::string_view log_id = {}) const;

  /// Arms the continuous monitor over every log in the set. Idempotent;
  /// returns the monitor for the caller's poll loop.
  ct::Monitor& arm_ct_monitor(const ct::MonitorConfig& config = {},
                              obs::MetricsRegistry* metrics = nullptr);
  /// The armed monitor, or nullptr before arm_ct_monitor.
  ct::Monitor* ct_monitor() { return ct_monitor_.get(); }
  const ct::Monitor* ct_monitor() const { return ct_monitor_.get(); }

 private:
  /// Counts live/published snapshots and mirrors them into the attached
  /// telemetry. Shared by the state and every snapshot's deleter, so a
  /// release on a reader thread (after the state moved on, or even after it
  /// died) still lands: the control block outlives both.
  struct SnapshotTracker {
    std::atomic<std::int64_t> live{0};
    std::atomic<std::uint64_t> published{0};
    std::mutex mutex;                    // guards telemetry (attach/detach)
    SyncTelemetry* telemetry = nullptr;  // nullptr = detached

    void on_publish();
    void on_release();
  };

  using ReportPtr = std::shared_ptr<const core::StudyReport>;
  using EpochListPtr = std::shared_ptr<const std::vector<core::EpochSummary>>;

  /// Builds the snapshot of `report` and `fleet_epochs` at the writer's
  /// generation. The one place a snapshot's tracker deleter is written:
  /// every snapshot counts as live from here until its last holder drops it.
  SnapshotPtr make_snapshot(ReportPtr report, EpochListPtr fleet_epochs) const;
  /// Publishes one generation built by make_snapshot with a single atomic
  /// store. Caller holds writer_mutex_.
  void publish_locked(ReportPtr report, EpochListPtr fleet_epochs);
  /// Re-analyzes the writer-side corpus. Caller holds writer_mutex_.
  ReportPtr analyze_locked() const;
  /// Parses + folds one batch under the writer mutex (shared by live
  /// appends and WAL replay, so both produce identical corpus states).
  /// Publishes nothing: an append publishes once after its fold, a WAL
  /// replay once after its last.
  AppendResult fold_batch_locked(const std::vector<std::string>& ssl_rows,
                                 const std::vector<std::string>& x509_rows);
  /// Writes the compaction snapshot and resets the WAL. Best-effort: a
  /// failed compaction leaves the WAL intact, so recovery still works — it
  /// just replays more.
  void maybe_compact_locked();
  /// Records one applied keyed append in the idempotency ledger, evicting
  /// the oldest entries past applied_ledger_max_ (FIFO: applied_order_
  /// carries the keys in commit order).
  void remember_applied_locked(AppliedAppend applied);

  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
  const chain::CrossSignRegistry* registry_;
  core::StudyPipeline pipeline_;
  std::unique_ptr<ct::Monitor> ct_monitor_;

  // --- read side: the published snapshot ----------------------------------
  std::atomic<SnapshotPtr> snapshot_;
  std::shared_ptr<SnapshotTracker> tracker_;

  // --- write side (all guarded by writer_mutex_) ---------------------------
  mutable std::mutex writer_mutex_;
  /// The service's DN interning pool (DESIGN.md §16). Declared before
  /// joiner_ so it outlives it; every certificate the joiner builds across
  /// appends carries this pool's ids, and re-analysis classifies issuers by
  /// id. load() replaces the corpus but keeps the pool — ids stay stable
  /// for the life of the state, stale entries are just idle memory.
  core::DnPool dn_pool_;
  zeek::LogJoiner joiner_;          // grows across appends
  core::CorpusIndex corpus_;
  std::uint64_t generation_ = 0;    // bumps on every successful append

  // --- durability (guarded by writer_mutex_ once serving starts) -----------
  WriteAheadLog wal_;
  bool durable_ = false;
  std::size_t snapshot_every_ = 0;
  std::size_t appends_since_snapshot_ = 0;
  /// Raw X509 rows since load() whose fuid was new to the joiner when they
  /// folded — the minimal set that rebuilds the joiner on snapshot restore
  /// (LogJoiner::add is first-observation-wins, so a re-observed fuid
  /// contributes nothing a replay could miss).
  std::vector<std::string> appended_x509_rows_;
  std::map<std::string, AppliedAppend> applied_; // idempotency ledger
  std::deque<std::string> applied_order_;        // ledger keys, commit order
  std::size_t applied_ledger_max_ = 0;
};

}  // namespace certchain::svc
