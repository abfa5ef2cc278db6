#include "svc/service_state.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/stream_checkpoint.hpp"
#include "obs/run_context.hpp"
#include "zeek/log_io.hpp"

namespace certchain::svc {

namespace {

using EpochList = std::vector<core::EpochSummary>;

/// `epochs` with `summary` recorded: it replaces the entry with the same
/// index, else it is inserted in index order.
std::shared_ptr<const EpochList> with_epoch(const EpochList& epochs,
                                            core::EpochSummary summary) {
  auto next = std::make_shared<EpochList>(epochs);
  const auto at = std::lower_bound(
      next->begin(), next->end(), summary.index,
      [](const core::EpochSummary& epoch, std::size_t index) {
        return epoch.index < index;
      });
  if (at != next->end() && at->index == summary.index) {
    *at = std::move(summary);
  } else {
    next->insert(at, std::move(summary));
  }
  return next;
}

}  // namespace

void ServiceState::SnapshotTracker::on_publish() {
  published.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(mutex);
  if (telemetry != nullptr) {
    telemetry->count("svc.snapshot.published");
    telemetry->set_gauge(
        "svc.snapshot.live",
        static_cast<double>(live.load(std::memory_order_acquire)));
  }
}

void ServiceState::SnapshotTracker::on_release() {
  const std::int64_t now = live.fetch_sub(1, std::memory_order_acq_rel) - 1;
  std::lock_guard<std::mutex> lock(mutex);
  if (telemetry != nullptr) {
    telemetry->set_gauge("svc.snapshot.live", static_cast<double>(now));
  }
}

ServiceState::ServiceState(const truststore::TrustStoreSet& stores,
                           const ct::CtLogSet& ct_logs,
                           const core::VendorDirectory& vendors,
                           const chain::CrossSignRegistry* registry)
    : stores_(&stores),
      ct_logs_(&ct_logs),
      registry_(registry),
      pipeline_(stores, ct_logs, vendors, registry),
      tracker_(std::make_shared<SnapshotTracker>()) {
  joiner_.set_dn_pool(&dn_pool_);
  // Never serve a null snapshot: before load() the state answers as an
  // empty, unanalyzed corpus. It is live but not a publication; load()
  // publishes generation 0.
  snapshot_.store(make_snapshot(std::make_shared<const core::StudyReport>(),
                                std::make_shared<const EpochList>()),
                  std::memory_order_release);
}

ServiceState::~ServiceState() {
  // Releases after this point (our own snapshot below, or a straggling
  // reader that outlives us) must not touch the telemetry object.
  attach_telemetry(nullptr);
}

void ServiceState::attach_telemetry(SyncTelemetry* telemetry) {
  std::lock_guard<std::mutex> lock(tracker_->mutex);
  tracker_->telemetry = telemetry;
  if (telemetry != nullptr) {
    telemetry->set_gauge(
        "svc.snapshot.live",
        static_cast<double>(tracker_->live.load(std::memory_order_acquire)));
  }
}

std::int64_t ServiceState::live_snapshots() const {
  return tracker_->live.load(std::memory_order_acquire);
}

std::uint64_t ServiceState::snapshots_published() const {
  return tracker_->published.load(std::memory_order_acquire);
}

core::IngestReport ServiceState::load(const core::StudyInput& input) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&dn_pool_);
  core::CorpusIndex corpus;
  obs::RunContext scratch;
  core::IngestReport ingest =
      core::fold_input(input, core::RunOptions{}, joiner, corpus, scratch);
  joiner_ = std::move(joiner);
  corpus_ = std::move(corpus);
  generation_ = 0;
  appended_x509_rows_.clear();
  applied_.clear();
  applied_order_.clear();
  publish_locked(analyze_locked(), std::make_shared<const EpochList>());
  return ingest;
}

bool ServiceState::recover_and_arm(const DurabilityOptions& options,
                                   RecoveryStats* stats, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    durable_ = false;
    wal_.close();
    return false;
  };

  RecoveryStats local;
  RecoveryStats& out = stats != nullptr ? *stats : local;
  out = RecoveryStats{};
  applied_ledger_max_ = options.applied_ledger_max;

  // Phase 1: snapshot, if one exists. A missing snapshot just means the WAL
  // carries everything since the base load.
  SvcSnapshot snapshot;  // wal_seq = 0: replay everything
  const std::string snap_path = snapshot_path_for(options.wal_path);
  if (const std::optional<std::string> text = core::read_file_text(snap_path)) {
    std::string decode_error;
    std::optional<SvcSnapshot> decoded =
        decode_svc_snapshot(*text, joiner_, corpus_, &decode_error);
    if (!decoded) return fail("snapshot decode failed: " + decode_error);
    snapshot = *std::move(decoded);
    out.snapshot_loaded = true;
    generation_ = snapshot.generation;
    appended_x509_rows_ = snapshot.appended_x509_rows;
    applied_.clear();
    applied_order_.clear();
    // Feed the ledger back in commit order (wal_seq) so FIFO eviction after
    // recovery drops the same entries it would have dropped live.
    std::stable_sort(snapshot.applied.begin(), snapshot.applied.end(),
                     [](const AppliedAppend& a, const AppliedAppend& b) {
                       return a.result.wal_seq < b.result.wal_seq;
                     });
    for (AppliedAppend& entry : snapshot.applied) {
      remember_applied_locked(std::move(entry));
    }
  }

  // Phase 2: WAL tail. Damage is expected (that is what a kill -9 leaves);
  // replay reports it and open() truncates it.
  std::string replay_error;
  std::optional<WalReplay> replayed =
      WriteAheadLog::replay(options.wal_path, &replay_error);
  if (!replayed) return fail("wal replay failed: " + replay_error);
  out.torn_bytes = replayed->torn_bytes;
  out.wal_records_seen = replayed->records.size();

  durable_ = true;  // fold_batch_locked tracks appended rows from here on
  snapshot_every_ = options.snapshot_every;
  appends_since_snapshot_ = 0;

  std::uint64_t last_seq = snapshot.wal_seq;
  bool folded = false;
  for (const WalRecord& record : replayed->records) {
    last_seq = std::max(last_seq, record.seq);
    if (record.seq <= snapshot.wal_seq) {
      ++out.wal_records_skipped;  // the snapshot already absorbed it
      continue;
    }
    if (!record.idempotency_key.empty() &&
        applied_.count(record.idempotency_key) != 0) {
      ++out.wal_records_skipped;  // a retry the pre-crash run already folded
      continue;
    }
    // Batch boundaries are preserved: join completeness depends on which
    // X509 records the joiner held when each batch folded.
    AppendResult result = fold_batch_locked(record.ssl_rows, record.x509_rows);
    result.wal_seq = record.seq;
    folded = true;
    ++out.wal_records_applied;
    if (!record.idempotency_key.empty()) {
      remember_applied_locked({record.idempotency_key, result});
    }
  }
  // One analysis + publication at the end covers every replayed fold; the
  // snapshot alone also needs it (load() analyzed only the base corpus).
  if (out.snapshot_loaded || folded) {
    publish_locked(analyze_locked(), acquire_snapshot()->fleet_epochs);
  }

  std::string open_error;
  if (!wal_.open(options.wal_path, replayed->good_bytes, last_seq + 1,
                 &open_error)) {
    return fail("wal open failed: " + open_error);
  }
  out.generation = generation_;
  return true;
}

truststore::IssuerClass ServiceState::classify_issuer(
    const x509::DistinguishedName& issuer) const {
  return stores_->classify_issuer(issuer);
}

ChainVerdict ServiceState::categorize_chain(
    const chain::CertificateChain& submitted) const {
  const SnapshotPtr snapshot = acquire_snapshot();
  ChainVerdict verdict;
  verdict.generation = snapshot->generation;
  verdict.category = chain::categorize_chain(submitted, *stores_,
                                             snapshot->interception_issuers);
  // The matched-path verdict mirrors the batch analyzers' conventions:
  // hybrid chains get the §4.2 leaf-plausibility test, the non-public and
  // interception analyses disable it (§4.3).
  const bool require_leaf = verdict.category == chain::ChainCategory::kHybrid;
  verdict.paths = chain::analyze_paths(submitted, registry_, require_leaf);
  if (verdict.category == chain::ChainCategory::kHybrid) {
    verdict.hybrid = chain::classify_hybrid(submitted, *stores_, registry_);
  }
  chain::LintOptions lint_options;
  lint_options.registry = registry_;
  verdict.lints = chain::lint_chain(submitted, lint_options);
  return verdict;
}

std::string ServiceState::report_section(
    const core::ReportTextOptions& options) const {
  const SnapshotPtr snapshot = acquire_snapshot();
  return core::render_report_text(*snapshot->report, options);
}

AppendResult ServiceState::ingest_append(
    const std::vector<std::string>& ssl_rows,
    const std::vector<std::string>& x509_rows,
    const std::string& idempotency_key,
    std::optional<core::EpochSummary> epoch) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Only writers store snapshots, so under the writer mutex the current one
  // is the state this write starts from; its epoch list is the registry.
  const SnapshotPtr current = acquire_snapshot();
  EpochListPtr fleet_epochs = current->fleet_epochs;
  if (epoch.has_value()) {
    fleet_epochs = with_epoch(*fleet_epochs, *std::move(epoch));
  }

  if (!idempotency_key.empty()) {
    const auto it = applied_.find(idempotency_key);
    if (it != applied_.end()) {
      // The corpus is unchanged: a re-fed epoch republishes the current
      // report by pointer with the updated list, and nothing re-analyzes.
      if (fleet_epochs != current->fleet_epochs) {
        publish_locked(current->report, std::move(fleet_epochs));
      }
      AppendResult result = it->second.result;
      result.duplicate = true;
      return result;
    }
  }

  // Durable order is WAL first, fold second: a crash after the commit
  // replays the batch; a crash before it means the client never got an ACK
  // and retries. There is no window where an acknowledged batch can vanish.
  std::uint64_t seq = 0;
  if (durable_) {
    WalRecord record;
    record.idempotency_key = idempotency_key;
    record.ssl_rows = ssl_rows;
    record.x509_rows = x509_rows;
    std::string wal_error;
    if (!wal_.append(record, &wal_error)) {
      throw std::runtime_error("wal append failed: " + wal_error);
    }
    seq = record.seq;
  }

  AppendResult result = fold_batch_locked(ssl_rows, x509_rows);
  result.wal_seq = seq;
  publish_locked(analyze_locked(), std::move(fleet_epochs));
  if (!idempotency_key.empty()) {
    remember_applied_locked({idempotency_key, result});
  }
  if (durable_) {
    ++appends_since_snapshot_;
    maybe_compact_locked();
  }
  return result;
}

std::vector<std::pair<std::string, ct::TreeHead>> ServiceState::ct_sths() const {
  // The log set is immutable while serving — no corpus snapshot needed.
  std::vector<std::pair<std::string, ct::TreeHead>> heads;
  heads.reserve(ct_logs_->log_count());
  for (std::size_t i = 0; i < ct_logs_->log_count(); ++i) {
    const ct::CtLog& log = ct_logs_->log(i);
    heads.emplace_back(log.log_id(), log.tree_head());
  }
  return heads;
}

std::optional<ServiceState::CtInclusionAnswer> ServiceState::ct_prove_inclusion(
    std::string_view fingerprint, std::string_view log_id) const {
  for (std::size_t i = 0; i < ct_logs_->log_count(); ++i) {
    const ct::CtLog& log = ct_logs_->log(i);
    if (!log_id.empty() && log.log_id() != log_id) continue;
    const auto index = log.entry_index_for(fingerprint);
    if (!index) continue;
    CtInclusionAnswer answer;
    answer.log_id = log.log_id();
    answer.index = *index;
    answer.tree_size = log.size();
    answer.root = log.root_hash();
    answer.proof = log.prove_inclusion_at(*index, log.size());
    return answer;
  }
  return std::nullopt;
}

ct::Monitor& ServiceState::arm_ct_monitor(const ct::MonitorConfig& config,
                                          obs::MetricsRegistry* metrics) {
  if (ct_monitor_ == nullptr) {
    ct_monitor_ = std::make_unique<ct::Monitor>(config, metrics);
    for (std::size_t i = 0; i < ct_logs_->log_count(); ++i) {
      ct_monitor_->watch(std::make_shared<ct::CtLogView>(ct_logs_->log(i)));
    }
  }
  return *ct_monitor_;
}

ServiceState::SnapshotPtr ServiceState::make_snapshot(
    ReportPtr report, EpochListPtr fleet_epochs) const {
  auto next = std::make_unique<AnalysisSnapshot>();
  next->interception_issuers = report->interception.issuer_set();
  next->report = std::move(report);
  next->fleet_epochs = std::move(fleet_epochs);
  next->generation = generation_;
  // The deleter routes the eventual release (possibly on a reader thread,
  // possibly after this state died) through the shared tracker, which is
  // what keeps the `svc.snapshot.live` gauge honest.
  tracker_->live.fetch_add(1, std::memory_order_acq_rel);
  return SnapshotPtr(next.release(),
                     [control = tracker_](const AnalysisSnapshot* snapshot) {
                       delete snapshot;
                       control->on_release();
                     });
}

void ServiceState::publish_locked(ReportPtr report, EpochListPtr fleet_epochs) {
  // Build the whole next generation off to the side, then publish it with a
  // single atomic store.
  SnapshotPtr next = make_snapshot(std::move(report), std::move(fleet_epochs));
  tracker_->on_publish();
  snapshot_.store(std::move(next), std::memory_order_release);
}

ServiceState::ReportPtr ServiceState::analyze_locked() const {
  return std::make_shared<const core::StudyReport>(
      pipeline_.analyze(corpus_, nullptr, &dn_pool_));
}

AppendResult ServiceState::fold_batch_locked(
    const std::vector<std::string>& ssl_rows,
    const std::vector<std::string>& x509_rows) {
  AppendResult result;
  // X509 rows index before the SSL rows join, so an append can introduce a
  // chain and its connections together (same contract as the batch fold).
  for (const std::string& row : x509_rows) {
    const std::optional<zeek::X509LogRecord> record = zeek::parse_x509_row(row);
    if (!record) {
      ++result.x509_malformed;
      continue;
    }
    ++result.x509_added;
    // Snapshot only rows whose fuid actually inserts: add() is
    // first-observation-wins, so a re-observed fuid contributes nothing a
    // snapshot replay could miss — and retried or overlapping batches stop
    // growing the snapshot.
    if (durable_ && joiner_.find(record->fuid) == nullptr) {
      appended_x509_rows_.push_back(row);
    }
    joiner_.add(*record);
  }
  // SSL rows fold as views, the engine's path: nothing is materialized.
  for (const std::string& row : ssl_rows) {
    if (const auto view = zeek::parse_ssl_row_view(row)) {
      ++result.ssl_added;
      corpus_.add(joiner_, *view);
    } else {
      ++result.ssl_malformed;
    }
  }
  ++generation_;
  result.generation = generation_;
  result.unique_chains = corpus_.unique_chain_count();
  result.connections = corpus_.totals().connections;
  return result;
}

void ServiceState::maybe_compact_locked() {
  if (snapshot_every_ == 0 || appends_since_snapshot_ < snapshot_every_) return;

  SvcSnapshot snapshot;
  snapshot.generation = generation_;
  snapshot.wal_seq = wal_.next_seq() - 1;  // last committed seq
  snapshot.appended_x509_rows = appended_x509_rows_;
  snapshot.applied.reserve(applied_order_.size());
  // Commit order, so a restored ledger evicts in the same order this one
  // would have.
  for (const std::string& key : applied_order_) {
    snapshot.applied.push_back(applied_.at(key));
  }

  // Snapshot first, reset second — a crash between the two leaves both the
  // snapshot and a WAL whose records the snapshot already absorbed; replay's
  // seq check skips them. A failed write keeps the old snapshot and the full
  // WAL: recovery just replays more.
  const std::string text = encode_svc_snapshot(snapshot, corpus_);
  if (!core::write_file_atomic(snapshot_path_for(wal_.path()), text)) return;
  std::string reset_error;
  wal_.reset(&reset_error);  // tolerated: see above
  appends_since_snapshot_ = 0;
}

void ServiceState::remember_applied_locked(AppliedAppend applied) {
  applied_order_.push_back(applied.key);
  applied_[applied.key] = std::move(applied);
  while (applied_ledger_max_ != 0 &&
         applied_order_.size() > applied_ledger_max_) {
    applied_.erase(applied_order_.front());
    applied_order_.pop_front();
  }
}

}  // namespace certchain::svc
