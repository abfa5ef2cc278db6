// The four workloads. Each runs against a prepared corpus (and, for the
// serving workloads, a daemon child), checks every answer, and returns its
// end-to-end metrics (untraced) or per-layer metrics (traced).
//
//   batch-serial  StudyPipeline::run(StudyInput::text), threads=1, + render
//   batch-stream  StudyPipeline::run(StudyInput::files), 4 MiB chunks,
//                 threads = nproc, + render
//   serve-read    open-loop reads against the loaded daemon: an offered-rate
//                 ladder for read_sustained_rps, then a fixed rate for
//                 read_p50_ms / read_p99_ms
//   live-fleet    a ScanFleet campaign whose epochs a closed-loop writer
//                 appends (WAL armed) while open-loop reads continue at a
//                 tenth of the serve-read rate
//
// Each workload reports only the end-to-end metrics it measures itself:
//   batch-*     rows_per_s, peak_rss_mb
//   serve-read  read_p50_ms, read_p99_ms, read_sustained_rps, peak_rss_mb
//   live-fleet  append_p50_ms, scan_targets_per_s, read_p50_ms, read_p99_ms,
//               peak_rss_mb
// and main.cpp adds setup_s to each.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "datagen/epoch_drift.hpp"
#include "server_child.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// A short traced pass that only fills in per-layer metrics a traced run
  /// of another workload does not exercise itself.
  bool mini = false;
};

struct WorkloadResult {
  MetricSet e2e;
  MetricSet layers;
  OpTally tally;
  std::vector<std::string> problems;  // why a correctness gate failed
  /// Per-op samples worth keeping for diagnosis (op wall times, rung
  /// rates); printed with the run's details, never used as a metric.
  std::map<std::string, std::vector<double>> samples;

  void gate(bool ok, const std::string& why) {
    tally.record(ok);
    if (!ok) problems.push_back(why);
  }
};

/// Serving constants (shared by both serving workloads). The rates are a
/// chosen operating point, not measured traffic: the fixed rate is about a
/// third of the rate at which the benchmark mix saturates a 2-worker daemon
/// on a 4-vCPU host, and the ladder climbs from it until the daemon
/// saturates.
inline constexpr std::size_t kServeWorkers = 2;
inline constexpr double kServeRate = 1000.0;      // serve-read fixed rate, req/s
inline constexpr double kLadderRatio = 1.12;
inline constexpr int kLadderRungs = 20;           // 1000 .. ~8600 req/s
inline constexpr double kRungSeconds = 0.35;
inline constexpr double kReadP99LimitMs = 50.0;   // the ladder's stated limit

/// Fleet epochs a live-fleet run of `spec` performs (fixed per duration so
/// the corpus grows identically on every run).
std::size_t fleet_epochs(const RunSpec& spec);

/// The drifted populations for a live-fleet run (mutates the scenario's
/// PKI world: construct it after every other workload has used the corpus).
std::unique_ptr<certchain::datagen::EpochDrifter> make_drifter(Corpus& corpus,
                                                               std::size_t epochs);

WorkloadResult run_batch(const Corpus& corpus, const RunSpec& spec, bool streamed);
WorkloadResult run_serve_read(const Corpus& corpus, const RunSpec& spec,
                              ServerHandle& server);
WorkloadResult run_live_fleet(const Corpus& corpus, const RunSpec& spec,
                              const certchain::datagen::EpochDrifter& drifter,
                              ServerHandle& server);

}  // namespace perfbench
