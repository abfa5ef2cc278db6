// Internal helpers of the analysis (pipeline.cpp) behind StudyPipeline.
//
// The differential guarantee — every input kind and thread count produces
// byte-identical reports and identical deterministic counters — is cheap to
// uphold because one code path serves them all: the fold never sees the
// pool, and in the analysis a pool only changes how many consecutive ranges
// run_shards splits the work into, every range running the same body and
// classifying issuers on the run's one DnPool. The counter-publishing blocks
// read the merged result, so no execution strategy publishes its own
// numbers. Not part of the public API.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/run_context.hpp"

namespace certchain::par {
class ThreadPool;
}  // namespace certchain::par

namespace certchain::core::detail {

/// Opens a StageTimer only when telemetry is attached.
std::optional<obs::StageTimer> stage_timer(obs::RunContext* obs,
                                           const char* name);

/// Publishes the reserved manifest triple for one stage.
void publish_stage(obs::RunContext* obs, const char* stage, std::uint64_t in,
                   std::uint64_t admitted, std::uint64_t dropped);

/// Splits [0, total) into `shards` consecutive ranges and runs
/// `body(shard, begin, end)` on each: on `pool` when there is one, else
/// inline in shard order. With a pool, each shard's wall time is attached
/// under the open span as `<stage>.shard<k>`.
void run_shards(
    par::ThreadPool* pool, std::size_t shards, std::size_t total,
    obs::RunContext* obs, const std::string& stage,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body);

/// The per-category slice view stage 2 hands to the structure/graph stages.
using CategorySlices =
    std::map<chain::ChainCategory, std::vector<const ChainObservation*>>;

/// Stage-2 accumulator: the per-chain categorization fold, one per shard,
/// merged in shard order. Chains must be added in corpus iteration order
/// within a fold; merging folds of consecutive corpus ranges in range order
/// then reproduces one fold over the whole corpus exactly — including the
/// order of slice vectors, Figure 1 length series and excluded outliers.
struct CategorizeFold {
  CategorySlices slices;
  std::map<chain::ChainCategory, CategoryUsage> categories;
  std::map<chain::ChainCategory, std::vector<std::size_t>> chain_lengths;
  std::vector<ExcludedOutlier> excluded_outliers;
  util::Counter<std::uint16_t> ports_hybrid;

  /// Folds one categorized chain in (the body of the stage-2 loop).
  void add(const ChainObservation& observation, chain::ChainCategory category);

  /// Appends another fold; call in shard-index order.
  void merge_from(CategorizeFold&& other);

  /// Moves everything except `slices` into the report and counts each
  /// category's distinct clients from its slice.
  void finish(StudyReport& report);
};

// Per-stage counter publication, always computed from the (merged) report so
// runs at different thread counts cannot disagree. Each is a no-op without
// obs.
void publish_join_counters(obs::RunContext* obs, const StudyReport& report);
void publish_enrich_counters(obs::RunContext* obs, const StudyReport& report);
void publish_categorize_counters(obs::RunContext* obs, const StudyReport& report);
void publish_structure_counters(obs::RunContext* obs,
                                const CategorySlices& slices);
void publish_graph_counters(obs::RunContext* obs, const StudyReport& report);
void publish_ct_compliance_counters(obs::RunContext* obs,
                                    const StudyReport& report);

}  // namespace certchain::core::detail
