#include "core/pipeline.hpp"

#include <functional>
#include <optional>
#include <set>

#include "core/pipeline_detail.hpp"
#include "obs/resource.hpp"
#include "obs/run_context.hpp"
#include "par/thread_pool.hpp"
#include "truststore/issuer_classifier.hpp"
#include "zeek/joiner.hpp"

namespace certchain::core {

using chain::ChainCategory;
using detail::publish_stage;
using detail::stage_timer;

std::string_view ingest_mode_name(IngestMode mode) {
  switch (mode) {
    case IngestMode::kStrict: return "strict";
    case IngestMode::kLenient: return "lenient";
  }
  return "unknown";
}

StudyReport StudyPipeline::run(const StudyInput& input, const RunOptions& options,
                               obs::RunContext* obs) const {
  // Ingestion accounting always flows through a registry; without an
  // injected context a run-local one keeps the single-source guarantee.
  obs::RunContext local;
  obs::RunContext& ctx = obs != nullptr ? *obs : local;
  ctx.set_config("input.kind", input.describe());
  std::optional<par::ThreadPool> workers;
  if (const std::size_t threads = par::resolve_threads(options.threads);
      threads > 1) {
    workers.emplace(threads);
    ctx.set_config("par.threads", static_cast<std::uint64_t>(workers->size()));
  }
  par::ThreadPool* pool = workers.has_value() ? &*workers : nullptr;

  // The run's one DnPool. Only the joiner interns into it, on this thread,
  // so it is complete and read-only before any worker compares its ids.
  DnPool dn_pool;
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&dn_pool);
  CorpusIndex corpus;
  IngestReport ingest;
  {
    obs::StageTimer timer(ctx, "ingest");
    ingest = fold_input(input, options, joiner, corpus, ctx);
  }
  if (ingest.populated) {
    // The stage triple counts rows that carried (or should have carried)
    // data; header/comment lines are neither admitted nor dropped.
    const std::uint64_t records = ingest.ssl.records + ingest.x509.records;
    publish_stage(&ctx, "ingest", records + ingest.skipped_total(), records,
                  ingest.skipped_total());
  }

  StudyReport report = analyze_corpus(pool, corpus, obs, dn_pool);
  report.ingest = std::move(ingest);
  if (input.streamed()) {
    ctx.metrics.set_gauge("mem.peak_rss_bytes",
                          static_cast<double>(obs::peak_rss_bytes()));
  }
  return report;
}

StudyReport StudyPipeline::analyze(const CorpusIndex& corpus,
                                   obs::RunContext* obs,
                                   const DnPool* dn_pool) const {
  return analyze_corpus(nullptr, corpus, obs, *dn_pool);
}

StudyReport StudyPipeline::analyze_corpus(par::ThreadPool* pool,
                                          const CorpusIndex& corpus,
                                          obs::RunContext* obs,
                                          const DnPool& dn_pool) const {
  auto pipeline_timer = stage_timer(obs, "pipeline");
  StudyReport report;
  report.totals = corpus.totals();
  report.unique_chains = corpus.unique_chain_count();
  publish_stage(obs, "join", report.totals.connections,
                report.totals.with_certificates,
                report.totals.connections - report.totals.with_certificates);
  detail::publish_join_counters(obs, report);

  // The per-chain stages split the unique chains, in corpus order, into one
  // consecutive range per worker; merging the per-range results in range
  // order replays the one-range fold exactly.
  const std::size_t shards = pool == nullptr ? 1 : pool->size();
  std::vector<const ChainObservation*> observations;
  observations.reserve(corpus.chains().size());
  for (const auto& [chain_id, observation] : corpus.chains()) {
    observations.push_back(&observation);
  }

  // Stage 1: certificate enrichment — interception identification (the
  // issuer classification itself happens lazily via the trust-store set).
  chain::InterceptionIssuerSet interception_issuers;
  {
    auto timer = stage_timer(obs, "enrich");
    const InterceptionDetector detector(*stores_, *ct_logs_, *vendors_);
    report.interception = detector.detect(corpus, pool);
    interception_issuers = report.interception.issuer_set();
  }
  publish_stage(obs, "enrich", report.unique_chains, report.unique_chains, 0);
  detail::publish_enrich_counters(obs, report);

  // Stage 2: chain categorization + usage statistics + Figure 1 data. The
  // per-certificate work is a DnId set probe plus a memo load; each range
  // gets its own classifier, whose memo mutates on lookup.
  detail::CategorySlices slices;
  {
    auto timer = stage_timer(obs, "categorize");
    const std::set<DnId> interception_ids =
        chain::issuer_ids_for(interception_issuers, dn_pool);
    std::vector<detail::CategorizeFold> folds(shards);
    detail::run_shards(
        pool, shards, observations.size(), obs, "categorize",
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          truststore::IssuerClassifier classifier(*stores_, dn_pool);
          for (std::size_t i = begin; i < end; ++i) {
            const ChainObservation& observation = *observations[i];
            folds[shard].add(observation,
                             chain::categorize_chain(observation.chain,
                                                     classifier,
                                                     interception_issuers,
                                                     interception_ids));
          }
        });
    for (std::size_t i = 1; i < shards; ++i) {
      folds[0].merge_from(std::move(folds[i]));
    }
    folds[0].finish(report);
    slices = std::move(folds[0].slices);
  }
  publish_stage(obs, "categorize", report.unique_chains, report.unique_chains, 0);
  publish_stage(obs, "figure1", report.unique_chains,
                report.unique_chains - report.excluded_outliers.size(),
                report.excluded_outliers.size());
  detail::publish_categorize_counters(obs, report);

  // The three analyzed slices, materialized before any shard runs: map
  // operator[] inserts, and the map must not mutate under the workers.
  const std::vector<const ChainObservation*>& hybrid_slice =
      slices[ChainCategory::kHybrid];
  const std::vector<const ChainObservation*>& non_public_slice =
      slices[ChainCategory::kNonPublicDbOnly];
  const std::vector<const ChainObservation*>& interception_slice =
      slices[ChainCategory::kTlsInterception];
  // Stages 3 and 4 are three independent const computations over disjoint
  // slices, writing distinct report fields: one task each on a pool.
  const auto run_tasks = [pool, obs](
                             const char* stage,
                             const std::vector<std::function<void()>>& tasks) {
    detail::run_shards(
        pool, pool == nullptr ? 1 : tasks.size(), tasks.size(), obs, stage,
        [&tasks](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) tasks[i]();
        });
  };

  // Stage 3: per-category structure analysis. The hybrid analyzer builds its
  // own per-call classifier, so the shared pool stays read-only.
  {
    auto timer = stage_timer(obs, "structure");
    run_tasks("structure",
              {[&] {
                 const HybridAnalyzer analyzer(*stores_, *ct_logs_, dn_pool,
                                               registry_);
                 report.hybrid = analyzer.analyze(hybrid_slice);
               },
               [&] {
                 const NonPublicAnalyzer analyzer(registry_);
                 report.non_public =
                     analyzer.analyze("Non-public-DB-only", non_public_slice);
               },
               [&] {
                 const NonPublicAnalyzer analyzer(registry_);
                 report.interception_chains =
                     analyzer.analyze("TLS interception", interception_slice);
               }});
  }
  const std::uint64_t structure_in = hybrid_slice.size() +
                                     non_public_slice.size() +
                                     interception_slice.size();
  publish_stage(obs, "structure", structure_in, structure_in, 0);
  detail::publish_structure_counters(obs, slices);

  // Stage 4: PKI relationship graphs.
  {
    auto timer = stage_timer(obs, "graphs");
    run_tasks("graphs",
              {[&] {
                 report.hybrid_graph =
                     build_pki_graph(hybrid_slice, *stores_, dn_pool);
               },
               [&] {
                 report.non_public_graph =
                     build_pki_graph(non_public_slice, *stores_, dn_pool);
               },
               [&] {
                 report.interception_graph =
                     build_pki_graph(interception_slice, *stores_, dn_pool);
               }});
  }
  publish_stage(obs, "graphs", structure_in, structure_in, 0);
  detail::publish_graph_counters(obs, report);

  // Stage 5: per-issuer-category CT compliance over the unique chains; the
  // per-range reports merge additively.
  {
    auto timer = stage_timer(obs, "ct_compliance");
    const CtComplianceAnalyzer ct_analyzer(*stores_, *ct_logs_);
    std::vector<CtComplianceReport> partials(shards);
    detail::run_shards(
        pool, shards, observations.size(), obs, "ct_compliance",
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            ct_analyzer.add(*observations[i], partials[shard]);
          }
        });
    report.ct_compliance = std::move(partials[0]);
    for (std::size_t i = 1; i < shards; ++i) {
      report.ct_compliance.merge_from(partials[i]);
    }
  }
  publish_stage(obs, "ct_compliance", report.unique_chains, report.unique_chains, 0);
  detail::publish_ct_compliance_counters(obs, report);

  return report;
}

}  // namespace certchain::core
