#include "core/pipeline_detail.hpp"

#include "obs/stopwatch.hpp"
#include "par/thread_pool.hpp"

namespace certchain::core::detail {

using chain::ChainCategory;

std::optional<obs::StageTimer> stage_timer(obs::RunContext* obs,
                                           const char* name) {
  std::optional<obs::StageTimer> timer;
  if (obs != nullptr) timer.emplace(*obs, name);
  return timer;
}

void publish_stage(obs::RunContext* obs, const char* stage, std::uint64_t in,
                   std::uint64_t admitted, std::uint64_t dropped) {
  if (obs == nullptr) return;
  const std::string prefix = std::string("stage.") + stage + ".";
  obs->metrics.count(prefix + "in", in);
  obs->metrics.count(prefix + "admitted", admitted);
  obs->metrics.count(prefix + "dropped", dropped);
}

void run_shards(
    par::ThreadPool* pool, std::size_t shards, std::size_t total,
    obs::RunContext* obs, const std::string& stage,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  std::vector<double> wall(shards, 0.0);
  par::parallel_for_chunks(
      pool, total, shards,
      [&body, &wall](std::size_t shard, std::size_t begin, std::size_t end) {
        const obs::Stopwatch watch;
        body(shard, begin, end);
        wall[shard] = watch.elapsed_ms();
      });
  // Worker-measured spans attach on this thread: the Trace is not
  // thread-safe.
  if (pool == nullptr || obs == nullptr) return;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    obs->trace.attach_closed(stage + ".shard" + std::to_string(shard),
                             wall[shard]);
  }
}

void CategorizeFold::add(const ChainObservation& observation,
                         ChainCategory category) {
  slices[category].push_back(&observation);

  CategoryUsage& usage = categories[category];
  ++usage.chains;
  usage.connections += observation.connections;

  // Figure 1 series with the outlier rule.
  if (observation.chain.length() > StudyPipeline::kOutlierLength &&
      observation.connections == 1) {
    ExcludedOutlier outlier;
    outlier.length = observation.chain.length();
    outlier.category = category;
    outlier.connections = observation.connections;
    outlier.established_any = observation.established > 0;
    excluded_outliers.push_back(outlier);
  } else {
    chain_lengths[category].push_back(observation.chain.length());
  }

  if (category == ChainCategory::kHybrid) {
    for (const auto& [port, count] : observation.ports.items()) {
      ports_hybrid.add(port, count);
    }
  }
}

void CategorizeFold::merge_from(CategorizeFold&& other) {
  for (auto& [category, observations] : other.slices) {
    auto& mine = slices[category];
    mine.insert(mine.end(), observations.begin(), observations.end());
  }
  for (const auto& [category, usage] : other.categories) {
    CategoryUsage& mine = categories[category];
    mine.chains += usage.chains;
    mine.connections += usage.connections;
  }
  for (auto& [category, lengths] : other.chain_lengths) {
    auto& mine = chain_lengths[category];
    mine.insert(mine.end(), lengths.begin(), lengths.end());
  }
  excluded_outliers.insert(excluded_outliers.end(),
                           other.excluded_outliers.begin(),
                           other.excluded_outliers.end());
  ports_hybrid.merge_from(other.ports_hybrid);
}

void CategorizeFold::finish(StudyReport& report) {
  report.categories = std::move(categories);
  report.chain_lengths = std::move(chain_lengths);
  report.excluded_outliers = std::move(excluded_outliers);
  report.ports_hybrid = std::move(ports_hybrid);
  for (const auto& [category, observations] : slices) {
    report.categories[category].client_ips =
        CorpusIndex::distinct_clients(observations);
  }
}

void publish_join_counters(obs::RunContext* obs, const StudyReport& report) {
  if (obs == nullptr) return;
  obs::MetricsRegistry& metrics = obs->metrics;
  metrics.count("pipeline.connections", report.totals.connections);
  metrics.count("pipeline.connections.tls13", report.totals.tls13_connections);
  metrics.count("pipeline.connections.incomplete_joins",
                report.totals.incomplete_joins);
  metrics.count("pipeline.unique_chains", report.unique_chains);
  metrics.count("pipeline.distinct_certificates",
                report.totals.distinct_certificates);
}

void publish_enrich_counters(obs::RunContext* obs, const StudyReport& report) {
  if (obs == nullptr) return;
  obs->metrics.count("enrich.interception.issuers",
                     report.interception.findings.size());
  obs->metrics.count("enrich.interception.unconfirmed",
                     report.interception.unconfirmed_candidates.size());
}

void publish_categorize_counters(obs::RunContext* obs,
                                 const StudyReport& report) {
  if (obs == nullptr) return;
  obs::MetricsRegistry& metrics = obs->metrics;
  for (const auto& [category, usage] : report.categories) {
    const std::string slug = obs::metric_slug(chain::chain_category_name(category));
    metrics.count("categorize.chains." + slug, usage.chains);
    metrics.count("categorize.connections." + slug, usage.connections);
  }
  for (const auto& [category, lengths] : report.chain_lengths) {
    for (const std::size_t length : lengths) {
      metrics.observe("pipeline.chain_length", static_cast<double>(length));
    }
  }
}

void publish_structure_counters(obs::RunContext* obs,
                                const CategorySlices& slices) {
  if (obs == nullptr) return;
  obs::MetricsRegistry& metrics = obs->metrics;
  const auto slice_size = [&slices](ChainCategory category) -> std::uint64_t {
    const auto it = slices.find(category);
    return it == slices.end() ? 0 : it->second.size();
  };
  metrics.count("structure.hybrid.chains", slice_size(ChainCategory::kHybrid));
  metrics.count("structure.non_public.chains",
                slice_size(ChainCategory::kNonPublicDbOnly));
  metrics.count("structure.interception.chains",
                slice_size(ChainCategory::kTlsInterception));
}

void publish_graph_counters(obs::RunContext* obs, const StudyReport& report) {
  if (obs == nullptr) return;
  obs::MetricsRegistry& metrics = obs->metrics;
  const auto graph_counters = [&metrics](const char* name, const PkiGraph& graph) {
    const std::string prefix = std::string("graphs.") + name + ".";
    metrics.count(prefix + "nodes", graph.node_count());
    metrics.count(prefix + "issuance_links", graph.issuance_links().size());
    metrics.count(prefix + "complex_intermediates",
                  graph.complex_intermediates().size());
  };
  graph_counters("hybrid", report.hybrid_graph);
  graph_counters("non_public", report.non_public_graph);
  graph_counters("interception", report.interception_graph);
}

void publish_ct_compliance_counters(obs::RunContext* obs,
                                    const StudyReport& report) {
  if (obs == nullptr) return;
  obs::MetricsRegistry& metrics = obs->metrics;
  const auto bucket_counters = [&metrics](const char* name,
                                          const CtComplianceBucket& bucket) {
    const std::string prefix = std::string("ct.compliance.") + name + ".";
    metrics.count(prefix + "chains", bucket.chains);
    metrics.count(prefix + "ct_logged", bucket.ct_logged);
    metrics.count(prefix + "with_scts", bucket.with_scts);
    metrics.count(prefix + "policy_compliant", bucket.policy_compliant);
  };
  bucket_counters("public", report.ct_compliance.public_db);
  bucket_counters("non_public_hierarchical",
                  report.ct_compliance.non_public_hierarchical);
  bucket_counters("self_contained", report.ct_compliance.self_contained);
}

}  // namespace certchain::core::detail
