// The certificate chain structure analyzer (Figure 2).
//
// StudyPipeline wires the stages of the paper's pipeline together:
//
//   Certificate Enrichment  -> issuer classification against the public
//                              databases + interception identification
//   Chain Categorization    -> public-DB-only / non-public-DB-only / hybrid /
//                              TLS interception (§3.2.2, Table 2)
//   Mismatch & Cross-sign   -> issuer-subject matching with the registry
//   Path Detection          -> complete/partial matched paths, unnecessary
//                              certificates, per-category reports
//
// Input is a StudyInput (parsed records, raw text, or streamed LogSources);
// output is a StudyReport holding every table/figure's data. One chunked
// fold builds the corpus for every input kind and thread count, and one
// analysis runs over it. Each analyzer can also be driven standalone — the
// pipeline only orchestrates.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "chain/categorizer.hpp"
#include "chain/cross_sign_registry.hpp"
#include "core/corpus.hpp"
#include "core/ct_compliance.hpp"
#include "core/dn_pool.hpp"
#include "core/ingest.hpp"
#include "core/hybrid_analysis.hpp"
#include "core/interception.hpp"
#include "core/nonpublic_analysis.hpp"
#include "core/pki_graph.hpp"
#include "core/run_options.hpp"
#include "core/study_input.hpp"
#include "ct/ct_log.hpp"
#include "netsim/simulator.hpp"
#include "truststore/trust_store.hpp"
#include "util/stats.hpp"
#include "zeek/log_io.hpp"

namespace certchain::obs {
struct RunContext;
}  // namespace certchain::obs

namespace certchain::par {
class ThreadPool;
}  // namespace certchain::par

namespace certchain::core {

/// Table 2 row.
struct CategoryUsage {
  std::size_t chains = 0;
  std::uint64_t connections = 0;
  std::size_t client_ips = 0;
};

/// A chain excluded from Figure 1 as a length outlier (the paper dropped
/// three chains of lengths 3,822, 921 and 41, each seen once).
struct ExcludedOutlier {
  std::size_t length = 0;
  chain::ChainCategory category = chain::ChainCategory::kNonPublicDbOnly;
  std::uint64_t connections = 0;
  bool established_any = false;
};

struct StudyReport {
  CorpusTotals totals;
  std::size_t unique_chains = 0;

  InterceptionReport interception;                        // Table 1
  std::map<chain::ChainCategory, CategoryUsage> categories;  // Table 2

  /// Figure 1: per-category unique-chain lengths (outliers excluded).
  std::map<chain::ChainCategory, std::vector<std::size_t>> chain_lengths;
  std::vector<ExcludedOutlier> excluded_outliers;

  HybridReport hybrid;                  // Tables 3/6/7, Figures 4/6
  NonPublicReport non_public;           // §4.3, Table 8 left column
  NonPublicReport interception_chains;  // §4.3, Table 8 right column

  /// Table 4 first column: hybrid-chain port usage.
  util::Counter<std::uint16_t> ports_hybrid;

  PkiGraph hybrid_graph;        // Figure 5
  PkiGraph non_public_graph;    // Figure 7
  PkiGraph interception_graph;  // Figure 8

  /// §4.2 extended: per-issuer-category CT compliance over unique chains
  /// (public / non-public hierarchical / self-contained).
  CtComplianceReport ct_compliance;

  /// Data-quality accounting; populated by every raw-text-bearing input
  /// (text, sources, files) — the paths that can observe line damage.
  /// Parsed-record runs leave it unpopulated.
  IngestReport ingest;
};

/// The one fold (pipeline_fold.cpp), sequential on the calling thread: the
/// X509 rows of `input` go into `joiner` first — the only place DNs are
/// interned, on the pool the caller attached to the joiner — then its SSL
/// rows fold into the empty `corpus` as they parse. StudyPipeline::run and
/// svc::ServiceState::load both build their corpus here. Returns the ingest
/// accounting of raw-text inputs (unpopulated for records), also published
/// as `ingest.*` counters in `ctx`. Strict mode throws IngestError on the
/// first damaged line, as does a kFiles path that cannot be opened.
IngestReport fold_input(const StudyInput& input, const RunOptions& options,
                        zeek::LogJoiner& joiner, CorpusIndex& corpus,
                        obs::RunContext& ctx);

class StudyPipeline {
 public:
  StudyPipeline(const truststore::TrustStoreSet& stores, const ct::CtLogSet& ct_logs,
                const VendorDirectory& vendors,
                const chain::CrossSignRegistry* registry = nullptr)
      : stores_(&stores), ct_logs_(&ct_logs), vendors_(&vendors),
        registry_(registry) {}

  /// The single entry point (DESIGN.md §11): one input descriptor, one
  /// options struct, optional telemetry. Every input kind and thread count
  /// runs the same engine (pipeline_fold.cpp): X509 rows go into the joiner
  /// first, SSL rows fold into the corpus as they parse, then one analysis
  /// runs. The fold is sequential; options.threads > 1 (or 0) shards only
  /// the analysis stages over a pool (DESIGN.md §10). Streamed inputs are read
  /// options.chunk_bytes at a time and — when options.checkpoint_path is set
  /// — write a resumable fold snapshot after every SSL chunk.
  ///
  /// Every combination produces byte-identical report text and identical
  /// deterministic metrics (streamed runs add `stream.*` counters and
  /// `mem.*` gauges on top). Raw-text-bearing inputs populate
  /// `StudyReport::ingest`; in strict ingest mode the first damaged line
  /// raises IngestError (an SSL error wins over an X509 one), as does a
  /// kFiles path that cannot be opened.
  ///
  /// When `obs` is given, every Figure-2 stage reports a
  /// `stage.<name>.{in,admitted,dropped}` counter triple plus a trace span,
  /// and the per-analyzer counters land in the registry; the counts
  /// reconcile exactly with the returned StudyReport (asserted in
  /// test_pipeline_units).
  StudyReport run(const StudyInput& input, const RunOptions& options = {},
                  obs::RunContext* obs = nullptr) const;

  /// Stages 1-5 over an already-built corpus index, without re-ingesting or
  /// re-joining anything. This is the query-serving entry point (DESIGN.md
  /// §12): svc::ServiceState keeps a live CorpusIndex warm across
  /// ingest_append calls and re-analyzes it here — producing exactly the
  /// StudyReport a batch run over the same folded connections would, which
  /// is what the serve-vs-batch differential suite asserts. `dn_pool` is
  /// required: the pool the corpus certificates were interned on (the
  /// joiner's, DESIGN.md §16); categorization runs on its integer ids.
  StudyReport analyze(const CorpusIndex& corpus, obs::RunContext* obs,
                      const DnPool* dn_pool) const;

  /// Figure 1 outlier rule: drop unique chains longer than this when they
  /// were observed exactly once.
  static constexpr std::size_t kOutlierLength = 30;

 private:
  /// Stages 1-5 over a built corpus: the one analysis behind run() and
  /// analyze(). With a pool, the per-chain stages split the unique chains
  /// into one consecutive range per worker and merge in range order, and
  /// the three-way stages run one task per category; a null pool runs every
  /// stage inline. Opens the "pipeline" span and publishes the join/enrich/
  /// categorize/structure/graphs/ct_compliance stage triples and counters.
  StudyReport analyze_corpus(par::ThreadPool* pool, const CorpusIndex& corpus,
                             obs::RunContext* obs, const DnPool& dn_pool) const;

  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
  const VendorDirectory* vendors_;
  const chain::CrossSignRegistry* registry_;
};

}  // namespace certchain::core
