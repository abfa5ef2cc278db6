#include "core/hybrid_analysis.hpp"

#include <set>

#include "util/strings.hpp"

namespace certchain::core {

using chain::HybridStructure;
using truststore::IssuerClass;

std::string_view structure_cell_code(const StructureCell& cell) {
  using RunKind = StructureCell::RunKind;
  using ClassMix = StructureCell::ClassMix;
  switch (cell.kind) {
    case RunKind::kComplete:
      switch (cell.mix) {
        case ClassMix::kPublic: return "Pub.Complete";
        case ClassMix::kNonPublic: return "Non-Pub.Complete";
        case ClassMix::kHybrid: return "Hybrid.Complete";
      }
      break;
    case RunKind::kPartial:
      switch (cell.mix) {
        case ClassMix::kPublic: return "Pub.Partial";
        case ClassMix::kNonPublic: return "Non-Pub.Partial";
        case ClassMix::kHybrid: return "Hybrid.Partial";
      }
      break;
    case RunKind::kSingle:
      switch (cell.mix) {
        case ClassMix::kPublic: return "Pub.Single";
        case ClassMix::kNonPublic: return "Non-Pub.Single";
        case ClassMix::kHybrid: return "Hybrid.Single";
      }
      break;
    case RunKind::kSingleLeaf:
      return "Single.Leaf";
  }
  return "unknown";
}

namespace {

/// Sector heuristic for Table 6 (the paper attributed entities manually).
std::string classify_sector(const x509::DistinguishedName& issuer) {
  const std::string organization =
      util::to_lower(issuer.organization().value_or(""));
  const std::string cn = util::to_lower(issuer.common_name().value_or(""));
  for (const std::string_view marker :
       {"government", "gov of", "department", "instituto", "federal",
        "veterans affairs", "klid", "iti "}) {
    if (util::contains(organization, marker) || util::contains(cn, marker)) {
      return "Government";
    }
  }
  return "Corporate";
}

/// Short display entity for Table 6 (organization, falling back to CN).
std::string entity_name(const x509::DistinguishedName& issuer) {
  if (const auto organization = issuer.organization()) return *organization;
  return issuer.common_name().value_or(issuer.to_string());
}

bool cert_matches_cn(const x509::Certificate& cert, std::string_view cn_fragment) {
  const std::string issuer_cn = cert.issuer.common_name().value_or("");
  const std::string subject_cn = cert.subject.common_name().value_or("");
  return util::contains(util::to_lower(issuer_cn), util::to_lower(cn_fragment)) ||
         util::contains(util::to_lower(subject_cn), util::to_lower(cn_fragment));
}

}  // namespace

StructureColumn HybridAnalyzer::build_structure_column(
    const ChainObservation& observation,
    const chain::HybridClassification& cls,
    truststore::IssuerClassifier& classifier) const {
  StructureColumn column;
  column.chain_id = observation.chain.id().substr(0, 12);
  const auto& chain = observation.chain;
  const auto& analysis = cls.paths;

  // Map each certificate index to its run.
  for (std::size_t i = 0; i < chain.length(); ++i) {
    const chain::MatchedRun* my_run = nullptr;
    for (const chain::MatchedRun& run : analysis.runs) {
      if (i >= run.begin && i <= run.end) {
        my_run = &run;
        break;
      }
    }
    StructureCell cell;
    if (my_run == nullptr) {
      cell.kind = StructureCell::RunKind::kSingle;
    } else if (analysis.complete_path && *my_run == *analysis.complete_path) {
      cell.kind = StructureCell::RunKind::kComplete;
    } else if (my_run->cert_count() >= 2) {
      cell.kind = StructureCell::RunKind::kPartial;
    } else if (!chain.at(my_run->begin).is_self_signed() &&
               chain::is_plausible_leaf(chain, my_run->begin)) {
      // A genuine stray *leaf* (self-signed singles render as plain
      // singles of their issuer class instead).
      cell.kind = StructureCell::RunKind::kSingleLeaf;
    } else {
      cell.kind = StructureCell::RunKind::kSingle;
    }

    if (cell.kind != StructureCell::RunKind::kSingleLeaf && my_run != nullptr) {
      bool any_public = false;
      bool any_non_public = false;
      for (std::size_t j = my_run->begin; j <= my_run->end; ++j) {
        if (classifier.classify(chain.at(j)) == IssuerClass::kPublicDb) {
          any_public = true;
        } else {
          any_non_public = true;
        }
      }
      cell.mix = any_public && any_non_public ? StructureCell::ClassMix::kHybrid
                 : any_public                 ? StructureCell::ClassMix::kPublic
                                              : StructureCell::ClassMix::kNonPublic;
    }
    column.cells.push_back(cell);
  }
  return column;
}

HybridReport HybridAnalyzer::analyze(
    const std::vector<const ChainObservation*>& hybrid_chains) const {
  HybridReport report;
  // One memoized classifier for the whole slice: every Figure 4 column
  // shares the DnId memo, so each distinct issuer is classified once per
  // analyze() call instead of once per certificate.
  truststore::IssuerClassifier classifier(*stores_, *dn_pool_);
  std::map<std::string, std::set<std::string>> anchored_entities;  // sector -> entities
  std::map<std::string, std::size_t> anchored_counts;              // sector -> chains
  std::vector<const ChainObservation*> complete;
  std::vector<const ChainObservation*> contains;
  std::vector<const ChainObservation*> no_path;
  std::vector<const ChainObservation*> public_leaf_no_issuer;

  for (const ChainObservation* observation : hybrid_chains) {
    HybridChainRecord record;
    record.classification =
        chain::classify_hybrid(observation->chain, *stores_, registry_);
    const auto& cls = record.classification;
    const auto& chain = observation->chain;

    switch (cls.structure) {
      case HybridStructure::kCompleteNonPubToPub: {
        ++report.complete_nonpub_to_pub;
        report.usage_complete.chains++;
        report.usage_complete.connections += observation->connections;
        report.usage_complete.established += observation->established;
        complete.push_back(observation);

        // Table 6 attribution from the leaf's issuer.
        const x509::Certificate& leaf = chain.at(cls.paths.complete_path->begin);
        // Only chains whose leaf issuer is truly non-public belong in
        // Table 6; kCompleteNonPubToPub guarantees that by construction.
        const std::string sector = classify_sector(leaf.issuer);
        anchored_entities[sector].insert(entity_name(leaf.issuer));
        ++anchored_counts[sector];

        // CT-logging compliance (§4.2).
        record.leaf_ct_logged = ct_logs_->logged_matching(leaf);
        if (record.leaf_ct_logged) ++report.anchored_ct_logged;
        if (leaf.expired_at(observation->last_seen)) {
          record.expired_leaf = true;
          ++report.anchored_expired_leaf;
        }
        break;
      }
      case HybridStructure::kCompletePubToPrivate: {
        ++report.complete_pub_to_private;
        report.usage_complete.chains++;
        report.usage_complete.connections += observation->connections;
        report.usage_complete.established += observation->established;
        complete.push_back(observation);
        break;
      }
      case HybridStructure::kContainsCompletePath: {
        ++report.contains_complete_path;
        report.usage_contains.chains++;
        report.usage_contains.connections += observation->connections;
        report.usage_contains.established += observation->established;
        contains.push_back(observation);
        report.figure4_columns.push_back(
            build_structure_column(*observation, cls, classifier));

        // Misconfiguration signatures (Appendix F.2).
        for (const std::size_t index : cls.paths.unnecessary_certificates) {
          const x509::Certificate& extra = chain.at(index);
          if (cert_matches_cn(extra, "Fake LE")) ++report.fake_le_chains;
          if (cert_matches_cn(extra, "Athenz")) ++report.athenz_chains;
        }
        if (cls.paths.complete_path->begin > 0) ++report.leaf_before_path;
        break;
      }
      case HybridStructure::kNoCompletePath: {
        ++report.no_complete_path;
        report.usage_no_path.chains++;
        report.usage_no_path.connections += observation->connections;
        report.usage_no_path.established += observation->established;
        no_path.push_back(observation);
        ++report.no_path_categories[cls.no_path_category];
        report.mismatch_ratios.push_back(cls.paths.match.mismatch_ratio());
        if (cls.public_leaf_without_issuer) {
          ++report.public_leaf_without_issuer;
          report.usage_public_leaf_without_issuer.chains++;
          report.usage_public_leaf_without_issuer.connections +=
              observation->connections;
          report.usage_public_leaf_without_issuer.established +=
              observation->established;
          public_leaf_no_issuer.push_back(observation);
        }
        break;
      }
    }
    report.records.push_back(std::move(record));
  }

  report.usage_complete.client_ips = CorpusIndex::distinct_clients(complete);
  report.usage_contains.client_ips = CorpusIndex::distinct_clients(contains);
  report.usage_no_path.client_ips = CorpusIndex::distinct_clients(no_path);
  report.usage_public_leaf_without_issuer.client_ips =
      CorpusIndex::distinct_clients(public_leaf_no_issuer);

  // Table 6 rows, Government before Corporate to match the paper's layout.
  for (const std::string& sector : {std::string("Corporate"), std::string("Government")}) {
    const auto it = anchored_counts.find(sector);
    if (it == anchored_counts.end()) continue;
    AnchoredChainRow row;
    row.sector = sector;
    row.chains = it->second;
    const auto& entities = anchored_entities[sector];
    row.entities.assign(entities.begin(), entities.end());
    report.anchored_rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace certchain::core
