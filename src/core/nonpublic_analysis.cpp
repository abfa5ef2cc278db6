#include "core/nonpublic_analysis.hpp"

#include <cctype>
#include <vector>

#include "chain/matcher.hpp"

namespace certchain::core {

bool looks_like_dga_name(const std::string& name) {
  // "www" + >= 6 alphabetic chars + "com", one label, no dots.
  if (name.size() < 12) return false;
  if (name.rfind("www", 0) != 0) return false;
  if (name.compare(name.size() - 3, 3, "com") != 0) return false;
  for (const char c : name) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool is_dga_certificate(const x509::Certificate& cert) {
  if (cert.is_self_signed()) return false;  // the cluster has distinct fields
  const auto issuer_cn = cert.issuer.common_name();
  const auto subject_cn = cert.subject.common_name();
  if (!issuer_cn || !subject_cn) return false;
  return looks_like_dga_name(*issuer_cn) && looks_like_dga_name(*subject_cn);
}

NonPublicReport NonPublicAnalyzer::analyze(
    std::string category_label,
    const std::vector<const ChainObservation*>& chains) const {
  NonPublicReport report;
  report.category_label = std::move(category_label);

  std::vector<const ChainObservation*> all;
  std::vector<const ChainObservation*> singles;
  std::vector<const ChainObservation*> dga;

  for (const ChainObservation* observation : chains) {
    const auto& chain = observation->chain;
    if (chain.empty()) continue;
    ++report.chains;
    report.connections += observation->connections;
    all.push_back(observation);

    if (chain.is_single()) {
      ++report.single_chains;
      report.single_connections += observation->connections;
      report.single_no_sni_connections += observation->without_sni;
      singles.push_back(observation);
      if (chain.first_is_self_signed()) ++report.single_self_signed;
      if (is_dga_certificate(chain.first())) {
        ++report.dga_chains;
        report.dga_connections += observation->connections;
        dga.push_back(observation);
      }
      for (const auto& [port, count] : observation->ports.items()) {
        report.ports_single.add(port, count);
      }
      continue;
    }

    // Multi-certificate chains.
    ++report.multi_chains;
    for (const auto& [port, count] : observation->ports.items()) {
      report.ports_multi.add(port, count);
    }

    // basicConstraints omission statistics (§4.3). The three giant outlier
    // chains are excluded here as in Figure 1 — their thousands of junk
    // certificates would swamp the percentages.
    if (chain.length() <= 30)
    for (std::size_t i = 0; i < chain.length(); ++i) {
      const bool omitted = !chain.at(i).basic_constraints.present;
      if (i == 0) {
        ++report.first_position_certs;
        if (omitted) ++report.first_position_bc_omitted;
      } else {
        ++report.later_position_certs;
        if (omitted) ++report.later_position_bc_omitted;
      }
    }

    // Matched-path structure with the leaf test disabled (§4.3).
    const chain::PathAnalysis analysis =
        chain::analyze_paths(chain, registry_, /*require_leaf=*/false);
    if (analysis.is_complete_path()) {
      ++report.is_matched_path;
    } else if (analysis.contains_complete_path()) {
      ++report.contains_matched_path;
    } else {
      ++report.no_matched_path;
    }
  }

  report.client_ips = CorpusIndex::distinct_clients(all);
  report.single_client_ips = CorpusIndex::distinct_clients(singles);
  report.dga_client_ips = CorpusIndex::distinct_clients(dga);
  return report;
}

}  // namespace certchain::core
