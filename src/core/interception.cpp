#include "core/interception.hpp"

#include <algorithm>

#include "par/thread_pool.hpp"

namespace certchain::core {

chain::InterceptionIssuerSet InterceptionReport::issuer_set() const {
  chain::InterceptionIssuerSet out = vendor_issuer_dns;
  for (const InterceptionFinding& finding : findings) {
    out.insert(finding.issuer_canonical);
  }
  return out;
}

std::vector<InterceptionCategoryRow> InterceptionReport::category_rows() const {
  std::map<std::string, InterceptionCategoryRow> by_category;
  std::map<std::string, std::set<std::string>> vendors_by_category;
  for (const InterceptionFinding& finding : findings) {
    InterceptionCategoryRow& row = by_category[finding.vendor.category];
    row.category = finding.vendor.category;
    vendors_by_category[finding.vendor.category].insert(finding.vendor.vendor);
    row.connections += finding.connections;
  }
  for (auto& [category, row] : by_category) {
    row.issuers = vendors_by_category[category].size();
  }
  // Client IPs must be deduplicated per category, not summed per issuer.
  std::map<std::string, std::vector<const std::vector<ClientId>*>>
      client_lists;
  for (const InterceptionFinding& finding : findings) {
    client_lists[finding.vendor.category].push_back(&finding.client_ips);
  }
  for (auto& [category, row] : by_category) {
    row.client_ips = CorpusIndex::distinct_clients(client_lists[category]);
  }

  std::vector<InterceptionCategoryRow> rows;
  rows.reserve(by_category.size());
  for (auto& [category, row] : by_category) rows.push_back(std::move(row));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const InterceptionCategoryRow& a, const InterceptionCategoryRow& b) {
                     return a.connections > b.connections;
                   });
  return rows;
}

bool InterceptionDetector::is_interception_candidate(
    const chain::CertificateChain& chain, std::string_view domain) const {
  if (chain.empty() || domain.empty()) return false;
  const x509::Certificate& leaf = chain.first();
  // Step 1: leaf issuer absent from every public database.
  if (stores_->classify_certificate(leaf) == truststore::IssuerClass::kPublicDb) {
    return false;
  }
  // Step 2: CT cross-reference for the same domain and validity period. No
  // CT record at all is inconclusive (the genuine certificate may itself be
  // non-public and unlogged, Appendix B) — only a *different* recorded
  // issuer implies interception.
  const auto ct_issuers = ct_logs_->issuers_for_domain(domain, leaf.validity);
  if (ct_issuers.empty()) return false;
  for (const x509::DistinguishedName& recorded : ct_issuers) {
    if (recorded.matches(leaf.issuer)) return false;  // observed issuer is on file
  }
  return true;
}

namespace {

/// Partial detection state: the per-chain fold target, one per corpus range,
/// merged in range order.
struct DetectFold {
  std::map<std::string, InterceptionFinding> findings;  // by issuer canonical
  std::set<std::string> unconfirmed_candidates;
  std::uint64_t total_connections = 0;
};

/// The loop body: evaluates one chain observation into the fold.
void fold_observation(const InterceptionDetector& detector,
                      const VendorDirectory& directory,
                      const ChainObservation& observation, DetectFold& fold) {
  if (observation.chain.empty()) return;
  // Evaluate against each observed SNI; the first confirming domain wins.
  bool candidate = false;
  for (const std::string& domain : observation.domains) {
    if (detector.is_interception_candidate(observation.chain, domain)) {
      candidate = true;
      break;
    }
  }
  if (!candidate) return;

  const x509::Certificate& leaf = observation.chain.first();
  const std::string& canonical = leaf.issuer.canonical();
  const auto directory_entry = directory.find(canonical);
  if (directory_entry == directory.end()) {
    fold.unconfirmed_candidates.insert(canonical);
    return;
  }
  InterceptionFinding& finding = fold.findings[canonical];
  if (finding.issuer_canonical.empty()) {
    finding.issuer_canonical = canonical;
    finding.issuer_display = leaf.issuer.to_string();
    finding.vendor = directory_entry->second;
  }
  finding.connections += observation.connections;
  finding.client_ips.insert(finding.client_ips.end(),
                            observation.client_ips.begin(),
                            observation.client_ips.end());
  fold.total_connections += observation.connections;
}

/// Folds a later corpus range in; call in range order so first-wins identity
/// fields resolve like a single pass over the corpus.
void merge_fold(DetectFold& into, DetectFold&& other) {
  for (auto& [canonical, theirs] : other.findings) {
    const auto [it, inserted] =
        into.findings.try_emplace(canonical, std::move(theirs));
    if (inserted) continue;
    it->second.connections += theirs.connections;
    it->second.client_ips.insert(it->second.client_ips.end(),
                                 theirs.client_ips.begin(),
                                 theirs.client_ips.end());
  }
  into.unconfirmed_candidates.merge(other.unconfirmed_candidates);
  into.total_connections += other.total_connections;
}

/// Vendor expansion + the Table-1 ordering over the merged fold.
InterceptionReport finalize_fold(DetectFold&& fold,
                                 const VendorDirectory& directory) {
  InterceptionReport report;
  report.unconfirmed_candidates = std::move(fold.unconfirmed_candidates);
  report.total_connections = fold.total_connections;

  // Vendor expansion: every directory DN of a confirmed vendor.
  std::set<std::string> confirmed_vendors;
  for (const auto& [canonical, finding] : fold.findings) {
    confirmed_vendors.insert(finding.vendor.vendor);
  }
  for (const auto& [canonical, info] : directory) {
    if (confirmed_vendors.contains(info.vendor)) {
      report.vendor_issuer_dns.insert(canonical);
    }
  }

  report.findings.reserve(fold.findings.size());
  for (auto& [canonical, finding] : fold.findings) {
    std::vector<ClientId>& clients = finding.client_ips;
    std::sort(clients.begin(), clients.end());
    clients.erase(std::unique(clients.begin(), clients.end()), clients.end());
    report.findings.push_back(std::move(finding));
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const InterceptionFinding& a, const InterceptionFinding& b) {
                     return a.connections > b.connections;
                   });
  return report;
}

}  // namespace

InterceptionReport InterceptionDetector::detect(const CorpusIndex& corpus,
                                                par::ThreadPool* pool) const {
  std::vector<const ChainObservation*> observations;
  observations.reserve(corpus.chains().size());
  for (const auto& [chain_id, observation] : corpus.chains()) {
    observations.push_back(&observation);
  }

  const std::size_t chunks = pool == nullptr ? 1 : pool->size();
  std::vector<DetectFold> folds(chunks);
  par::parallel_for_chunks(
      pool, observations.size(), chunks,
      [this, &folds, &observations](std::size_t chunk, std::size_t begin,
                                    std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fold_observation(*this, *directory_, *observations[i], folds[chunk]);
        }
      });
  for (std::size_t i = 1; i < chunks; ++i) {
    merge_fold(folds[0], std::move(folds[i]));
  }
  return finalize_fold(std::move(folds[0]), *directory_);
}

}  // namespace certchain::core
