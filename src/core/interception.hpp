// TLS interception identification (§3.2.1, Table 1, Appendix B).
//
// The paper's procedure: (1) filter connections whose leaf issuer appears in
// no public database; (2) cross-reference CT for the same domain and
// validity period — if CT records only *different* issuers, the observed
// chain was likely forged by a middlebox; (3) confirm and categorize the
// issuer by manual investigation. Step (3)'s stand-in here is the
// VendorDirectory: a lookup from canonical issuer DN to (vendor, category),
// built by the corpus generator the way the authors built their table by
// web search. Only directory-confirmed issuers are counted as interception;
// candidates without a directory entry remain ordinary non-public-DB issuers
// (the paper's method is explicitly best-effort, Appendix B).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "chain/categorizer.hpp"
#include "core/corpus.hpp"
#include "ct/ct_log.hpp"
#include "truststore/trust_store.hpp"

namespace certchain::par {
class ThreadPool;
}  // namespace certchain::par

namespace certchain::core {

struct VendorInfo {
  std::string vendor;    // e.g. "Sim Zscaler"
  std::string category;  // Table 1 category label
};

/// Canonical issuer DN -> vendor info. Transparent comparator: detection
/// probes with the leaf's cached canonical form (a view) per candidate.
using VendorDirectory = std::map<std::string, VendorInfo, std::less<>>;

/// Per-issuer interception finding.
struct InterceptionFinding {
  std::string issuer_canonical;
  std::string issuer_display;  // RFC 4514 form
  VendorInfo vendor;
  std::uint64_t connections = 0;
  std::vector<ClientId> client_ips;  // sorted, unique; ids of the corpus
};

/// Aggregated Table 1 row. `issuers` counts distinct vendors (the paper's
/// 80 "issuers" are intercepting entities, not individual CA certificates).
struct InterceptionCategoryRow {
  std::string category;
  std::size_t issuers = 0;
  std::uint64_t connections = 0;
  std::size_t client_ips = 0;
};

struct InterceptionReport {
  std::vector<InterceptionFinding> findings;  // one per confirmed issuer
  /// CT-mismatch candidates that no directory entry confirmed.
  std::set<std::string> unconfirmed_candidates;
  std::uint64_t total_connections = 0;

  /// Every directory DN belonging to a confirmed vendor (the vendor's whole
  /// CA apparatus — inspection intermediates and roots). Filled by detect().
  chain::InterceptionIssuerSet vendor_issuer_dns;

  /// The set the chain categorizer consumes: the detected leaf-signing DNs
  /// plus every other DN of the confirmed vendors. Chains presenting only a
  /// middlebox root (the single-certificate case, 13.24% of interception
  /// chains) are attributed through the vendor expansion.
  chain::InterceptionIssuerSet issuer_set() const;

  /// Table 1 rows, ordered by descending connection share.
  std::vector<InterceptionCategoryRow> category_rows() const;
};

class InterceptionDetector {
 public:
  InterceptionDetector(const truststore::TrustStoreSet& stores,
                       const ct::CtLogSet& ct_logs, const VendorDirectory& directory)
      : stores_(&stores), ct_logs_(&ct_logs), directory_(&directory) {}

  /// Runs detection over the deduplicated corpus. Chains are flagged via
  /// their observed SNI domains; SNI-less traffic cannot be checked against
  /// CT (Appendix B limitation, reproduced faithfully). With a pool, the
  /// per-chain candidate test runs over one consecutive corpus range per
  /// worker and the partial finding maps merge in range order (identity
  /// fields first-wins, counts summed, client id lists appended, then
  /// sorted and deduplicated) before the vendor expansion and sort; a null
  /// pool runs one range inline. The report is identical either way.
  InterceptionReport detect(const CorpusIndex& corpus,
                            par::ThreadPool* pool = nullptr) const;

  /// The per-chain primitive: true if the leaf issuer is absent from public
  /// databases and CT records a different issuer for `domain` during the
  /// leaf's validity.
  bool is_interception_candidate(const chain::CertificateChain& chain,
                                 std::string_view domain) const;

 private:
  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
  const VendorDirectory* directory_;
};

}  // namespace certchain::core
