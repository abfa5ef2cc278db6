#include "core/pki_graph.hpp"

#include "chain/matcher.hpp"

namespace certchain::core {

std::string_view cert_role_name(CertRole role) {
  switch (role) {
    case CertRole::kLeaf: return "leaf";
    case CertRole::kIntermediate: return "intermediate";
    case CertRole::kRoot: return "root";
  }
  return "unknown";
}

std::size_t PkiGraph::intern_node(const x509::Certificate& cert,
                                  truststore::IssuerClassifier& classifier) {
  const std::string fingerprint = cert.fingerprint();
  const auto it = by_fingerprint_.find(fingerprint);
  if (it != by_fingerprint_.end()) return it->second;
  PkiGraphNode node;
  node.fingerprint = fingerprint;
  node.subject = cert.subject.to_string();
  node.issuer_class = classifier.classify(cert);
  node.role = CertRole::kLeaf;  // promoted later as evidence accumulates
  const std::size_t index = nodes_.size();
  nodes_.push_back(std::move(node));
  by_fingerprint_.emplace(fingerprint, index);
  return index;
}

void PkiGraph::promote_role(std::size_t index, CertRole role) {
  // Role lattice: leaf < intermediate < root; promotion only.
  PkiGraphNode& node = nodes_.at(index);
  if (static_cast<int>(role) > static_cast<int>(node.role)) node.role = role;
}

void PkiGraph::note_chain(const std::vector<std::size_t>& node_indices,
                          const std::vector<bool>& pair_matched) {
  for (const std::size_t index : node_indices) ++nodes_.at(index).chain_count;
  // Co-occurrence: all unordered pairs in the chain. Quadratic in chain
  // length, so the pathological misconfigured chains (the paper's 3,822-cert
  // outlier would mean ~7.3M edges) only contribute adjacency links.
  if (node_indices.size() <= kMaxCoOccurrenceChain) {
  for (std::size_t a = 0; a < node_indices.size(); ++a) {
    for (std::size_t b = a + 1; b < node_indices.size(); ++b) {
      const std::size_t lo = std::min(node_indices[a], node_indices[b]);
      const std::size_t hi = std::max(node_indices[a], node_indices[b]);
      if (lo != hi) co_edges_.emplace(lo, hi);
    }
  }
  }
  // Issuance links: matched adjacent pairs only.
  for (std::size_t i = 0; i + 1 < node_indices.size(); ++i) {
    if (i < pair_matched.size() && pair_matched[i] &&
        node_indices[i] != node_indices[i + 1]) {
      links_.emplace(node_indices[i], node_indices[i + 1]);
    }
  }
}

std::map<std::pair<CertRole, truststore::IssuerClass>, std::size_t>
PkiGraph::node_breakdown() const {
  std::map<std::pair<CertRole, truststore::IssuerClass>, std::size_t> out;
  for (const PkiGraphNode& node : nodes_) {
    ++out[{node.role, node.issuer_class}];
  }
  return out;
}

std::size_t PkiGraph::issuance_degree(std::size_t index) const {
  std::set<std::size_t> neighbors;
  for (const auto& [lower, upper] : links_) {
    if (lower == index) neighbors.insert(upper);
    if (upper == index) neighbors.insert(lower);
  }
  return neighbors.size();
}

std::vector<std::size_t> PkiGraph::complex_intermediates(std::size_t threshold) const {
  // Per-intermediate set of *intermediate* neighbors over issuance links.
  std::map<std::size_t, std::set<std::size_t>> neighbors;
  for (const auto& [lower, upper] : links_) {
    if (nodes_[lower].role == CertRole::kIntermediate &&
        nodes_[upper].role == CertRole::kIntermediate) {
      neighbors[lower].insert(upper);
      neighbors[upper].insert(lower);
    }
  }
  std::vector<std::size_t> out;
  for (const auto& [index, set] : neighbors) {
    if (set.size() >= threshold) out.push_back(index);
  }
  return out;
}

std::size_t PkiGraph::connected_components() const {
  if (nodes_.empty()) return 0;
  std::vector<std::size_t> parent(nodes_.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [a, b] : co_edges_) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra != rb) parent[ra] = rb;
  }
  std::set<std::size_t> roots;
  for (std::size_t i = 0; i < parent.size(); ++i) roots.insert(find(i));
  return roots.size();
}

PkiGraph build_pki_graph(const std::vector<const ChainObservation*>& chains,
                         const truststore::TrustStoreSet& stores,
                         const core::DnPool& dn_pool, std::size_t max_length) {
  PkiGraph graph;
  // One classifier for the whole build: its DnId memo carries across chains,
  // so a corpus that repeats the same few issuers classifies each one once.
  truststore::IssuerClassifier classifier(stores, dn_pool);
  for (const ChainObservation* observation : chains) {
    const auto& chain = observation->chain;
    if (chain.empty() || chain.length() > max_length) continue;
    std::vector<std::size_t> indices;
    indices.reserve(chain.length());
    for (const x509::Certificate& cert : chain) {
      indices.push_back(graph.intern_node(cert, classifier));
    }
    const chain::MatchResult match = chain::match_chain(chain);
    std::vector<bool> matched;
    matched.reserve(match.pairs.size());
    for (const chain::PairMatch& pair : match.pairs) matched.push_back(pair.matched);
    graph.note_chain(indices, matched);

    // Role evidence.
    for (std::size_t i = 0; i < chain.length(); ++i) {
      const x509::Certificate& cert = chain.at(i);
      if (cert.is_self_signed() && chain.length() > 1) {
        graph.promote_role(indices[i], CertRole::kRoot);
      } else if (cert.is_ca()) {
        graph.promote_role(indices[i], CertRole::kIntermediate);
      }
      // A certificate that issues the one below it is at least intermediate.
      if (i > 0 && i - 1 < matched.size() && matched[i - 1]) {
        if (cert.is_self_signed()) {
          graph.promote_role(indices[i], CertRole::kRoot);
        } else {
          graph.promote_role(indices[i], CertRole::kIntermediate);
        }
      }
    }
  }
  return graph;
}

}  // namespace certchain::core
