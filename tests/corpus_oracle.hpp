// The per-chain string-set fold, kept as the executable reference the
// corpus suites check core::CorpusIndex against.
//
// CorpusIndex keys chains and the distinct-certificate set by
// util::Digest256, memoizes fuid lists by the raw cert_chain_fuids cell and
// keeps each chain's clients as ids into a corpus-wide interned table. This
// oracle is the plain form of the same fold over joined connections:
// hex-keyed maps, and one ordered std::set<std::string> per chain and field
// (clients included). snapshot() writes the
// `corpus` snapshot block in CorpusIndex::write_snapshot's format, so a
// differential compares the two folds byte for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/corpus.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "zeek/joiner.hpp"

namespace certchain::testing {

class OracleCorpus {
 public:
  /// Folds one joined connection (LogJoiner::join of an SSL row).
  void add(const zeek::JoinedConnection& connection) {
    ++totals_.connections;
    if (connection.ssl.version == "TLSv13") ++totals_.tls13_connections;
    if (!connection.missing_fuids.empty()) ++totals_.incomplete_joins;
    if (connection.chain.empty()) return;
    ++totals_.with_certificates;
    for (const x509::Certificate& cert : connection.chain) {
      certificates_.insert(cert.fingerprint());
    }

    Chain& chain = chains_[connection.chain.id()];
    const zeek::SslLogRecord& ssl = connection.ssl;
    if (chain.connections == 0) {
      for (const x509::Certificate& cert : connection.chain) {
        chain.fingerprints.push_back(cert.fingerprint());
      }
      chain.first_seen = ssl.ts;
      chain.last_seen = ssl.ts;
    } else {
      chain.first_seen = std::min(chain.first_seen, ssl.ts);
      chain.last_seen = std::max(chain.last_seen, ssl.ts);
    }
    ++chain.connections;
    if (ssl.established) ++chain.established;
    chain.client_ips.insert(ssl.id_orig_h);
    chain.server_keys.insert(ssl.id_resp_h + ":" + std::to_string(ssl.id_resp_p));
    chain.ports.add(ssl.id_resp_p);
    if (ssl.server_name.empty()) {
      ++chain.without_sni;
    } else {
      ++chain.with_sni;
      chain.domains.insert(ssl.server_name);
    }
  }

  std::size_t unique_chain_count() const { return chains_.size(); }

  /// The fold state in the corpus snapshot format.
  std::string snapshot() const {
    obs::json::Writer writer;
    writer.begin_object();
    writer.key("totals");
    writer.begin_object();
    writer.key("connections");
    writer.value_uint(totals_.connections);
    writer.key("with_certificates");
    writer.value_uint(totals_.with_certificates);
    writer.key("tls13_connections");
    writer.value_uint(totals_.tls13_connections);
    writer.key("incomplete_joins");
    writer.value_uint(totals_.incomplete_joins);
    writer.end_object();
    write_strings(writer, "certificates", certificates_);
    writer.key("chains");
    writer.begin_array();
    for (const auto& [id, chain] : chains_) {
      writer.begin_object();
      writer.key("id");
      writer.value_string(id);
      write_strings(writer, "fingerprints", chain.fingerprints);
      writer.key("connections");
      writer.value_uint(chain.connections);
      writer.key("established");
      writer.value_uint(chain.established);
      write_strings(writer, "client_ips", chain.client_ips);
      write_strings(writer, "server_keys", chain.server_keys);
      writer.key("ports");
      writer.begin_array();
      for (const auto& [port, count] : chain.ports.items()) {
        writer.begin_array();
        writer.value_uint(port);
        writer.value_uint(count);
        writer.end_array();
      }
      writer.end_array();
      writer.key("with_sni");
      writer.value_uint(chain.with_sni);
      writer.key("without_sni");
      writer.value_uint(chain.without_sni);
      write_strings(writer, "domains", chain.domains);
      writer.key("first_seen");
      writer.value_uint(static_cast<std::uint64_t>(chain.first_seen));
      writer.key("last_seen");
      writer.value_uint(static_cast<std::uint64_t>(chain.last_seen));
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
    return std::move(writer).str();
  }

 private:
  struct Chain {
    std::vector<std::string> fingerprints;
    std::uint64_t connections = 0;
    std::uint64_t established = 0;
    std::set<std::string> client_ips;
    std::set<std::string> server_keys;
    util::Counter<std::uint16_t> ports;
    std::uint64_t with_sni = 0;
    std::uint64_t without_sni = 0;
    std::set<std::string> domains;
    util::SimTime first_seen = 0;
    util::SimTime last_seen = 0;
  };

  template <typename Strings>
  static void write_strings(obs::json::Writer& writer, const char* key,
                            const Strings& values) {
    writer.key(key);
    writer.begin_array();
    for (const std::string& value : values) writer.value_string(value);
    writer.end_array();
  }

  std::map<std::string, Chain> chains_;  // by hex chain id
  std::set<std::string> certificates_;
  core::CorpusTotals totals_;
};

}  // namespace certchain::testing
