#include "core/corpus.hpp"

#include <cstdint>

#include "util/hash.hpp"

namespace certchain::core {

namespace {

/// Numeric member lookup for snapshot restore; false when absent/non-number.
bool read_uint(const obs::json::Value& object, const char* key,
               std::uint64_t& out) {
  const obs::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_number() || member->num < 0) return false;
  out = static_cast<std::uint64_t>(member->num);
  return true;
}

void write_string_set(obs::json::Writer& writer, const char* key,
                      const std::set<std::string>& values) {
  writer.key(key);
  writer.begin_array();
  for (const std::string& value : values) writer.value_string(value);
  writer.end_array();
}

bool read_string_set(const obs::json::Value& object, const char* key,
                     std::set<std::string>& out) {
  const obs::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_array()) return false;
  for (const obs::json::Value& entry : member->array) {
    if (!entry.is_string()) return false;
    out.insert(entry.string);
  }
  return true;
}

/// The per-connection usage tail shared by both fold entry points: first/last
/// seen, establishment, client/server endpoints, SNI. Must stay the single
/// definition so the fused path cannot drift from add(JoinedConnection).
void fold_usage(ChainObservation& observation, const zeek::SslLogRecord& ssl) {
  if (observation.connections == 0) {
    observation.first_seen = ssl.ts;
    observation.last_seen = ssl.ts;
  } else {
    observation.first_seen = std::min(observation.first_seen, ssl.ts);
    observation.last_seen = std::max(observation.last_seen, ssl.ts);
  }
  ++observation.connections;
  if (ssl.established) ++observation.established;
  observation.client_ips.insert(ssl.id_orig_h);
  observation.server_keys.insert(ssl.id_resp_h + ":" +
                                 std::to_string(ssl.id_resp_p));
  observation.ports.add(ssl.id_resp_p);
  if (ssl.server_name.empty()) {
    ++observation.without_sni;
  } else {
    ++observation.with_sni;
    observation.domains.insert(ssl.server_name);
  }
}

}  // namespace

void CorpusIndex::add(const zeek::JoinedConnection& connection) {
  ++totals_.connections;
  if (connection.ssl.version == "TLSv13") ++totals_.tls13_connections;
  if (!connection.missing_fuids.empty()) ++totals_.incomplete_joins;
  if (connection.chain.empty()) return;
  ++totals_.with_certificates;

  for (const x509::Certificate& cert : connection.chain) {
    if (certificate_fingerprints_.insert(cert.fingerprint()).second) {
      ++totals_.distinct_certificates;
    }
  }

  ChainObservation& observation = chains_[connection.chain.id()];
  if (observation.connections == 0) observation.chain = connection.chain;
  fold_usage(observation, connection.ssl);
}

void CorpusIndex::add(const zeek::LogJoiner& joiner,
                      const zeek::SslLogRecord& ssl) {
  ++totals_.connections;
  if (ssl.version == "TLSv13") ++totals_.tls13_connections;

  // The memo is only valid against the joiner state it was built from: the
  // joiner grows over time, and growth can resolve a previously-missing fuid.
  if (fold_joiner_ != &joiner ||
      fold_joiner_size_ != joiner.certificate_count()) {
    fold_memo_.clear();
    fold_joiner_ = &joiner;
    fold_joiner_size_ = joiner.certificate_count();
  }

  fold_key_.clear();
  for (const std::string& fuid : ssl.cert_chain_fuids) {
    fold_key_.append(fuid);
    fold_key_.push_back('\0');  // fuids are printable; NUL cannot collide
  }

  FoldMemoEntry entry;
  const auto memo_it = fold_memo_.find(std::string_view(fold_key_));
  if (memo_it != fold_memo_.end()) {
    entry = memo_it->second;
  } else {
    entry.observation = resolve_and_register(joiner, ssl, entry.missing);
    fold_memo_.emplace(fold_key_, entry);
  }

  if (entry.missing) ++totals_.incomplete_joins;
  if (entry.observation == nullptr) return;  // no fuid resolved: totals only
  ++totals_.with_certificates;
  fold_usage(*entry.observation, ssl);
}

ChainObservation* CorpusIndex::resolve_and_register(
    const zeek::LogJoiner& joiner, const zeek::SslLogRecord& ssl,
    bool& missing) {
  const std::map<std::string, x509::Certificate>& by_fuid =
      joiner.certificates();
  fold_certs_.clear();
  for (const std::string& fuid : ssl.cert_chain_fuids) {
    const auto it = by_fuid.find(fuid);
    if (it == by_fuid.end()) {
      missing = true;
    } else {
      fold_certs_.push_back(&it->second);
    }
  }
  if (fold_certs_.empty()) return nullptr;

  fold_id_bytes_.clear();
  for (const x509::Certificate* cert : fold_certs_) {
    // Joiner-built certificates are fingerprint-sealed, so this is a memo
    // read; the fallback recomputes for certificates that never were.
    const std::string& fingerprint =
        cert->fingerprint_memo.empty() ? (fold_fingerprint_ = cert->fingerprint())
                                       : cert->fingerprint_memo;
    if (certificate_fingerprints_.insert(fingerprint).second) {
      ++totals_.distinct_certificates;
    }
    // Mirrors CertificateChain::id() byte for byte: same bytes, same digest,
    // same chain identity as the copying path.
    fold_id_bytes_.append(fingerprint);
    fold_id_bytes_.push_back('|');
  }

  ChainObservation& observation = chains_[util::digest256_hex(fold_id_bytes_)];
  if (observation.connections == 0) {
    // First observation of this chain id: the one place the certificates are
    // deep-copied (once per unique chain, not once per connection).
    std::vector<x509::Certificate> certs;
    certs.reserve(fold_certs_.size());
    for (const x509::Certificate* cert : fold_certs_) certs.push_back(*cert);
    observation.chain = chain::CertificateChain(std::move(certs));
  }
  return &observation;
}

void CorpusIndex::add_all(const std::vector<zeek::JoinedConnection>& connections) {
  for (const zeek::JoinedConnection& connection : connections) add(connection);
}

void CorpusIndex::write_snapshot(obs::json::Writer& writer) const {
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

  writer.key("certificates");
  writer.begin_array();
  for (const std::string& fingerprint : certificate_fingerprints_) {
    writer.value_string(fingerprint);
  }
  writer.end_array();

  writer.key("chains");
  writer.begin_array();
  for (const auto& [chain_id, observation] : chains_) {
    writer.begin_object();
    writer.key("id");
    writer.value_string(chain_id);
    writer.key("fingerprints");
    writer.begin_array();
    for (const x509::Certificate& cert : observation.chain) {
      writer.value_string(cert.fingerprint());
    }
    writer.end_array();
    writer.key("connections");
    writer.value_uint(observation.connections);
    writer.key("established");
    writer.value_uint(observation.established);
    write_string_set(writer, "client_ips", observation.client_ips);
    write_string_set(writer, "server_keys", observation.server_keys);
    writer.key("ports");
    writer.begin_array();
    for (const auto& [port, count] : observation.ports.items()) {
      writer.begin_array();
      writer.value_uint(port);
      writer.value_uint(count);
      writer.end_array();
    }
    writer.end_array();
    writer.key("with_sni");
    writer.value_uint(observation.with_sni);
    writer.key("without_sni");
    writer.value_uint(observation.without_sni);
    write_string_set(writer, "domains", observation.domains);
    writer.key("first_seen");
    writer.value_uint(static_cast<std::uint64_t>(observation.first_seen));
    writer.key("last_seen");
    writer.value_uint(static_cast<std::uint64_t>(observation.last_seen));
    writer.end_object();
  }
  writer.end_array();

  writer.end_object();
}

bool CorpusIndex::restore_snapshot(
    const obs::json::Value& value,
    const std::map<std::string, x509::Certificate>& by_fingerprint,
    std::string* error) {
  const auto fail = [this, error](const std::string& message) {
    chains_.clear();
    certificate_fingerprints_.clear();
    totals_ = CorpusTotals{};
    reset_fold_memo();
    if (error != nullptr) *error = message;
    return false;
  };

  chains_.clear();
  certificate_fingerprints_.clear();
  totals_ = CorpusTotals{};
  reset_fold_memo();
  if (!value.is_object()) return fail("corpus snapshot is not an object");

  const obs::json::Value* totals = value.find("totals");
  if (totals == nullptr || !totals->is_object() ||
      !read_uint(*totals, "connections", totals_.connections) ||
      !read_uint(*totals, "with_certificates", totals_.with_certificates) ||
      !read_uint(*totals, "tls13_connections", totals_.tls13_connections) ||
      !read_uint(*totals, "incomplete_joins", totals_.incomplete_joins)) {
    return fail("corpus snapshot totals malformed");
  }

  const obs::json::Value* certificates = value.find("certificates");
  if (certificates == nullptr || !certificates->is_array()) {
    return fail("corpus snapshot certificates malformed");
  }
  for (const obs::json::Value& entry : certificates->array) {
    if (!entry.is_string()) return fail("corpus snapshot certificates malformed");
    certificate_fingerprints_.insert(entry.string);
  }
  totals_.distinct_certificates = certificate_fingerprints_.size();

  const obs::json::Value* chains = value.find("chains");
  if (chains == nullptr || !chains->is_array()) {
    return fail("corpus snapshot chains malformed");
  }
  for (const obs::json::Value& entry : chains->array) {
    if (!entry.is_object()) return fail("corpus snapshot chain malformed");
    const obs::json::Value* id = entry.find("id");
    const obs::json::Value* fingerprints = entry.find("fingerprints");
    if (id == nullptr || !id->is_string() || fingerprints == nullptr ||
        !fingerprints->is_array()) {
      return fail("corpus snapshot chain malformed");
    }

    ChainObservation observation;
    std::vector<x509::Certificate> certs;
    certs.reserve(fingerprints->array.size());
    for (const obs::json::Value& fingerprint : fingerprints->array) {
      if (!fingerprint.is_string()) return fail("corpus snapshot chain malformed");
      const auto it = by_fingerprint.find(fingerprint.string);
      if (it == by_fingerprint.end()) {
        return fail("corpus snapshot references unknown certificate " +
                    fingerprint.string);
      }
      certs.push_back(it->second);
    }
    observation.chain = chain::CertificateChain(std::move(certs));
    if (observation.chain.id() != id->string) {
      return fail("corpus snapshot chain id mismatch for " + id->string);
    }

    std::uint64_t with_sni = 0;
    std::uint64_t without_sni = 0;
    std::uint64_t first_seen = 0;
    std::uint64_t last_seen = 0;
    if (!read_uint(entry, "connections", observation.connections) ||
        !read_uint(entry, "established", observation.established) ||
        !read_uint(entry, "with_sni", with_sni) ||
        !read_uint(entry, "without_sni", without_sni) ||
        !read_uint(entry, "first_seen", first_seen) ||
        !read_uint(entry, "last_seen", last_seen) ||
        !read_string_set(entry, "client_ips", observation.client_ips) ||
        !read_string_set(entry, "server_keys", observation.server_keys) ||
        !read_string_set(entry, "domains", observation.domains)) {
      return fail("corpus snapshot chain fields malformed for " + id->string);
    }
    observation.with_sni = with_sni;
    observation.without_sni = without_sni;
    observation.first_seen = static_cast<util::SimTime>(first_seen);
    observation.last_seen = static_cast<util::SimTime>(last_seen);

    const obs::json::Value* ports = entry.find("ports");
    if (ports == nullptr || !ports->is_array()) {
      return fail("corpus snapshot ports malformed for " + id->string);
    }
    for (const obs::json::Value& pair : ports->array) {
      if (!pair.is_array() || pair.array.size() != 2 ||
          !pair.array[0].is_number() || !pair.array[1].is_number()) {
        return fail("corpus snapshot ports malformed for " + id->string);
      }
      observation.ports.add(static_cast<std::uint16_t>(pair.array[0].num),
                            static_cast<std::uint64_t>(pair.array[1].num));
    }

    chains_.emplace(id->string, std::move(observation));
  }
  return true;
}

std::size_t CorpusIndex::distinct_clients(
    const std::vector<const ChainObservation*>& observations) {
  std::set<std::string> clients;
  for (const ChainObservation* observation : observations) {
    clients.insert(observation->client_ips.begin(), observation->client_ips.end());
  }
  return clients.size();
}

}  // namespace certchain::core
