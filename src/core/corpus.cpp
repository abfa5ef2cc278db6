#include "core/corpus.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/hash.hpp"
#include "zeek/log_io.hpp"

namespace certchain::core {

namespace {

/// Writes an ordered string collection as a JSON array.
template <typename Strings>
void write_strings(obs::json::Writer& writer, const char* key,
                   const Strings& values) {
  writer.key(key);
  writer.begin_array();
  for (const auto& value : values) writer.value_string(value);
  writer.end_array();
}

/// Calls `add(text)` for each element of a string-array member; false when
/// the member is absent, not an array, or holds a non-string.
template <typename Add>
bool read_strings(const obs::json::Value& object, const char* key, Add&& add) {
  const obs::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_array()) return false;
  for (const obs::json::Value& entry : member->array) {
    if (!entry.is_string()) return false;
    add(entry.string);
  }
  return true;
}

bool read_string_set(const obs::json::Value& object, const char* key,
                     std::set<std::string>& out) {
  return read_strings(object, key,
                      [&out](const std::string& text) { out.insert(text); });
}

/// Appends one fuid to a fuid-list key: its length, then its bytes, so
/// every fuid (one holding a NUL too) splits back out exactly.
void append_key_fuid(std::string& key, std::string_view fuid) {
  const std::size_t size = fuid.size();
  key.append(reinterpret_cast<const char*>(&size), sizeof size);
  key.append(fuid);
}

}  // namespace

CorpusIndex::FoldRow CorpusIndex::fold_row_of(const zeek::SslLogRecord& ssl) {
  FoldRow row;
  row.ts = ssl.ts;
  row.established = ssl.established;
  row.tls13 = ssl.version == "TLSv13";
  row.client = ssl.id_orig_h;
  row.server_host = ssl.id_resp_h;
  row.server_port = ssl.id_resp_p;
  row.server_name = &ssl.server_name;
  return row;
}

ClientId CorpusIndex::intern_client(std::string_view address) {
  const auto it = client_ids_.find(address);
  if (it != client_ids_.end()) return it->second;
  if (client_addresses_.size() >= std::numeric_limits<ClientId>::max()) {
    throw std::length_error("CorpusIndex: client id space exhausted");
  }
  const auto id = static_cast<ClientId>(client_addresses_.size());
  client_addresses_.emplace_back(address);
  client_ids_.emplace(client_addresses_.back(), id);
  return id;
}

void CorpusIndex::fold_usage(ChainObservation& observation, const FoldRow& row) {
  if (observation.connections == 0) {
    observation.first_seen = row.ts;
    observation.last_seen = row.ts;
  } else {
    observation.first_seen = std::min(observation.first_seen, row.ts);
    observation.last_seen = std::max(observation.last_seen, row.ts);
  }
  ++observation.connections;
  if (row.established) ++observation.established;
  add_client(observation, intern_client(row.client));

  std::string& server_key = fold_.server_key;
  server_key.assign(row.server_host);
  server_key.push_back(':');
  char port[8];
  const auto port_end =
      std::to_chars(port, port + sizeof(port), row.server_port).ptr;
  server_key.append(port, port_end);
  observation.server_keys.insert(server_key);  // copies only when new

  observation.ports.add(row.server_port);
  if (row.server_name->empty()) {
    ++observation.without_sni;
  } else {
    ++observation.with_sni;
    observation.domains.insert(*row.server_name);
  }
}

ChainObservation& CorpusIndex::observation_slot(const std::string& chain_id) {
  const auto [it, inserted] = chains_.try_emplace(chain_id);
  if (inserted) {
    const std::size_t ordinal = chains_.size() - 1;
    if (ordinal > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("CorpusIndex: chain ordinal space exhausted");
    }
    it->second.ordinal = static_cast<std::uint32_t>(ordinal);
  }
  return it->second;
}

bool CorpusIndex::ClientPairSet::insert(std::uint64_t pair) {
  if (2 * (size + 1) > slots.size()) {
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, 2 * slots.size()),
                                   kEmpty);
    old.swap(slots);
    size = 0;
    for (const std::uint64_t kept : old) {
      if (kept != kEmpty) insert(kept);
    }
  }
  const std::size_t mask = slots.size() - 1;
  // A multiplicative mix, so the dense ids of one chain spread out.
  for (std::size_t i = (pair * 0x9E3779B97F4A7C15ull) >> 20 & mask;;
       i = (i + 1) & mask) {
    if (slots[i] == pair) return false;
    if (slots[i] == kEmpty) {
      slots[i] = pair;
      ++size;
      return true;
    }
  }
}

void CorpusIndex::add_client(ChainObservation& observation, ClientId client) {
  const std::uint64_t pair = std::uint64_t{observation.ordinal} << 32 | client;
  if (chain_clients_.insert(pair)) observation.client_ips.push_back(client);
}

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

  ChainObservation& observation = observation_slot(connection.chain.id());
  if (observation.connections == 0) observation.chain = connection.chain;
  fold_usage(observation, fold_row_of(connection.ssl));
}

void CorpusIndex::add(const zeek::LogJoiner& joiner,
                      const zeek::SslLogRecord& ssl) {
  fold_.key.clear();
  for (const std::string& fuid : ssl.cert_chain_fuids) {
    append_key_fuid(fold_.key, fuid);
  }
  fold(joiner, fold_row_of(ssl));
}

void CorpusIndex::add(const zeek::LogJoiner& joiner,
                      const zeek::SslRowView& row) {
  fold_.key.clear();
  zeek::tsv::for_each_vector_element(
      row.cert_chain_fuids, fold_.unescaped,
      [this](std::string_view fuid) { append_key_fuid(fold_.key, fuid); });
  zeek::tsv::unescape_into(row.server_name, fold_.server_name);

  FoldRow fold_row;
  fold_row.ts = row.ts;
  fold_row.established = row.established;
  fold_row.tls13 = row.version == "TLSv13";
  fold_row.client = row.id_orig_h;
  fold_row.server_host = row.id_resp_h;
  fold_row.server_port = row.id_resp_p;
  fold_row.server_name = &fold_.server_name;
  fold(joiner, fold_row);
}

void CorpusIndex::fold(const zeek::LogJoiner& joiner, const FoldRow& row) {
  ++totals_.connections;
  if (row.tls13) ++totals_.tls13_connections;

  // The memo is only valid against the joiner state it was built from: the
  // joiner grows over time, and growth can resolve a previously-missing fuid.
  if (fold_.joiner != &joiner ||
      fold_.joiner_size != joiner.certificate_count()) {
    fold_.reset_memo();
    fold_.joiner = &joiner;
    fold_.joiner_size = joiner.certificate_count();
  }

  FoldMemoEntry entry;
  const auto memo_it = fold_.memo.find(std::string_view(fold_.key));
  if (memo_it != fold_.memo.end()) {
    entry = memo_it->second;
  } else {
    entry.observation = resolve_and_register(joiner, entry.missing);
    fold_.memo.emplace(fold_.key, entry);
  }

  if (entry.missing) ++totals_.incomplete_joins;
  if (entry.observation == nullptr) return;  // no fuid resolved: totals only
  ++totals_.with_certificates;
  fold_usage(*entry.observation, row);
}

ChainObservation* CorpusIndex::resolve_and_register(
    const zeek::LogJoiner& joiner, bool& missing) {
  fold_.certs.clear();
  const std::string_view key = fold_.key;
  for (std::size_t pos = 0; pos < key.size();) {
    std::size_t size = 0;
    std::memcpy(&size, key.data() + pos, sizeof size);
    pos += sizeof size;
    const x509::CertificateHandle* cert = joiner.find(key.substr(pos, size));
    pos += size;
    if (cert == nullptr) {
      missing = true;
    } else {
      fold_.certs.push_back(cert);
    }
  }
  if (fold_.certs.empty()) return nullptr;

  fold_.id_bytes.clear();
  for (const x509::CertificateHandle* cert : fold_.certs) {
    // LogJoiner::add seals every certificate, so the fingerprint is a memo
    // read, not a digest.
    const std::string& fingerprint = (*cert)->fingerprint_memo;
    if (certificate_fingerprints_.insert(fingerprint).second) {
      ++totals_.distinct_certificates;
    }
    // Mirrors CertificateChain::id() byte for byte: same bytes, same digest,
    // same chain identity as the copying path.
    fold_.id_bytes.append(fingerprint);
    fold_.id_bytes.push_back('|');
  }

  ChainObservation& observation =
      observation_slot(util::digest256_hex(fold_.id_bytes));
  if (observation.connections == 0) {
    // First observation of this chain id: the chain shares the joiner's
    // certificates, one handle each.
    std::vector<x509::CertificateHandle> certs;
    certs.reserve(fold_.certs.size());
    for (const x509::CertificateHandle* cert : fold_.certs) certs.push_back(*cert);
    observation.chain = chain::CertificateChain(std::move(certs));
  }
  return &observation;
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

  std::vector<std::string_view> fingerprints(certificate_fingerprints_.begin(),
                                             certificate_fingerprints_.end());
  std::sort(fingerprints.begin(), fingerprints.end());
  write_strings(writer, "certificates", fingerprints);

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
    std::vector<std::string_view> addresses;
    addresses.reserve(observation.client_ips.size());
    for (const ClientId id : observation.client_ips) {
      addresses.push_back(client_addresses_[id]);
    }
    std::sort(addresses.begin(), addresses.end());
    write_strings(writer, "client_ips", addresses);
    write_strings(writer, "server_keys", observation.server_keys);
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
    write_strings(writer, "domains", observation.domains);
    writer.key("first_seen");
    writer.value_uint(static_cast<std::uint64_t>(observation.first_seen));
    writer.key("last_seen");
    writer.value_uint(static_cast<std::uint64_t>(observation.last_seen));
    writer.end_object();
  }
  writer.end_array();

  writer.end_object();
}

bool CorpusIndex::restore_snapshot(const obs::json::Value& value,
                                   const zeek::CertificateIndex& by_fingerprint,
                                   std::string* error) {
  const auto fail = [this, error](const std::string& message) {
    clear();
    if (error != nullptr) *error = message;
    return false;
  };

  clear();
  if (!value.is_object()) return fail("corpus snapshot is not an object");

  const obs::json::Value* totals = value.find("totals");
  if (totals == nullptr || !totals->is_object() ||
      !obs::json::read_uint(totals->find("connections"), totals_.connections) ||
      !obs::json::read_uint(totals->find("with_certificates"),
                            totals_.with_certificates) ||
      !obs::json::read_uint(totals->find("tls13_connections"),
                            totals_.tls13_connections) ||
      !obs::json::read_uint(totals->find("incomplete_joins"),
                            totals_.incomplete_joins)) {
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
    if (chains_.contains(id->string)) {
      return fail("corpus snapshot repeats chain " + id->string);
    }

    ChainObservation& observation = observation_slot(id->string);
    std::vector<x509::CertificateHandle> certs;
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
    const auto add_address = [this, &observation](const std::string& address) {
      add_client(observation, intern_client(address));
    };
    if (!obs::json::read_uint(entry.find("connections"), observation.connections) ||
        !obs::json::read_uint(entry.find("established"), observation.established) ||
        !obs::json::read_uint(entry.find("with_sni"), with_sni) ||
        !obs::json::read_uint(entry.find("without_sni"), without_sni) ||
        !obs::json::read_uint(entry.find("first_seen"), first_seen) ||
        !obs::json::read_uint(entry.find("last_seen"), last_seen) ||
        !read_strings(entry, "client_ips", add_address) ||
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
      std::uint64_t port = 0;
      std::uint64_t count = 0;
      if (!pair.is_array() || pair.array.size() != 2 ||
          !obs::json::read_uint(&pair.array[0], port,
                                std::numeric_limits<std::uint16_t>::max()) ||
          !obs::json::read_uint(&pair.array[1], count)) {
        return fail("corpus snapshot ports malformed for " + id->string);
      }
      observation.ports.add(static_cast<std::uint16_t>(port), count);
    }
  }
  return true;
}

void CorpusIndex::clear() {
  chains_.clear();
  certificate_fingerprints_.clear();
  totals_ = CorpusTotals{};
  client_addresses_.clear();
  client_ids_.clear();
  chain_clients_.clear();
  fold_.reset_memo();
}

std::size_t CorpusIndex::distinct_clients(
    const std::vector<const std::vector<ClientId>*>& id_lists) {
  std::vector<bool> seen;
  std::size_t count = 0;
  for (const std::vector<ClientId>* ids : id_lists) {
    for (const ClientId id : *ids) {
      if (id >= seen.size()) seen.resize(std::size_t{id} + 1);
      if (seen[id]) continue;
      seen[id] = true;
      ++count;
    }
  }
  return count;
}

std::size_t CorpusIndex::distinct_clients(
    const std::vector<const ChainObservation*>& observations) {
  std::vector<const std::vector<ClientId>*> id_lists;
  id_lists.reserve(observations.size());
  for (const ChainObservation* observation : observations) {
    id_lists.push_back(&observation->client_ips);
  }
  return distinct_clients(id_lists);
}

}  // namespace certchain::core
