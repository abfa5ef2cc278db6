#include "core/corpus.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
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

/// Parses a digest as write_snapshot writes it: 64 lowercase hex digits.
bool parse_digest(std::string_view hex, util::Digest256& out) {
  return std::none_of(hex.begin(), hex.end(),
                      [](char c) { return c >= 'A' && c <= 'F'; }) &&
         util::Digest256::from_hex(hex, out);
}

/// Appends one fuid to a fuid-list key: its length, then its bytes, so
/// every fuid (one holding a NUL too) splits back out exactly.
void append_key_fuid(std::string& key, std::string_view fuid) {
  const std::size_t size = fuid.size();
  key.append(reinterpret_cast<const char*>(&size), sizeof size);
  key.append(fuid);
}

}  // namespace

RoutedRow RoutedRow::of(const zeek::SslRowView& row, ResolvedChain* chain) {
  RoutedRow routed;
  routed.chain = chain;
  routed.ts = row.ts;
  routed.client = row.id_orig_h;
  routed.server_host = row.id_resp_h;
  routed.server_name = row.server_name;
  routed.server_port = row.id_resp_p;
  routed.established = row.established;
  routed.tls13 = row.version == "TLSv13";
  return routed;
}

ResolvedChain& ChainResolver::resolve(std::string_view cell) {
  const auto it = memo_.find(cell);
  if (it != memo_.end()) return it->second;
  ResolvedChain resolved;
  zeek::tsv::for_each_vector_element(
      cell, unescaped_, [this, &resolved](std::string_view fuid) {
        if (const x509::CertificateHandle* cert = joiner_->find(fuid)) {
          resolved.certs.push_back(cert);
        } else {
          resolved.missing = true;
        }
      });
  resolved.id = chain::CertificateChain::id_digest(resolved.certs);
  return memo_.emplace(cell, std::move(resolved)).first->second;
}

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

ChainObservation& CorpusIndex::observation_slot(const util::Digest256& chain_id) {
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

void CorpusIndex::ClientPairSet::reset(std::size_t pairs) {
  std::size_t capacity = 64;
  while (capacity < 2 * (pairs + 1)) capacity *= 2;
  slots.assign(capacity, kEmpty);
  size = 0;
}

void CorpusIndex::add_client(ChainObservation& observation, ClientId client) {
  if (pairs_stale_) rebuild_pairs();
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
    if (certificate_fingerprints_.insert(cert.fingerprint_digest()).second) {
      ++totals_.distinct_certificates;
    }
  }

  ChainObservation& observation = observation_slot(connection.chain.id_digest());
  if (observation.connections == 0) observation.chain = connection.chain;
  fold_usage(observation, fold_row_of(connection.ssl));
}

void CorpusIndex::add(const zeek::LogJoiner& joiner,
                      const zeek::SslLogRecord& ssl) {
  fold_.key.clear();
  for (const std::string& fuid : ssl.cert_chain_fuids) {
    append_key_fuid(fold_.key, fuid);
  }
  const FoldMemoEntry entry =
      memo_entry(joiner, fold_.record_memo, fold_.key, [&ssl](auto&& visit) {
        for (const std::string& fuid : ssl.cert_chain_fuids) visit(fuid);
      });
  fold(entry, fold_row_of(ssl));
}

void CorpusIndex::add(const zeek::LogJoiner& joiner,
                      const zeek::SslRowView& row) {
  const FoldMemoEntry entry = memo_entry(
      joiner, fold_.cell_memo, row.cert_chain_fuids, [this, &row](auto&& visit) {
        zeek::tsv::for_each_vector_element(row.cert_chain_fuids,
                                           fold_.unescaped, visit);
      });
  fold(entry, fold_row_of(RoutedRow::of(row, nullptr)));
}

void CorpusIndex::add(const RoutedRow& row) {
  ResolvedChain& resolved = *row.chain;
  FoldMemoEntry entry;
  entry.missing = resolved.missing;
  if (!resolved.certs.empty()) {
    if (resolved.observation == nullptr) {
      resolved.observation = &register_chain(resolved.id, resolved.certs);
    }
    entry.observation = resolved.observation;
  }
  fold(entry, fold_row_of(row));
}

CorpusIndex::FoldRow CorpusIndex::fold_row_of(const RoutedRow& row) {
  zeek::tsv::unescape_into(row.server_name, fold_.server_name);
  FoldRow fold_row;
  fold_row.ts = row.ts;
  fold_row.established = row.established;
  fold_row.tls13 = row.tls13;
  fold_row.client = row.client;
  fold_row.server_host = row.server_host;
  fold_row.server_port = row.server_port;
  fold_row.server_name = &fold_.server_name;
  return fold_row;
}

template <typename ForEachFuid>
CorpusIndex::FoldMemoEntry CorpusIndex::memo_entry(const zeek::LogJoiner& joiner,
                                                   FoldMemo& memo,
                                                   std::string_view key,
                                                   ForEachFuid&& for_each_fuid) {
  // The memo is only valid against the joiner state it was built from: the
  // joiner grows over time, and growth can resolve a previously-missing fuid.
  if (fold_.joiner != &joiner ||
      fold_.joiner_size != joiner.certificate_count()) {
    fold_.reset_memo();
    fold_.joiner = &joiner;
    fold_.joiner_size = joiner.certificate_count();
  }
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  // A miss runs once per distinct fuid list: each fuid is a string_view
  // probe of the joiner's index, and the chain is digested.
  FoldMemoEntry entry;
  fold_.certs.clear();
  for_each_fuid([this, &joiner, &entry](std::string_view fuid) {
    if (const x509::CertificateHandle* cert = joiner.find(fuid)) {
      fold_.certs.push_back(cert);
    } else {
      entry.missing = true;
    }
  });
  if (!fold_.certs.empty()) {
    entry.observation = &register_chain(
        chain::CertificateChain::id_digest(fold_.certs), fold_.certs);
  }
  memo.emplace(key, entry);
  return entry;
}

void CorpusIndex::fold(const FoldMemoEntry& entry, const FoldRow& row) {
  ++totals_.connections;
  if (row.tls13) ++totals_.tls13_connections;
  if (entry.missing) ++totals_.incomplete_joins;
  if (entry.observation == nullptr) return;  // no fuid resolved: totals only
  ++totals_.with_certificates;
  fold_usage(*entry.observation, row);
}

ChainObservation& CorpusIndex::register_chain(
    const util::Digest256& id,
    const std::vector<const x509::CertificateHandle*>& certs) {
  // LogJoiner::add seals every certificate, so each fingerprint (here and
  // in the chain id) is a memo read, not a digest.
  for (const x509::CertificateHandle* cert : certs) {
    if (certificate_fingerprints_.insert((*cert)->fingerprint_digest()).second) {
      ++totals_.distinct_certificates;
    }
  }
  ChainObservation& observation = observation_slot(id);
  // First observation of this chain id: the chain shares the joiner's
  // certificates, one handle each.
  if (observation.connections == 0) {
    std::vector<x509::CertificateHandle> handles;
    handles.reserve(certs.size());
    for (const x509::CertificateHandle* cert : certs) handles.push_back(*cert);
    observation.chain = chain::CertificateChain(std::move(handles));
  }
  return observation;
}

void CorpusIndex::hand_off(std::vector<CorpusIndex>& owners) {
  while (!chains_.empty()) {
    auto node = chains_.extract(chains_.begin());
    CorpusIndex& owner = owners[owner_of(node.key(), owners.size())];
    const std::vector<ClientId> clients = std::move(node.mapped().client_ips);
    node.mapped().client_ips.clear();
    node.mapped().ordinal = static_cast<std::uint32_t>(owner.chains_.size());
    const auto placed = owner.chains_.insert(std::move(node));
    if (!placed.inserted) {
      throw std::logic_error("CorpusIndex::hand_off: the owner holds the chain");
    }
    for (const ClientId client : clients) {
      owner.add_client(placed.position->second,
                       owner.intern_client(client_addresses_[client]));
    }
  }
  client_addresses_.clear();
  client_ids_.clear();
  chain_clients_.clear();
  fold_.reset_memo();
}

void CorpusIndex::combine(std::vector<CorpusIndex>& owners) {
  std::size_t certificates = certificate_fingerprints_.size();
  std::size_t clients = client_addresses_.size();
  for (const CorpusIndex& owner : owners) {
    certificates += owner.certificate_fingerprints_.size();
    clients += owner.client_addresses_.size();
  }
  certificate_fingerprints_.reserve(certificates);
  client_addresses_.reserve(clients);
  client_ids_.reserve(clients);
  for (CorpusIndex& owner : owners) {
    totals_.connections += owner.totals_.connections;
    totals_.with_certificates += owner.totals_.with_certificates;
    totals_.tls13_connections += owner.totals_.tls13_connections;
    totals_.incomplete_joins += owner.totals_.incomplete_joins;
    certificate_fingerprints_.insert(owner.certificate_fingerprints_.begin(),
                                     owner.certificate_fingerprints_.end());
    // The owner's client ids, re-interned here.
    std::vector<ClientId> ids;
    ids.reserve(owner.client_addresses_.size());
    for (const std::string& address : owner.client_addresses_) {
      ids.push_back(intern_client(address));
    }
    for (auto& [chain_id, observation] : owner.chains_) {
      for (ClientId& client : observation.client_ips) client = ids[client];
    }
    chains_.merge(owner.chains_);
    if (!owner.chains_.empty()) {
      throw std::logic_error("CorpusIndex::combine: two indexes hold a chain");
    }
  }
  totals_.distinct_certificates = certificate_fingerprints_.size();
  std::uint32_t ordinal = 0;
  for (auto& [chain_id, observation] : chains_) observation.ordinal = ordinal++;
  // The (chain, client) set is rebuilt by the next add_client, if any: a
  // batch run never pays for it.
  chain_clients_.clear();
  pairs_stale_ = true;
}

void CorpusIndex::rebuild_pairs() {
  std::size_t pairs = 0;
  for (const auto& [chain_id, observation] : chains_) {
    pairs += observation.client_ips.size();
  }
  chain_clients_.reset(pairs);
  for (const auto& [chain_id, observation] : chains_) {
    for (const ClientId client : observation.client_ips) {
      chain_clients_.insert(std::uint64_t{observation.ordinal} << 32 | client);
    }
  }
  pairs_stale_ = false;
}

void CorpusIndex::write_snapshot(obs::json::Writer& writer) const {
  write_snapshot(writer, {this});
}

void CorpusIndex::write_snapshot(obs::json::Writer& writer,
                                 const std::vector<const CorpusIndex*>& parts) {
  CorpusTotals totals;
  std::vector<util::Digest256> fingerprints;
  struct Chain {
    const util::Digest256* id;
    const ChainObservation* observation;
    const CorpusIndex* part;  // whose client ids the observation holds
  };
  std::vector<Chain> chains;
  for (const CorpusIndex* part : parts) {
    totals.connections += part->totals_.connections;
    totals.with_certificates += part->totals_.with_certificates;
    totals.tls13_connections += part->totals_.tls13_connections;
    totals.incomplete_joins += part->totals_.incomplete_joins;
    fingerprints.insert(fingerprints.end(),
                        part->certificate_fingerprints_.begin(),
                        part->certificate_fingerprints_.end());
    for (const auto& [chain_id, observation] : part->chains_) {
      chains.push_back(Chain{&chain_id, &observation, part});
    }
  }
  // Digest order is hex order, so sorting digests sorts their renderings.
  std::sort(fingerprints.begin(), fingerprints.end());
  fingerprints.erase(std::unique(fingerprints.begin(), fingerprints.end()),
                     fingerprints.end());
  if (parts.size() > 1) {
    std::sort(chains.begin(), chains.end(),
              [](const Chain& a, const Chain& b) { return *a.id < *b.id; });
  }

  writer.begin_object();

  writer.key("totals");
  writer.begin_object();
  writer.key("connections");
  writer.value_uint(totals.connections);
  writer.key("with_certificates");
  writer.value_uint(totals.with_certificates);
  writer.key("tls13_connections");
  writer.value_uint(totals.tls13_connections);
  writer.key("incomplete_joins");
  writer.value_uint(totals.incomplete_joins);
  writer.end_object();

  writer.key("certificates");
  writer.begin_array();
  for (const util::Digest256& fingerprint : fingerprints) {
    writer.value_string(fingerprint.to_hex());
  }
  writer.end_array();

  writer.key("chains");
  writer.begin_array();
  for (const Chain& chain : chains) {
    const util::Digest256& chain_id = *chain.id;
    const ChainObservation& observation = *chain.observation;
    writer.begin_object();
    writer.key("id");
    writer.value_string(chain_id.to_hex());
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
      addresses.push_back(chain.part->client_addresses_[id]);
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
    util::Digest256 fingerprint;
    if (!parse_digest(entry.string, fingerprint)) {
      return fail("corpus snapshot certificate is not a hex digest: " +
                  entry.string);
    }
    certificate_fingerprints_.insert(fingerprint);
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
    util::Digest256 chain_id;
    if (!parse_digest(id->string, chain_id)) {
      return fail("corpus snapshot chain id is not a hex digest: " + id->string);
    }
    if (chains_.contains(chain_id)) {
      return fail("corpus snapshot repeats chain " + id->string);
    }

    ChainObservation& observation = observation_slot(chain_id);
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
    if (observation.chain.id_digest() != chain_id) {
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
  pairs_stale_ = false;
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
