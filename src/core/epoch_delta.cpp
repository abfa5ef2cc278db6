#include "core/epoch_delta.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace certchain::core {

namespace {

/// Caps churn target lists in renders; the full lists stay in the struct.
constexpr std::size_t kRenderedTargets = 8;

std::string signed_count(long long value) {
  return (value >= 0 ? "+" : "") + std::to_string(value);
}

std::string target_list(const std::vector<std::string>& targets) {
  if (targets.empty()) return "";
  std::string out = ": ";
  const std::size_t shown = std::min(targets.size(), kRenderedTargets);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) out += ", ";
    out += targets[i];
  }
  if (targets.size() > shown) {
    out += ", … (+" + std::to_string(targets.size() - shown) + " more)";
  }
  return out;
}

void write_ledger_json(obs::json::Writer& w, const scanner::ScanLedger& ledger) {
  w.begin_object();
  w.key("targets"); w.value_uint(ledger.targets);
  w.key("attempts"); w.value_uint(ledger.attempts);
  w.key("retries"); w.value_uint(ledger.retries);
  w.key("successes"); w.value_uint(ledger.successes);
  w.key("salvaged"); w.value_uint(ledger.salvaged);
  w.key("failures"); w.value_uint(ledger.failures);
  w.key("backoff_ms"); w.value_uint(ledger.backoff_ms_total);
  w.key("certs_salvaged"); w.value_uint(ledger.certs_salvaged);
  w.key("certs_dropped"); w.value_uint(ledger.certs_dropped);
  w.key("errors");
  w.begin_array();
  for (const auto& [error, count] : ledger.error_counts) {
    w.begin_array();
    w.value_uint(static_cast<std::uint64_t>(error));
    w.value_uint(count);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

std::uint64_t u64_field(const obs::json::Value& object, std::string_view key) {
  std::uint64_t value = 0;
  obs::json::read_uint(object.find(key), value);
  return value;
}

bool bool_field(const obs::json::Value& object, std::string_view key) {
  const obs::json::Value* field = object.find(key);
  return field != nullptr && field->kind == obs::json::Value::Kind::kBool &&
         field->boolean;
}

std::string string_field(const obs::json::Value& object, std::string_view key) {
  const obs::json::Value* field = object.find(key);
  return field != nullptr && field->is_string() ? field->string : std::string();
}

bool parse_ledger(const obs::json::Value& value, scanner::ScanLedger* ledger) {
  if (!value.is_object()) return false;
  ledger->targets = u64_field(value, "targets");
  ledger->attempts = u64_field(value, "attempts");
  ledger->retries = u64_field(value, "retries");
  ledger->successes = u64_field(value, "successes");
  ledger->salvaged = u64_field(value, "salvaged");
  ledger->failures = u64_field(value, "failures");
  ledger->backoff_ms_total = u64_field(value, "backoff_ms");
  ledger->certs_salvaged = u64_field(value, "certs_salvaged");
  ledger->certs_dropped = u64_field(value, "certs_dropped");
  const obs::json::Value* errors = value.find("errors");
  if (errors != nullptr && errors->is_array()) {
    for (const obs::json::Value& entry : errors->array) {
      std::uint64_t code = 0;
      std::uint64_t count = 0;
      if (!entry.is_array() || entry.array.size() != 2 ||
          !obs::json::read_uint(
              &entry.array[0], code,
              static_cast<std::uint64_t>(scanner::ScanError::kDeadlineExceeded)) ||
          !obs::json::read_uint(&entry.array[1], count)) {
        return false;
      }
      ledger->error_counts[static_cast<scanner::ScanError>(code)] = count;
    }
  }
  return true;
}

}  // namespace

double EpochSummary::lets_encrypt_share() const {
  if (reachable == 0) return 0.0;
  return static_cast<double>(lets_encrypt) / static_cast<double>(reachable);
}

EpochSummary summarize_epoch(
    std::size_t index,
    const std::vector<std::pair<std::string, scanner::ResilientScanResult>>& scans,
    const scanner::ScanLedger& ledger,
    const truststore::TrustStoreSet& stores) {
  EpochSummary epoch;
  epoch.index = index;
  epoch.health.ledger = ledger;
  epoch.health.scanned = scans.size();

  for (const auto& [target, result] : scans) {
    if (!result.reachable()) {
      ++epoch.health.unreachable;
      continue;
    }
    if (result.degraded) {
      ++epoch.health.reachable_degraded;
    } else {
      ++epoch.health.reachable_clean;
    }
    ++epoch.reachable;

    const chain::CertificateChain& chain = result.scan.chain;
    EpochTargetRecord record;
    record.target = target;
    record.chain_length = chain.length();
    record.degraded = result.degraded;
    if (!chain.empty()) {
      const x509::Certificate& leaf = chain.first();
      record.leaf_fingerprint = leaf.fingerprint();
      record.leaf_subject = leaf.subject.canonical();
      record.leaf_issuer = leaf.issuer.canonical();
      record.leaf_key = leaf.public_key.material;

      bool all_public = true;
      bool all_non_public = true;
      for (const x509::Certificate& cert : chain) {
        if (stores.classify_certificate(cert) == truststore::IssuerClass::kPublicDb) {
          all_non_public = false;
        } else {
          all_public = false;
        }
      }
      record.all_public = all_public;
      record.all_non_public = all_non_public;
      record.lets_encrypt = all_public && RevisitAnalyzer::is_lets_encrypt_chain(chain);
      record.hierarchical_non_public = all_non_public && chain.length() > 1;
    }

    if (record.lets_encrypt) {
      ++epoch.lets_encrypt;
    } else if (record.all_public) {
      ++epoch.other_public;
    } else if (record.all_non_public) {
      ++epoch.all_non_public;
      if (record.hierarchical_non_public) ++epoch.hierarchical_non_public;
    } else {
      ++epoch.mixed;
    }
    epoch.targets.emplace(target, std::move(record));
  }
  return epoch;
}

EpochDelta compute_epoch_delta(const EpochSummary& from, const EpochSummary& to) {
  EpochDelta delta;
  delta.from_index = from.index;
  delta.to_index = to.index;
  delta.reachable_shift = static_cast<long long>(to.reachable) -
                          static_cast<long long>(from.reachable);
  delta.lets_encrypt_shift = static_cast<long long>(to.lets_encrypt) -
                             static_cast<long long>(from.lets_encrypt);
  delta.lets_encrypt_share_from = from.lets_encrypt_share();
  delta.lets_encrypt_share_to = to.lets_encrypt_share();
  delta.hierarchical_non_public_shift =
      static_cast<long long>(to.hierarchical_non_public) -
      static_cast<long long>(from.hierarchical_non_public);

  for (const auto& [target, record] : to.targets) {
    const auto previous = from.targets.find(target);
    if (previous == from.targets.end()) {
      delta.appeared.push_back(target);
      continue;
    }
    if (previous->second.leaf_fingerprint == record.leaf_fingerprint) {
      ++delta.unchanged;
    } else if (previous->second.leaf_key != record.leaf_key) {
      delta.re_keyed.push_back(target);
    } else {
      delta.re_issued.push_back(target);
    }
  }
  for (const auto& [target, record] : from.targets) {
    if (to.targets.find(target) == to.targets.end()) {
      delta.disappeared.push_back(target);
    }
  }
  return delta;
}

std::string render_epoch_summary(const EpochSummary& epoch) {
  std::string out;
  out += "epoch " + std::to_string(epoch.index) + ": scanned " +
         util::with_commas(epoch.health.scanned) + " (clean " +
         util::with_commas(epoch.health.reachable_clean) + ", degraded " +
         util::with_commas(epoch.health.reachable_degraded) + ", unreachable " +
         util::with_commas(epoch.health.unreachable) + ")\n";
  out += "  categories: lets-encrypt " + util::with_commas(epoch.lets_encrypt) +
         " (" + util::percent(static_cast<double>(epoch.lets_encrypt),
                              static_cast<double>(epoch.reachable)) +
         "% of reachable), other-public " + util::with_commas(epoch.other_public) +
         ", non-public " + util::with_commas(epoch.all_non_public) +
         " (hierarchical " + util::with_commas(epoch.hierarchical_non_public) +
         "), mixed " + util::with_commas(epoch.mixed) + "\n";
  const scanner::ScanLedger& ledger = epoch.health.ledger;
  out += "  effort: attempts " + util::with_commas(ledger.attempts) + ", retries " +
         util::with_commas(ledger.retries) + ", backoff " +
         util::with_commas(ledger.backoff_ms_total) + " ms, certs salvaged " +
         util::with_commas(ledger.certs_salvaged) + ", dropped " +
         util::with_commas(ledger.certs_dropped) + "\n";
  if (!ledger.error_counts.empty()) {
    out += "  attempt errors:";
    for (const auto& [error, count] : ledger.error_counts) {
      out += " " + std::string(scanner::scan_error_name(error)) + "=" +
             util::with_commas(count);
    }
    out += "\n";
  }
  return out;
}

std::string render_epoch_delta(const EpochDelta& delta) {
  std::string out;
  out += "delta " + std::to_string(delta.from_index) + " -> " +
         std::to_string(delta.to_index) + "\n";
  out += "  reachable: " + signed_count(delta.reachable_shift) + "\n";
  out += "  lets-encrypt share: " +
         util::percent(delta.lets_encrypt_share_from, 1.0) + "% -> " +
         util::percent(delta.lets_encrypt_share_to, 1.0) + "% (" +
         signed_count(delta.lets_encrypt_shift) + " chains)\n";
  out += "  hierarchical non-public: " +
         signed_count(delta.hierarchical_non_public_shift) + "\n";
  out += "  churn: appeared " + std::to_string(delta.appeared.size()) +
         target_list(delta.appeared) + "\n";
  out += "         disappeared " + std::to_string(delta.disappeared.size()) +
         target_list(delta.disappeared) + "\n";
  out += "         re-keyed " + std::to_string(delta.re_keyed.size()) +
         target_list(delta.re_keyed) + "\n";
  out += "         re-issued " + std::to_string(delta.re_issued.size()) +
         target_list(delta.re_issued) + "\n";
  out += "         unchanged " + std::to_string(delta.unchanged) + "\n";
  return out;
}

std::string render_fleet_section(const std::vector<EpochSummary>& epochs) {
  std::string out;
  out += util::render_banner("Continuous revisit fleet (epoch deltas)");
  out += "epochs completed: " + std::to_string(epochs.size()) + "\n";
  for (const EpochSummary& epoch : epochs) {
    out += render_epoch_summary(epoch);
  }
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    out += render_epoch_delta(compute_epoch_delta(epochs[i - 1], epochs[i]));
  }
  return out;
}

void write_epoch_summary_json(obs::json::Writer& w, const EpochSummary& epoch) {
  w.begin_object();
  w.key("index"); w.value_uint(epoch.index);
  w.key("scanned"); w.value_uint(epoch.health.scanned);
  w.key("clean"); w.value_uint(epoch.health.reachable_clean);
  w.key("degraded"); w.value_uint(epoch.health.reachable_degraded);
  w.key("unreachable"); w.value_uint(epoch.health.unreachable);
  w.key("ledger");
  write_ledger_json(w, epoch.health.ledger);
  w.key("targets");
  w.begin_array();
  for (const auto& [target, record] : epoch.targets) {
    w.begin_object();
    w.key("t"); w.value_string(target);
    w.key("fp"); w.value_string(record.leaf_fingerprint);
    w.key("subj"); w.value_string(record.leaf_subject);
    w.key("iss"); w.value_string(record.leaf_issuer);
    w.key("key"); w.value_string(record.leaf_key);
    w.key("len"); w.value_uint(record.chain_length);
    w.key("deg"); w.value_bool(record.degraded);
    w.key("le"); w.value_bool(record.lets_encrypt);
    w.key("pub"); w.value_bool(record.all_public);
    w.key("npub"); w.value_bool(record.all_non_public);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::optional<EpochSummary> parse_epoch_summary(const obs::json::Value& value) {
  if (!value.is_object()) return std::nullopt;
  EpochSummary epoch;
  epoch.index = u64_field(value, "index");
  epoch.health.scanned = u64_field(value, "scanned");
  epoch.health.reachable_clean = u64_field(value, "clean");
  epoch.health.reachable_degraded = u64_field(value, "degraded");
  epoch.health.unreachable = u64_field(value, "unreachable");
  const obs::json::Value* ledger = value.find("ledger");
  if (ledger == nullptr || !parse_ledger(*ledger, &epoch.health.ledger)) {
    return std::nullopt;
  }
  const obs::json::Value* targets = value.find("targets");
  if (targets == nullptr || !targets->is_array()) return std::nullopt;
  for (const obs::json::Value& entry : targets->array) {
    if (!entry.is_object()) return std::nullopt;
    EpochTargetRecord record;
    record.target = string_field(entry, "t");
    if (record.target.empty()) return std::nullopt;
    record.leaf_fingerprint = string_field(entry, "fp");
    record.leaf_subject = string_field(entry, "subj");
    record.leaf_issuer = string_field(entry, "iss");
    record.leaf_key = string_field(entry, "key");
    record.chain_length = u64_field(entry, "len");
    record.degraded = bool_field(entry, "deg");
    record.lets_encrypt = bool_field(entry, "le");
    record.all_public = bool_field(entry, "pub");
    record.all_non_public = bool_field(entry, "npub");
    record.hierarchical_non_public =
        record.all_non_public && record.chain_length > 1;

    ++epoch.reachable;
    if (record.lets_encrypt) {
      ++epoch.lets_encrypt;
    } else if (record.all_public) {
      ++epoch.other_public;
    } else if (record.all_non_public) {
      ++epoch.all_non_public;
      if (record.hierarchical_non_public) ++epoch.hierarchical_non_public;
    } else {
      ++epoch.mixed;
    }
    epoch.targets.emplace(record.target, std::move(record));
  }
  if (epoch.reachable !=
      epoch.health.reachable_clean + epoch.health.reachable_degraded) {
    return std::nullopt;
  }
  return epoch;
}

void write_epoch_delta_json(obs::json::Writer& w, const EpochDelta& delta) {
  w.begin_object();
  w.key("from"); w.value_uint(delta.from_index);
  w.key("to"); w.value_uint(delta.to_index);
  w.key("reachable_shift"); w.value_number(static_cast<double>(delta.reachable_shift));
  w.key("lets_encrypt_shift");
  w.value_number(static_cast<double>(delta.lets_encrypt_shift));
  w.key("lets_encrypt_share_from"); w.value_number(delta.lets_encrypt_share_from);
  w.key("lets_encrypt_share_to"); w.value_number(delta.lets_encrypt_share_to);
  w.key("hierarchical_shift");
  w.value_number(static_cast<double>(delta.hierarchical_non_public_shift));
  w.key("appeared"); w.value_uint(delta.appeared.size());
  w.key("disappeared"); w.value_uint(delta.disappeared.size());
  w.key("re_keyed"); w.value_uint(delta.re_keyed.size());
  w.key("re_issued"); w.value_uint(delta.re_issued.size());
  w.key("unchanged"); w.value_uint(delta.unchanged);
  w.key("text"); w.value_string(render_epoch_delta(delta));
  w.end_object();
}

}  // namespace certchain::core
