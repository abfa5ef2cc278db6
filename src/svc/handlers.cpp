#include "svc/handlers.hpp"

#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/stopwatch.hpp"
#include "x509/pem.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain::svc {

namespace {

using obs::json::Value;
using obs::json::Writer;

/// Parses a request payload; an empty payload reads as an empty object so
/// parameterless endpoints (ping, metrics, shutdown) need no body.
std::optional<Value> parse_payload(const std::string& payload, std::string* error) {
  if (payload.empty()) {
    Value empty;
    empty.kind = Value::Kind::kObject;
    return empty;
  }
  return obs::json::parse(payload, error);
}

std::optional<std::vector<std::string>> string_array(const Value& object,
                                                     std::string_view key) {
  const Value* member = object.find(key);
  if (member == nullptr) return std::vector<std::string>{};  // absent = empty
  if (!member->is_array()) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(member->array.size());
  for (const Value& item : member->array) {
    if (!item.is_string()) return std::nullopt;
    out.push_back(item.string);
  }
  return out;
}

void write_path_analysis(Writer& writer, const chain::PathAnalysis& paths) {
  writer.begin_object();
  writer.key("pairs");
  writer.value_uint(paths.match.pair_count());
  writer.key("mismatched_pairs");
  writer.value_uint(paths.match.mismatch_count());
  writer.key("complete_path");
  writer.value_bool(paths.complete_path.has_value());
  if (paths.complete_path.has_value()) {
    writer.key("path_begin");
    writer.value_uint(paths.complete_path->begin);
    writer.key("path_end");
    writer.value_uint(paths.complete_path->end);
  }
  writer.key("unnecessary_certificates");
  writer.begin_array();
  for (const std::size_t index : paths.unnecessary_certificates) {
    writer.value_uint(index);
  }
  writer.end_array();
  writer.end_object();
}

void write_lints(Writer& writer, const chain::LintReport& lints) {
  writer.begin_array();
  for (const chain::LintFinding& finding : lints.findings) {
    writer.begin_object();
    writer.key("code");
    writer.value_string(chain::lint_code_name(finding.code));
    writer.key("severity");
    writer.value_string(chain::lint_severity_name(finding.severity));
    if (finding.position != static_cast<std::size_t>(-1)) {
      writer.key("position");
      writer.value_uint(finding.position);
    }
    writer.key("message");
    writer.value_string(finding.message);
    writer.key("recommendation");
    writer.value_string(finding.recommendation);
    writer.end_object();
  }
  writer.end_array();
}

/// Resolves the submitted chain: {"pem": "<bundle>"} or
/// {"x509_rows": [<zeek X509.log body rows>, ...]} in delivery order.
std::optional<chain::CertificateChain> chain_from_request(const Value& object,
                                                          std::string* error) {
  const Value* pem = object.find("pem");
  if (pem != nullptr) {
    if (!pem->is_string()) {
      *error = "\"pem\" must be a string";
      return std::nullopt;
    }
    std::size_t malformed = 0;
    std::vector<x509::Certificate> certs =
        x509::decode_pem_bundle(pem->string, &malformed);
    if (certs.empty()) {
      *error = "PEM bundle contains no decodable certificate";
      return std::nullopt;
    }
    if (malformed != 0) {
      *error = "PEM bundle contains " + std::to_string(malformed) +
               " undecodable block(s)";
      return std::nullopt;
    }
    return chain::CertificateChain(std::move(certs));
  }

  const auto rows = string_array(object, "x509_rows");
  if (!rows.has_value()) {
    *error = "\"x509_rows\" must be an array of strings";
    return std::nullopt;
  }
  if (rows->empty()) {
    *error = "request carries neither \"pem\" nor \"x509_rows\"";
    return std::nullopt;
  }
  chain::CertificateChain chain;
  for (std::size_t i = 0; i < rows->size(); ++i) {
    std::string row_error;
    const auto record = zeek::parse_x509_row((*rows)[i], &row_error);
    if (!record.has_value()) {
      *error = "x509_rows[" + std::to_string(i) + "]: " + row_error;
      return std::nullopt;
    }
    chain.push_back(zeek::certificate_from_record(*record));
  }
  return chain;
}

/// Section selection for report_section; "full" mirrors the CLI default.
std::optional<core::ReportTextOptions> section_options(const std::string& name) {
  core::ReportTextOptions options;
  options.totals = false;
  options.categories = false;
  options.interception = false;
  options.hybrid = false;
  options.non_public = false;
  options.ct_compliance = false;
  options.graphs = false;
  options.data_quality = false;
  if (name == "totals") options.totals = true;
  else if (name == "categories") options.categories = true;
  else if (name == "interception") options.interception = true;
  else if (name == "hybrid") options.hybrid = true;
  else if (name == "non_public") options.non_public = true;
  else if (name == "ct") options.ct_compliance = true;
  else if (name == "graphs") options.graphs = true;
  else if (name == "full") options = core::ReportTextOptions{};
  else return std::nullopt;
  return options;
}

}  // namespace

std::string RequestHandlers::handle(const Frame& request,
                                    bool* shutdown_requested) const {
  const std::string endpoint(message_type_name(request.type));
  const obs::Stopwatch stopwatch;
  telemetry_->count("svc.endpoint." + endpoint + ".requests");
  std::string response;
  try {
    response = dispatch(request, shutdown_requested);
  } catch (const std::exception& error) {
    response = encode_error(ErrorCode::kInternal, error.what());
  } catch (...) {
    response = encode_error(ErrorCode::kInternal, "unknown handler failure");
  }
  if (static_cast<std::uint8_t>(response[5]) ==
      static_cast<std::uint8_t>(MessageType::kError)) {
    telemetry_->count("svc.endpoint." + endpoint + ".errors");
  }
  telemetry_->observe_timing("svc.endpoint." + endpoint + ".ms",
                             stopwatch.elapsed_ms());
  return response;
}

std::string RequestHandlers::dispatch(const Frame& request,
                                      bool* shutdown_requested) const {
  std::string parse_error;
  const std::optional<Value> payload = parse_payload(request.payload, &parse_error);
  if (!payload.has_value()) {
    return encode_error(ErrorCode::kBadPayload, "payload is not valid JSON: " + parse_error);
  }
  if (!payload->is_object()) {
    return encode_error(ErrorCode::kBadPayload, "payload must be a JSON object");
  }

  Writer writer;
  switch (request.type) {
    case MessageType::kPing: {
      // One snapshot acquisition: generation and unique_chains come from the
      // same published generation, never torn across a concurrent append.
      const ServiceState::SnapshotPtr snapshot = state_->acquire_snapshot();
      writer.begin_object();
      writer.key("ok");
      writer.value_bool(true);
      writer.key("schema");
      writer.value_string(kWireSchemaName);
      writer.key("version");
      writer.value_uint(kWireVersion);
      writer.key("generation");
      writer.value_uint(snapshot->generation);
      writer.key("unique_chains");
      writer.value_uint(snapshot->report->unique_chains);
      writer.end_object();
      return encode_frame(MessageType::kPingOk, writer.str());
    }

    case MessageType::kClassifyIssuer: {
      const Value* issuer = payload->find("issuer");
      if (issuer == nullptr || !issuer->is_string()) {
        return encode_error(ErrorCode::kBadPayload,
                            "classify_issuer needs a string \"issuer\" field");
      }
      const auto name = x509::DistinguishedName::parse(issuer->string);
      if (!name.has_value()) {
        return encode_error(ErrorCode::kBadPayload,
                            "\"issuer\" is not a parseable RFC 4514 DN");
      }
      const truststore::IssuerClass issuer_class = state_->classify_issuer(*name);
      writer.begin_object();
      writer.key("issuer");
      writer.value_string(name->to_string());
      writer.key("canonical");
      writer.value_string(name->canonical());
      writer.key("class");
      writer.value_string(truststore::issuer_class_name(issuer_class));
      writer.end_object();
      return encode_frame(MessageType::kClassifyIssuerOk, writer.str());
    }

    case MessageType::kCategorizeChain: {
      std::string chain_error;
      const auto submitted = chain_from_request(*payload, &chain_error);
      if (!submitted.has_value()) {
        return encode_error(ErrorCode::kBadPayload, chain_error);
      }
      const ChainVerdict verdict = state_->categorize_chain(*submitted);
      writer.begin_object();
      writer.key("category");
      writer.value_string(chain::chain_category_name(verdict.category));
      writer.key("length");
      writer.value_uint(submitted->length());
      writer.key("generation");
      writer.value_uint(verdict.generation);
      writer.key("paths");
      write_path_analysis(writer, verdict.paths);
      if (verdict.hybrid.has_value()) {
        writer.key("hybrid");
        writer.begin_object();
        writer.key("structure");
        writer.value_string(chain::hybrid_structure_name(verdict.hybrid->structure));
        if (verdict.hybrid->structure == chain::HybridStructure::kNoCompletePath) {
          writer.key("no_path_category");
          writer.value_string(
              chain::no_path_category_name(verdict.hybrid->no_path_category));
        }
        writer.key("public_leaf_without_issuer");
        writer.value_bool(verdict.hybrid->public_leaf_without_issuer);
        writer.end_object();
      }
      writer.key("lints");
      write_lints(writer, verdict.lints);
      writer.end_object();
      return encode_frame(MessageType::kCategorizeChainOk, writer.str());
    }

    case MessageType::kReportSection: {
      const Value* section = payload->find("section");
      const std::string name =
          section != nullptr && section->is_string() ? section->string : "full";
      // Generation and text render from the same snapshot: the reported
      // generation always labels exactly the corpus the text describes.
      const ServiceState::SnapshotPtr snapshot = state_->acquire_snapshot();
      std::string text;
      if (name == "fleet") {
        // The fleet section lives beside the StudyReport: it renders the
        // snapshot's epoch registry, not the corpus analyzers.
        text = core::render_fleet_section(*snapshot->fleet_epochs);
      } else {
        const auto options = section_options(name);
        if (!options.has_value()) {
          return encode_error(ErrorCode::kBadPayload,
                              "unknown report section \"" + name + "\"");
        }
        text = core::render_report_text(*snapshot->report, *options);
      }
      writer.begin_object();
      writer.key("section");
      writer.value_string(name);
      writer.key("generation");
      writer.value_uint(snapshot->generation);
      writer.key("text");
      writer.value_string(text);
      writer.end_object();
      return encode_frame(MessageType::kReportSectionOk, writer.str());
    }

    case MessageType::kIngestAppend: {
      const auto ssl_rows = string_array(*payload, "ssl_rows");
      const auto x509_rows = string_array(*payload, "x509_rows");
      if (!ssl_rows.has_value() || !x509_rows.has_value()) {
        return encode_error(
            ErrorCode::kBadPayload,
            "ingest_append needs \"ssl_rows\"/\"x509_rows\" string arrays");
      }
      if (ssl_rows->empty() && x509_rows->empty()) {
        return encode_error(ErrorCode::kBadPayload,
                            "ingest_append carries no rows");
      }
      const Value* key = payload->find("idempotency_key");
      if (key != nullptr && !key->is_string()) {
        return encode_error(ErrorCode::kBadPayload,
                            "\"idempotency_key\" must be a string");
      }
      const std::string idempotency_key = key != nullptr ? key->string : "";
      // Optional rider: a completed fleet epoch summary folded in the same
      // request as its rows. Validated before the append so a bad summary
      // rejects the whole request instead of half-applying it.
      const Value* epoch_field = payload->find("fleet_epoch");
      std::optional<core::EpochSummary> epoch;
      if (epoch_field != nullptr) {
        epoch = core::parse_epoch_summary(*epoch_field);
        if (!epoch.has_value()) {
          return encode_error(ErrorCode::kBadPayload,
                              "\"fleet_epoch\" is not a valid epoch summary");
        }
      }
      // The epoch rides the append, duplicates included: it is recorded
      // idempotently by index, so a retried or post-recovery re-fed epoch
      // lands once.
      const bool carries_epoch = epoch.has_value();
      const AppendResult result = state_->ingest_append(
          *ssl_rows, *x509_rows, idempotency_key, std::move(epoch));
      if (carries_epoch) telemetry_->count("svc.ingest.fleet_epochs");
      if (result.duplicate) {
        // A client retry of a batch already folded: answer with the original
        // result, count nothing into the ingest totals again.
        telemetry_->count("svc.ingest.duplicates");
      } else {
        telemetry_->count("svc.ingest.ssl_rows", result.ssl_added);
        telemetry_->count("svc.ingest.x509_rows", result.x509_added);
        telemetry_->count("svc.ingest.rows_malformed",
                          result.ssl_malformed + result.x509_malformed);
      }
      writer.begin_object();
      writer.key("ssl_added");
      writer.value_uint(result.ssl_added);
      writer.key("x509_added");
      writer.value_uint(result.x509_added);
      writer.key("ssl_malformed");
      writer.value_uint(result.ssl_malformed);
      writer.key("x509_malformed");
      writer.value_uint(result.x509_malformed);
      writer.key("generation");
      writer.value_uint(result.generation);
      writer.key("unique_chains");
      writer.value_uint(result.unique_chains);
      writer.key("connections");
      writer.value_uint(result.connections);
      writer.key("duplicate");
      writer.value_bool(result.duplicate);
      if (result.wal_seq != 0) {
        writer.key("wal_seq");
        writer.value_uint(result.wal_seq);
      }
      writer.end_object();
      return encode_frame(MessageType::kIngestAppendOk, writer.str());
    }

    case MessageType::kMetrics: {
      // The payload *is* the certchain.obs.metrics document.
      return encode_frame(MessageType::kMetricsOk, telemetry_->export_json());
    }

    case MessageType::kCtSth: {
      writer.begin_object();
      writer.key("logs");
      writer.begin_array();
      for (const auto& [log_id, head] : state_->ct_sths()) {
        writer.begin_object();
        writer.key("log_id");
        writer.value_string(log_id);
        writer.key("tree_size");
        writer.value_uint(head.tree_size);
        writer.key("root");
        writer.value_string(head.root.to_hex());
        writer.end_object();
      }
      writer.end_array();
      writer.end_object();
      return encode_frame(MessageType::kCtSthOk, writer.str());
    }

    case MessageType::kCtProveInclusion: {
      const Value* fingerprint = payload->find("fingerprint");
      if (fingerprint == nullptr || !fingerprint->is_string() ||
          fingerprint->string.empty()) {
        return encode_error(
            ErrorCode::kBadPayload,
            "ct_prove_inclusion needs a string \"fingerprint\" field");
      }
      const Value* log_id = payload->find("log_id");
      if (log_id != nullptr && !log_id->is_string()) {
        return encode_error(ErrorCode::kBadPayload,
                            "\"log_id\" must be a string");
      }
      const auto answer = state_->ct_prove_inclusion(
          fingerprint->string, log_id != nullptr ? log_id->string : "");
      if (!answer.has_value()) {
        // The typed miss: a well-formed query for a fingerprint no log
        // holds. Clients distinguish this from payload damage.
        return encode_error(ErrorCode::kNotFound,
                            "fingerprint is not logged: " + fingerprint->string);
      }
      writer.begin_object();
      writer.key("log_id");
      writer.value_string(answer->log_id);
      writer.key("index");
      writer.value_uint(answer->index);
      writer.key("tree_size");
      writer.value_uint(answer->tree_size);
      writer.key("root");
      writer.value_string(answer->root.to_hex());
      writer.key("proof");
      writer.begin_array();
      for (const ct::Digest256& node : answer->proof) {
        writer.value_string(node.to_hex());
      }
      writer.end_array();
      writer.end_object();
      return encode_frame(MessageType::kCtProveInclusionOk, writer.str());
    }

    case MessageType::kCtMonitorStatus: {
      const ct::Monitor* monitor = state_->ct_monitor();
      writer.begin_object();
      writer.key("armed");
      writer.value_bool(monitor != nullptr);
      if (monitor != nullptr) {
        const ct::MonitorStatus status = monitor->status();
        writer.key("polls");
        writer.value_uint(status.polls);
        writer.key("sth_verified");
        writer.value_uint(status.sth_verified);
        writer.key("inclusion_checks");
        writer.value_uint(status.inclusion_checks);
        writer.key("inclusion_failures");
        writer.value_uint(status.inclusion_failures);
        writer.key("violations");
        writer.value_uint(status.violation_count);
        writer.key("checkpoints");
        writer.begin_array();
        for (const auto& checkpoint : status.checkpoints) {
          writer.begin_object();
          writer.key("log_id");
          writer.value_string(checkpoint.log_id);
          writer.key("tree_size");
          writer.value_uint(checkpoint.tree_size);
          writer.key("root");
          writer.value_string(checkpoint.root.to_hex());
          writer.end_object();
        }
        writer.end_array();
      }
      writer.end_object();
      return encode_frame(MessageType::kCtMonitorStatusOk, writer.str());
    }

    case MessageType::kFleetStatus: {
      const ServiceState::SnapshotPtr snapshot = state_->acquire_snapshot();
      const std::vector<core::EpochSummary>& epochs = *snapshot->fleet_epochs;
      writer.begin_object();
      writer.key("generation");
      writer.value_uint(snapshot->generation);
      writer.key("epochs");
      writer.value_uint(epochs.size());
      writer.key("summaries");
      writer.begin_array();
      for (const core::EpochSummary& epoch : epochs) {
        writer.begin_object();
        writer.key("index");
        writer.value_uint(epoch.index);
        writer.key("scanned");
        writer.value_uint(epoch.health.scanned);
        writer.key("reachable");
        writer.value_uint(epoch.reachable);
        writer.key("unreachable");
        writer.value_uint(epoch.health.unreachable);
        writer.key("lets_encrypt");
        writer.value_uint(epoch.lets_encrypt);
        writer.key("lets_encrypt_share");
        writer.value_number(epoch.lets_encrypt_share());
        writer.key("hierarchical_non_public");
        writer.value_uint(epoch.hierarchical_non_public);
        writer.end_object();
      }
      writer.end_array();
      writer.key("text");
      writer.value_string(core::render_fleet_section(epochs));
      writer.end_object();
      return encode_frame(MessageType::kFleetStatusOk, writer.str());
    }

    case MessageType::kEpochDelta: {
      const Value* epoch_field = payload->find("epoch");
      const ServiceState::SnapshotPtr snapshot = state_->acquire_snapshot();
      const std::vector<core::EpochSummary>& epochs = *snapshot->fleet_epochs;
      // "epoch" selects the delta's destination index; absent = latest.
      std::uint64_t to_index = 0;
      if (epoch_field == nullptr) {
        if (epochs.size() < 2) {
          return encode_error(ErrorCode::kNotFound,
                              "fewer than two completed epochs — no delta yet");
        }
        to_index = epochs.back().index;
      } else if (!obs::json::read_uint(epoch_field, to_index)) {
        return encode_error(ErrorCode::kBadPayload,
                            "\"epoch\" must be a non-negative integer");
      }
      const core::EpochSummary* from = nullptr;
      const core::EpochSummary* to = nullptr;
      for (const core::EpochSummary& epoch : epochs) {
        if (to_index > 0 && epoch.index == to_index - 1) from = &epoch;
        if (epoch.index == to_index) to = &epoch;
      }
      if (to == nullptr || from == nullptr) {
        // The typed miss: a well-formed query for an epoch pair the fleet
        // has not completed (or index 0, which has no predecessor).
        return encode_error(ErrorCode::kNotFound,
                            "no delta for epoch " + std::to_string(to_index));
      }
      core::write_epoch_delta_json(writer, core::compute_epoch_delta(*from, *to));
      return encode_frame(MessageType::kEpochDeltaOk, writer.str());
    }

    case MessageType::kShutdown: {
      if (shutdown_requested != nullptr) *shutdown_requested = true;
      writer.begin_object();
      writer.key("ok");
      writer.value_bool(true);
      writer.key("draining");
      writer.value_bool(true);
      writer.end_object();
      return encode_frame(MessageType::kShutdownOk, writer.str());
    }

    default:
      return encode_error(ErrorCode::kBadType,
                          "frame type is not a request: " +
                              std::string(message_type_name(request.type)));
  }
}

}  // namespace certchain::svc
