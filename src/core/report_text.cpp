#include "core/report_text.hpp"

#include "obs/export.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace certchain::core {

namespace {

void render_totals(std::string& out, const StudyReport& report) {
  out += util::render_banner("Corpus");
  out += "connections: " + util::with_commas(report.totals.connections) +
         " (with certificates: " + util::with_commas(report.totals.with_certificates) +
         ", TLS1.3-opaque: " + util::with_commas(report.totals.tls13_connections) +
         ", incomplete joins: " + util::with_commas(report.totals.incomplete_joins) +
         ")\n";
  out += "unique chains: " + util::with_commas(report.unique_chains) +
         "   distinct certificates: " +
         util::with_commas(report.totals.distinct_certificates) + "\n";
  if (!report.excluded_outliers.empty()) {
    out += "length outliers excluded from Figure 1 series: " +
           std::to_string(report.excluded_outliers.size()) + "\n";
  }
  out += "\n";
}

void render_categories(std::string& out, const StudyReport& report) {
  out += util::render_banner("Chain categories (Table 2)");
  util::TextTable table({"Category", "Chains", "Connections", "Client IPs"});
  for (const auto& [category, usage] : report.categories) {
    table.add_row({std::string(chain::chain_category_name(category)),
                   util::with_commas(usage.chains),
                   util::with_commas(usage.connections),
                   util::with_commas(usage.client_ips)});
  }
  out += table.render();
  out += "\n";
}

void render_interception(std::string& out, const StudyReport& report) {
  out += util::render_banner("TLS interception (Table 1)");
  util::TextTable table({"Category", "Issuers", "Connections", "Client IPs"});
  for (const auto& row : report.interception.category_rows()) {
    table.add_row({row.category, std::to_string(row.issuers),
                   util::with_commas(row.connections),
                   util::with_commas(row.client_ips)});
  }
  out += table.render();
  out += "unconfirmed CT-mismatch candidates: " +
         std::to_string(report.interception.unconfirmed_candidates.size()) + "\n\n";
}

void render_hybrid(std::string& out, const StudyReport& report) {
  const HybridReport& hybrid = report.hybrid;
  out += util::render_banner("Hybrid chain structures (Tables 3/6/7)");
  util::TextTable table({"Structure", "Chains", "Est. rate %"});
  table.add_row({"complete matched path",
                 std::to_string(hybrid.complete_nonpub_to_pub +
                                hybrid.complete_pub_to_private),
                 util::percent(hybrid.usage_complete.establish_rate(), 1.0)});
  table.add_row({"contains complete path + extras",
                 std::to_string(hybrid.contains_complete_path),
                 util::percent(hybrid.usage_contains.establish_rate(), 1.0)});
  table.add_row({"no complete matched path",
                 std::to_string(hybrid.no_complete_path),
                 util::percent(hybrid.usage_no_path.establish_rate(), 1.0)});
  out += table.render();
  out += "anchored non-public leaves CT-logged: " +
         std::to_string(hybrid.anchored_ct_logged) + "/" +
         std::to_string(hybrid.complete_nonpub_to_pub) +
         "; expired leaves: " + std::to_string(hybrid.anchored_expired_leaf) +
         "; Fake-LE leftovers: " + std::to_string(hybrid.fake_le_chains) + "\n\n";
}

void render_non_public(std::string& out, const StudyReport& report) {
  const NonPublicReport& nonpub = report.non_public;
  out += util::render_banner("Non-public-DB-only chains (Sec. 4.3)");
  out += "single-cert: " + util::percent(nonpub.single_fraction(), 1.0) +
         "% (self-signed " +
         util::percent(nonpub.single_self_signed_fraction(), 1.0) +
         "%); DGA cluster: " + std::to_string(nonpub.dga_chains) + " chains\n";
  out += "multi-cert matched paths: " +
         util::percent(nonpub.is_matched_path_fraction(), 1.0) +
         "%; basicConstraints omitted: first " +
         util::percent(nonpub.bc_omitted_first_fraction(), 1.0) + "% / later " +
         util::percent(nonpub.bc_omitted_later_fraction(), 1.0) + "%\n\n";
}

void render_ct_compliance(std::string& out, const StudyReport& report) {
  const CtComplianceReport& ct = report.ct_compliance;
  out += util::render_banner("CT compliance by issuer category (Sec. 4.2)");
  util::TextTable table({"Issuer category", "Chains", "Connections", "CT-logged",
                         "With SCTs", "Policy-OK"});
  const auto row = [&table](const char* name, const CtComplianceBucket& bucket) {
    table.add_row({name, util::with_commas(bucket.chains),
                   util::with_commas(bucket.connections),
                   util::with_commas(bucket.ct_logged),
                   util::with_commas(bucket.with_scts),
                   util::with_commas(bucket.policy_compliant)});
  };
  row("public", ct.public_db);
  row("non-public hierarchical", ct.non_public_hierarchical);
  row("self-contained", ct.self_contained);
  out += table.render();
  out += "CT-logged leaves: " + util::with_commas(ct.total_ct_logged()) + "/" +
         util::with_commas(ct.total_chains()) + " unique chains\n\n";
}

void render_graphs(std::string& out, const StudyReport& report) {
  out += util::render_banner("PKI graphs (Figures 5/7/8)");
  const auto line = [&](const char* name, const PkiGraph& graph) {
    out += std::string(name) + ": " + std::to_string(graph.node_count()) +
           " nodes, " + std::to_string(graph.issuance_links().size()) +
           " issuance links, " +
           std::to_string(graph.complex_intermediates().size()) +
           " complex intermediates\n";
  };
  line("hybrid", report.hybrid_graph);
  line("non-public", report.non_public_graph);
  line("interception", report.interception_graph);
  out += "\n";
}

void render_data_quality(std::string& out, const StudyReport& report) {
  const IngestReport& ingest = report.ingest;
  if (!ingest.populated) return;
  out += util::render_banner("Data quality / scan health");
  out += "ingestion mode: " + std::string(ingest_mode_name(ingest.mode)) + "\n";
  util::TextTable table({"Stream", "Bytes", "Lines", "Records", "Malformed",
                         "Skipped", "Rotations"});
  const auto row = [&table](const char* name, const IngestStreamStats& stats) {
    table.add_row({name, util::with_commas(stats.bytes),
                   util::with_commas(stats.lines),
                   util::with_commas(stats.records),
                   util::with_commas(stats.malformed_rows),
                   util::with_commas(stats.skipped_lines),
                   util::with_commas(stats.rotations)});
  };
  row("SSL.log", ingest.ssl);
  row("X509.log", ingest.x509);
  out += table.render();
  if (!ingest.sample_errors.empty()) {
    out += "first errors:\n";
    for (const std::string& error : ingest.sample_errors) {
      out += "  " + error + "\n";
    }
  }
  out += "\n";
}

}  // namespace

std::string render_report_text(const StudyReport& report,
                               const ReportTextOptions& options) {
  std::string out;
  if (options.totals) render_totals(out, report);
  if (options.categories) render_categories(out, report);
  if (options.interception) render_interception(out, report);
  if (options.hybrid) render_hybrid(out, report);
  if (options.non_public) render_non_public(out, report);
  if (options.ct_compliance) render_ct_compliance(out, report);
  if (options.graphs) render_graphs(out, report);
  if (options.data_quality) render_data_quality(out, report);
  if (options.telemetry != nullptr) {
    out += util::render_banner("Telemetry");
    out += obs::render_metrics_text(*options.telemetry, options.telemetry_trace);
    out += "\n";
  }
  return out;
}

std::string render_scan_health(const RevisitScanHealth& health) {
  std::string out;
  out += util::render_banner("Scan health");
  out += "targets scanned: " + util::with_commas(health.scanned) +
         "  (clean: " + util::with_commas(health.reachable_clean) +
         ", degraded: " + util::with_commas(health.reachable_degraded) +
         ", unreachable: " + util::with_commas(health.unreachable) + ")\n";
  const scanner::ScanLedger& ledger = health.ledger;
  out += "attempts: " + util::with_commas(ledger.attempts) +
         "  retries: " + util::with_commas(ledger.retries) +
         "  backoff: " + util::with_commas(ledger.backoff_ms_total) + " ms\n";
  out += "salvage: " + util::with_commas(ledger.certs_salvaged) +
         " certs kept, " + util::with_commas(ledger.certs_dropped) +
         " lost (salvage rate " +
         util::percent(ledger.salvage_rate(), 1.0) + "%)\n";
  if (!ledger.error_counts.empty()) {
    out += "attempt errors:";
    for (const auto& [error, count] : ledger.error_counts) {
      out += " " + std::string(scanner::scan_error_name(error)) + "=" +
             util::with_commas(count);
    }
    out += "\n";
  }
  return out;
}

}  // namespace certchain::core
