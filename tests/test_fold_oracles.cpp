// Differentials of the corpus fold and the CT match against their plain
// forms (tests/corpus_oracle.hpp, tests/ct_match_oracle.hpp).
//
// CorpusIndex keys chains and certificates by digest, memoizes fuid lists by
// the raw log cell and interns client addresses corpus-wide; the oracle keys
// by hex string and keeps one string set per chain and field, folding the
// rows LogJoiner::join copies out. Both must write the same snapshot bytes,
// whatever form the rows arrive in: text, records, or files read 4 KiB at a
// time. CtLog::contains_matching probes its serial index; the oracle scans
// the domain index as the §4.2 "query CT and confirm" step reads. Both must
// answer alike on randomized logs that reuse serials across issuers and mix
// SAN, CN-fallback, wildcard and letter-case cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "../tests/corpus_oracle.hpp"
#include "../tests/ct_match_oracle.hpp"
#include "../tests/helpers.hpp"
#include "core/corpus.hpp"
#include "core/dn_pool.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "core/study_input.hpp"
#include "datagen/scenario.hpp"
#include "netsim/pki_world.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "x509/builder.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

using testing::OracleCorpus;
using testing::TestPki;
using testing::test_validity;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "certchain_fold_oracles_" + leaf;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
  ASSERT_EQ(std::fclose(file), 0);
}

std::string snapshot_of(const core::CorpusIndex& corpus) {
  obs::json::Writer writer;
  corpus.write_snapshot(writer);
  return std::move(writer).str();
}

/// A log pair as records and as the text the Zeek writers render.
struct LogPair {
  std::vector<zeek::SslLogRecord> ssl;
  std::vector<zeek::X509LogRecord> x509;
  std::string ssl_text;
  std::string x509_text;

  void render() {
    zeek::SslLogWriter ssl_writer;
    for (const auto& record : ssl) ssl_writer.add(record);
    ssl_text = ssl_writer.finish();
    zeek::X509LogWriter x509_writer;
    for (const auto& record : x509) x509_writer.add(record);
    x509_text = x509_writer.finish();
  }
};

/// The string-set oracle's snapshot of a log pair.
std::string oracle_snapshot(const LogPair& logs) {
  const zeek::LogJoiner joiner(logs.x509);
  OracleCorpus oracle;
  for (const auto& ssl : logs.ssl) oracle.add(joiner.join(ssl));
  return oracle.snapshot();
}

/// Folds `logs` as text, as records and as 4 KiB-chunked files; each
/// snapshot must equal the oracle's, and each report the text run's.
void expect_forms_match_oracle(const LogPair& logs,
                               const core::StudyPipeline& pipeline,
                               const std::string& label) {
  const std::string expected = oracle_snapshot(logs);
  const std::string ssl_path = temp_path(label + "_ssl.log");
  const std::string x509_path = temp_path(label + "_x509.log");
  write_file(ssl_path, logs.ssl_text);
  write_file(x509_path, logs.x509_text);

  core::RunOptions options;
  options.chunk_bytes = 4096;
  const std::vector<std::pair<const char*, core::StudyInput>> forms = {
      {"text", core::StudyInput::text(logs.ssl_text, logs.x509_text)},
      {"records", core::StudyInput::records(logs.ssl, logs.x509)},
      {"files", core::StudyInput::files(ssl_path, x509_path)},
  };
  std::optional<std::string> reference_report;
  for (const auto& [form, input] : forms) {
    core::DnPool pool;
    zeek::LogJoiner joiner;
    joiner.set_dn_pool(&pool);
    core::CorpusIndex corpus;
    obs::RunContext ctx;
    core::fold_input(input, options, joiner, corpus, ctx);
    EXPECT_EQ(snapshot_of(corpus), expected) << label << " via " << form;

    core::ReportTextOptions render_options;
    render_options.graphs = true;
    const std::string report = core::render_report_text(
        pipeline.analyze(corpus, nullptr, &pool), render_options);
    if (!reference_report) {
      reference_report = report;
    } else {
      EXPECT_EQ(report, *reference_report) << label << " via " << form;
    }
  }
  std::remove(ssl_path.c_str());
  std::remove(x509_path.c_str());
}

TEST(CorpusOracle, CdnShapedCorpusMatchesStringSetFold) {
  // One chain served from many IPv4 and IPv6 endpoints on a few ports, under
  // SNI values that differ only in letter case or need Zeek escapes; a
  // second chain shares its intermediate, a third row misses a fuid, and a
  // TLS 1.3 row delivers nothing.
  TestPki pki;
  LogPair logs;
  const auto x509_row = [&logs](const x509::Certificate& cert,
                                const std::string& fuid) {
    logs.x509.push_back(zeek::record_from_certificate(cert, 100, fuid));
  };
  x509_row(pki.leaf("cdn.example"), "Fcdnleaf");
  x509_row(pki.leaf("origin.example"), "Foriginleaf");
  x509_row(pki.intermediate_cert, "Fissuing");

  const std::vector<std::string> snis = {
      "cdn.example",        "CDN.Example",      "Cdn.example",
      "img,cdn.example",    "tab\tcdn.example", "back\\slash.example",
      "",                   "static.cdn.example"};
  util::Rng rng(2106);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    zeek::SslLogRecord ssl;
    ssl.ts = 1000 + static_cast<util::SimTime>(rng.next_below(100000));
    ssl.uid = util::zeek_style_conn_uid(i, 7);
    ssl.id_orig_h = rng.bernoulli(0.3)
                        ? "2001:db8:c::" + std::to_string(rng.next_below(400))
                        : "10.20." + std::to_string(rng.next_below(8)) + "." +
                              std::to_string(rng.next_below(250));
    ssl.id_resp_h = rng.bernoulli(0.5)
                        ? "2001:DB8:cdn::" + std::to_string(rng.next_below(300))
                        : "198.51.100." + std::to_string(rng.next_below(250));
    ssl.id_resp_p = rng.pick(std::vector<std::uint16_t>{443, 443, 8443, 10443});
    ssl.version = "TLSv12";
    ssl.established = rng.bernoulli(0.8);
    ssl.server_name = rng.pick(snis);
    ssl.cert_chain_fuids = i % 10 == 0 ? std::vector<std::string>{"Foriginleaf",
                                                                  "Fissuing"}
                                       : std::vector<std::string>{"Fcdnleaf",
                                                                  "Fissuing"};
    if (i % 97 == 0) ssl.cert_chain_fuids.push_back("Fgone");
    if (i % 101 == 0) {
      ssl.version = "TLSv13";
      ssl.cert_chain_fuids.clear();
    }
    logs.ssl.push_back(std::move(ssl));
  }
  logs.render();

  // The shape the differential relies on: many endpoints and every SNI
  // spelling on the CDN chain.
  const zeek::LogJoiner joiner(logs.x509);
  core::CorpusIndex corpus;
  for (const auto& ssl : logs.ssl) corpus.add(joiner, ssl);
  ASSERT_EQ(corpus.unique_chain_count(), 2u);
  std::size_t most_endpoints = 0;
  std::size_t most_domains = 0;
  for (const auto& [id, observation] : corpus.chains()) {
    most_endpoints = std::max(most_endpoints, observation.server_keys.size());
    most_domains = std::max(most_domains, observation.domains.size());
  }
  EXPECT_GT(most_endpoints, 500u);
  EXPECT_EQ(most_domains, snis.size() - 1);  // every spelling but "no SNI"

  netsim::PkiWorld world;
  const core::VendorDirectory vendors =
      datagen::interception_vendor_directory(world);
  const core::StudyPipeline pipeline(world.stores(), world.ct_logs(), vendors,
                                     &world.cross_signs());
  expect_forms_match_oracle(logs, pipeline, "cdn");
}

TEST(CorpusOracle, SeedCorpusMatchesStringSetFold) {
  datagen::ScenarioConfig config;
  config.seed = 5;
  config.chain_scale = 1.0 / 4000.0;
  config.total_connections = 4000;
  config.client_count = 300;
  config.include_length_outliers = false;
  const auto scenario = datagen::build_study_scenario(config);
  const netsim::GeneratedLogs generated = scenario->generate_logs();
  LogPair logs;
  logs.ssl = generated.ssl;
  logs.x509 = generated.x509;
  logs.render();
  const core::StudyPipeline pipeline(scenario->world.stores(),
                                     scenario->world.ct_logs(), scenario->vendors,
                                     &scenario->world.cross_signs());
  expect_forms_match_oracle(logs, pipeline, "seed");
}

TEST(CorpusIndex, PaperScaleClientPool) {
  // bench_table2's client count, over three chains: every client meets one
  // chain, every seventh meets all three, in shuffled order. Distinct counts
  // must be exact, and each chain's snapshot lists its addresses sorted.
  constexpr std::size_t kClients = 231228;
  TestPki pki;
  std::vector<zeek::X509LogRecord> x509;
  const std::vector<std::string> leaves = {"a.paper.example", "b.paper.example",
                                           "c.paper.example"};
  for (const std::string& domain : leaves) {
    x509.push_back(zeek::record_from_certificate(pki.leaf(domain), 1, "F" + domain));
  }
  x509.push_back(zeek::record_from_certificate(pki.intermediate_cert, 1, "Fint"));
  zeek::LogJoiner joiner(x509);

  std::vector<std::string> addresses;
  addresses.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    addresses.push_back(i % 5 == 0 ? "2001:db8::" + std::to_string(i)
                                   : "10." + std::to_string(i >> 16 & 255) + "." +
                                         std::to_string(i >> 8 & 255) + "." +
                                         std::to_string(i & 255));
  }
  std::vector<std::pair<std::size_t, std::size_t>> visits;  // (client, chain)
  std::vector<std::set<std::string>> expected(leaves.size());
  for (std::size_t i = 0; i < kClients; ++i) {
    for (std::size_t chain = 0; chain < leaves.size(); ++chain) {
      if (i % 7 != 0 && chain != i % leaves.size()) continue;
      visits.emplace_back(i, chain);
      visits.emplace_back(i, chain);  // a repeat visit adds no client
      expected[chain].insert(addresses[i]);
    }
  }
  util::Rng rng(231228);
  rng.shuffle(visits);

  core::CorpusIndex corpus;
  zeek::SslLogRecord ssl;
  ssl.version = "TLSv12";
  ssl.id_resp_h = "198.51.100.7";
  ssl.id_resp_p = 443;
  for (const auto& [client, chain] : visits) {
    ssl.id_orig_h = addresses[client];
    ssl.cert_chain_fuids = {"F" + leaves[chain], "Fint"};
    corpus.add(joiner, ssl);
  }

  ASSERT_EQ(corpus.unique_chain_count(), leaves.size());
  std::vector<const core::ChainObservation*> observations;
  for (const auto& [id, observation] : corpus.chains()) {
    observations.push_back(&observation);
  }
  EXPECT_EQ(core::CorpusIndex::distinct_clients(observations), kClients);

  const std::string snapshot = snapshot_of(corpus);
  const std::optional<obs::json::Value> parsed = obs::json::parse(snapshot);
  ASSERT_TRUE(parsed.has_value());
  const obs::json::Value* chains = parsed->find("chains");
  ASSERT_NE(chains, nullptr);
  std::size_t matched = 0;
  for (const obs::json::Value& entry : chains->array) {
    const std::string& leaf_fingerprint = entry.find("fingerprints")->array[0].string;
    for (std::size_t chain = 0; chain < leaves.size(); ++chain) {
      if ((*joiner.find("F" + leaves[chain]))->fingerprint() != leaf_fingerprint) {
        continue;
      }
      ++matched;
      const std::vector<obs::json::Value>& listed = entry.find("client_ips")->array;
      ASSERT_EQ(listed.size(), expected[chain].size()) << leaves[chain];
      std::size_t k = 0;
      for (const std::string& address : expected[chain]) {
        ASSERT_EQ(listed[k++].string, address) << leaves[chain];
      }
    }
  }
  EXPECT_EQ(matched, leaves.size());
  for (const auto& [id, observation] : corpus.chains()) {
    const std::string& leaf = observation.chain.first().subject_alt_names.at(0);
    for (std::size_t chain = 0; chain < leaves.size(); ++chain) {
      if (leaves[chain] == leaf) {
        EXPECT_EQ(observation.client_ips.size(), expected[chain].size()) << leaf;
      }
    }
  }

  // The snapshot restores, at this scale, to the same bytes.
  core::CorpusIndex restored;
  std::string error;
  ASSERT_TRUE(restored.restore_snapshot(*parsed, joiner.by_fingerprint(), &error))
      << error;
  EXPECT_EQ(snapshot_of(restored), snapshot);
}

TEST(CorpusIndex, SnapshotRejectsNonHexIdentities) {
  TestPki pki;
  std::vector<zeek::X509LogRecord> x509 = {
      zeek::record_from_certificate(pki.leaf("hex.example"), 1, "Fleaf"),
      zeek::record_from_certificate(pki.intermediate_cert, 1, "Fint")};
  const zeek::LogJoiner joiner(x509);
  zeek::SslLogRecord ssl;
  ssl.id_orig_h = "10.0.0.1";
  ssl.id_resp_h = "198.51.100.1";
  ssl.id_resp_p = 443;
  ssl.cert_chain_fuids = {"Fleaf", "Fint"};
  core::CorpusIndex corpus;
  corpus.add(joiner, ssl);
  const std::string snapshot = snapshot_of(corpus);
  const std::string id = corpus.chains().begin()->first.to_hex();
  const std::string fingerprint = (*joiner.find("Fint"))->fingerprint();

  const auto restore_error = [&joiner](const std::string& text) {
    const std::optional<obs::json::Value> value = obs::json::parse(text);
    EXPECT_TRUE(value.has_value()) << text;
    core::CorpusIndex index;
    std::string error;
    EXPECT_FALSE(index.restore_snapshot(*value, joiner.by_fingerprint(), &error));
    EXPECT_EQ(index.unique_chain_count(), 0u);
    return error;
  };
  std::string upper = id;
  for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  EXPECT_NE(restore_error(util::replace_all(snapshot, "\"id\":\"" + id, "\"id\":\"" + upper))
                .find("chain id is not a hex digest"),
            std::string::npos);
  EXPECT_NE(restore_error(util::replace_all(snapshot, "\"id\":\"" + id, "\"id\":\"xyz"))
                .find("chain id is not a hex digest"),
            std::string::npos);
  EXPECT_NE(restore_error(util::replace_all(snapshot, "\"" + fingerprint + "\"",
                                            "\"not-hex\""))
                .find("certificate is not a hex digest"),
            std::string::npos);
}

// --- CT match ---------------------------------------------------------------

/// A random certificate over a small space, so serials, issuers, subjects,
/// SANs and validity windows collide often.
x509::Certificate random_certificate(util::Rng& rng,
                                     const std::vector<x509::CertificateAuthority>& cas) {
  static const std::vector<std::string> kNames = {
      "a.example", "b.example", "www.a.example", "*.a.example", "*.b.example",
      "x.b.example", "c.example", "A.Example", "WWW.a.EXAMPLE", "d.example"};
  static const std::vector<std::string> kSerials = {"01", "02", "0a", "ff"};
  static const std::vector<util::TimeRange> kWindows = {
      {util::make_time(2020, 1, 1), util::make_time(2021, 1, 1)},
      {util::make_time(2020, 6, 1), util::make_time(2022, 1, 1)},
      {util::make_time(2023, 1, 1), util::make_time(2024, 1, 1)}};
  const x509::CertificateAuthority& ca = cas[rng.next_below(cas.size())];
  x509::DistinguishedName subject;
  subject.add("CN", rng.pick(kNames));
  if (rng.bernoulli(0.3)) subject.add("O", "Org");
  x509::CertificateBuilder builder;
  builder.serial(rng.pick(kSerials))
      .subject(subject)
      .issuer(ca.name())
      .validity(rng.pick(kWindows));
  const std::uint64_t sans = rng.next_below(3);  // 0: the CN fallback case
  for (std::uint64_t i = 0; i < sans; ++i) builder.add_san(rng.pick(kNames));
  return builder.sign_with(ca.private_key());
}

TEST(CtMatchOracle, SerialKeyedMatchEqualsDomainScan) {
  std::vector<x509::CertificateAuthority> cas;
  cas.emplace_back(testing::dn("CN=Oracle CA One,O=Oracle"), "oracle-ca-1");
  cas.emplace_back(testing::dn("CN=Oracle CA Two,O=Oracle"), "oracle-ca-2");
  cas.emplace_back(testing::dn("cn=oracle ca one,o=ORACLE"), "oracle-ca-1b");

  std::size_t matched = 0;
  std::size_t matched_by_cn = 0;
  std::size_t queries = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    ct::CtLog log("oracle-log");
    std::vector<x509::Certificate> logged;
    for (int i = 0; i < 40; ++i) {
      logged.push_back(random_certificate(rng, cas));
      log.submit(logged.back(), 1);
    }
    std::vector<x509::Certificate> probes;
    for (int i = 0; i < 60; ++i) probes.push_back(random_certificate(rng, cas));
    for (const x509::Certificate& cert : logged) {
      probes.push_back(cert);
      // Dropping the SANs sends the query down the CN fallback.
      x509::Certificate cn_only = cert;
      cn_only.subject_alt_names.clear();
      probes.push_back(cn_only);
      x509::Certificate recased = cert;
      for (std::string& san : recased.subject_alt_names) {
        for (char& c : san) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
      }
      probes.push_back(recased);
    }
    for (const x509::Certificate& probe : probes) {
      const bool expected = testing::oracle_contains_matching(log, probe);
      ASSERT_EQ(log.contains_matching(probe), expected)
          << "seed " << seed << " serial " << probe.serial << " subject "
          << probe.subject.to_string() << " issuer " << probe.issuer.to_string();
      ++queries;
      if (!expected) continue;
      ++matched;
      bool any_san = false;
      for (const std::string& san : probe.subject_alt_names) {
        any_san = any_san || !log.entries_for_domain(san).empty();
      }
      if (!any_san) ++matched_by_cn;
    }
  }
  // The randomized space reaches both branches of the query.
  EXPECT_GT(matched, queries / 10);
  EXPECT_GT(matched_by_cn, 20u);
  EXPECT_GT(matched - matched_by_cn, 20u);
}

}  // namespace
}  // namespace certchain
