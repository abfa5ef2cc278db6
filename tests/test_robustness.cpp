// Robustness: parsers must degrade gracefully (no crashes, no exceptions)
// under randomly mutated input — PEM bundles, Zeek TSV logs, DN strings.
#include <gtest/gtest.h>

#include "../tests/helpers.hpp"
#include "core/pipeline.hpp"
#include "netsim/faults.hpp"
#include "netsim/pki_world.hpp"
#include "scanner/resilient_scanner.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"
#include "x509/pem.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"

namespace certchain {
namespace {

using certchain::testing::TestPki;

/// Applies `count` random byte mutations (replace/insert/delete).
std::string mutate(std::string text, util::Rng& rng, int count) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t pos = rng.next_below(text.size());
    switch (rng.next_below(3)) {
      case 0:
        text[pos] = static_cast<char>(rng.next_below(256));
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                    static_cast<char>(rng.next_below(256)));
        break;
      default:
        text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
  return text;
}

class RobustnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RobustnessTest, PemDecoderNeverThrows) {
  util::Rng rng(GetParam());
  TestPki pki;
  std::string bundle;
  for (const auto& cert : pki.chain_for("robust.example", true)) {
    bundle += x509::encode_pem(cert);
  }
  for (int i = 0; i < 150; ++i) {
    const std::string mutated = mutate(bundle, rng, 1 + int(rng.next_below(25)));
    std::size_t malformed = 0;
    EXPECT_NO_THROW({
      const auto certs = x509::decode_pem_bundle(mutated, &malformed);
      // Whatever decodes must re-encode cleanly (no corrupt state escapes).
      for (const auto& cert : certs) {
        EXPECT_NO_THROW((void)x509::encode_pem(cert));
        EXPECT_NO_THROW((void)cert.fingerprint());
      }
    });
  }
}

TEST_P(RobustnessTest, ZeekParsersNeverThrow) {
  util::Rng rng(GetParam() ^ 0x5EEC);
  TestPki pki;

  zeek::SslLogWriter ssl_writer;
  zeek::X509LogWriter x509_writer;
  for (int i = 0; i < 5; ++i) {
    zeek::SslLogRecord ssl;
    ssl.ts = 1600000000 + i;
    ssl.uid = "C" + std::to_string(i);
    ssl.id_orig_h = "10.0.0.1";
    ssl.id_resp_h = "198.51.100.1";
    ssl.id_resp_p = 443;
    ssl.version = "TLSv12";
    ssl.cert_chain_fuids = {"F" + std::to_string(i)};
    ssl.subject = "CN=robust" + std::to_string(i) + ".example";
    ssl_writer.add(ssl);
    x509_writer.add(zeek::record_from_certificate(
        pki.leaf("robust" + std::to_string(i) + ".example"), ssl.ts,
        "F" + std::to_string(i)));
  }
  const std::string ssl_text = ssl_writer.finish();
  const std::string x509_text = x509_writer.finish();

  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW({
      auto reader = zeek::make_streaming_ssl_reader([](zeek::SslLogRecord) {});
      reader.feed(mutate(ssl_text, rng, 1 + int(rng.next_below(40))));
      reader.finish();
    });
    EXPECT_NO_THROW({
      auto reader = zeek::make_streaming_x509_reader([](zeek::X509LogRecord) {});
      reader.feed(mutate(x509_text, rng, 1 + int(rng.next_below(40))));
      reader.finish();
    });
  }
}

TEST_P(RobustnessTest, DnParserNeverThrowsOnGarbage) {
  util::Rng rng(GetParam() ^ 0xDDDD);
  for (int i = 0; i < 500; ++i) {
    std::string garbage;
    const std::size_t length = rng.next_below(64);
    for (std::size_t c = 0; c < length; ++c) {
      garbage.push_back(static_cast<char>(rng.next_below(256)));
    }
    EXPECT_NO_THROW({
      const auto parsed = x509::DistinguishedName::parse(garbage);
      if (parsed) {
        // Anything accepted must serialize and re-parse to the same value.
        const auto again = x509::DistinguishedName::parse(parsed->to_string());
        ASSERT_TRUE(again.has_value()) << garbage;
        EXPECT_EQ(*again, *parsed);
      }
    });
  }
}

TEST_P(RobustnessTest, Base64DecoderNeverThrows) {
  util::Rng rng(GetParam() ^ 0xB64);
  for (int i = 0; i < 500; ++i) {
    std::string garbage;
    const std::size_t length = rng.next_below(128);
    for (std::size_t c = 0; c < length; ++c) {
      garbage.push_back(static_cast<char>(rng.next_below(256)));
    }
    EXPECT_NO_THROW((void)util::base64_decode(garbage));
  }
}

TEST_P(RobustnessTest, LenientPipelineNeverThrowsOnMutatedLogs) {
  util::Rng rng(GetParam() ^ 0x919E);
  TestPki pki;
  truststore::TrustStoreSet stores = pki.trusted_stores();
  ct::CtLogSet ct_logs(2);
  core::VendorDirectory vendors;
  const core::StudyPipeline pipeline(stores, ct_logs, vendors);

  zeek::SslLogWriter ssl_writer;
  zeek::X509LogWriter x509_writer;
  for (int i = 0; i < 8; ++i) {
    const std::string domain = "pipe" + std::to_string(i) + ".example";
    zeek::SslLogRecord ssl;
    ssl.ts = 1600000000 + i;
    ssl.uid = "C" + std::to_string(i);
    ssl.id_orig_h = "10.0.0.1";
    ssl.id_resp_h = "198.51.100.1";
    ssl.id_resp_p = 443;
    ssl.version = "TLSv12";
    ssl.established = true;
    ssl.server_name = domain;
    const auto chain = pki.chain_for(domain);
    for (std::size_t c = 0; c < chain.length(); ++c) {
      const std::string fuid = "F" + std::to_string(i) + "_" + std::to_string(c);
      ssl.cert_chain_fuids.push_back(fuid);
      x509_writer.add(zeek::record_from_certificate(chain.at(c), ssl.ts, fuid));
    }
    ssl_writer.add(ssl);
  }
  const std::string ssl_text = ssl_writer.finish();
  const std::string x509_text = x509_writer.finish();

  for (int i = 0; i < 40; ++i) {
    const std::string bad_ssl = mutate(ssl_text, rng, 1 + int(rng.next_below(60)));
    const std::string bad_x509 = mutate(x509_text, rng, 1 + int(rng.next_below(60)));
    EXPECT_NO_THROW({
      const core::StudyReport report =
          pipeline.run(core::StudyInput::text(bad_ssl, bad_x509));
      // Accounting must be self-consistent no matter the damage.
      EXPECT_LE(report.ingest.ssl.malformed_rows, report.ingest.ssl.skipped_lines);
      EXPECT_LE(report.ingest.ssl.records + report.ingest.ssl.skipped_lines,
                report.ingest.ssl.lines);
      EXPECT_LE(report.ingest.x509.malformed_rows, report.ingest.x509.skipped_lines);
    });
  }
}

TEST_P(RobustnessTest, ResilientScannerNeverThrowsUnderRandomFaultPlans) {
  util::Rng rng(GetParam() ^ 0xFA17);
  netsim::PkiWorld world;
  std::vector<netsim::ServerEndpoint> endpoints;
  for (int i = 0; i < 10; ++i) {
    netsim::ServerEndpoint endpoint;
    endpoint.ip = "203.0.113." + std::to_string(i + 1);
    endpoint.port = 443;
    endpoint.domain = "fuzz" + std::to_string(i) + ".example";
    endpoint.chain = world.issue_public_chain("digicert", endpoint.domain,
                                              netsim::PkiWorld::default_leaf_validity());
    endpoint.revisit_chain =
        (i % 3 == 0) ? std::nullopt : std::make_optional(endpoint.chain);
    endpoints.push_back(std::move(endpoint));
  }
  const scanner::ActiveScanner inner(endpoints);

  for (int round = 0; round < 10; ++round) {
    netsim::FaultRates rates;
    rates.connect_timeout = rng.uniform(0.0, 0.4);
    rates.connection_reset = rng.uniform(0.0, 0.4);
    rates.truncated_handshake = rng.uniform(0.0, 0.4);
    rates.byte_corruption = rng.uniform(0.0, 0.4);
    rates.transient_unreachable = rng.uniform(0.0, 0.4);
    rates.persistent_unreachable = rng.uniform(0.0, 0.3);
    rates.slow_response = rng.uniform(0.0, 0.4);
    netsim::FaultPlan plan(rng.next_u64(), rates);
    plan.set_epoch(static_cast<std::uint32_t>(round));

    scanner::RetryPolicy policy;
    policy.max_attempts = 1 + static_cast<std::uint32_t>(rng.next_below(5));
    policy.target_deadline_ms = 200 + static_cast<std::uint32_t>(rng.next_below(20000));
    scanner::ResilientScanner resilient(inner, plan, policy);

    EXPECT_NO_THROW({
      const auto by_domain = resilient.scan_all_domains();
      const auto by_ip = resilient.scan_all_ips();
      EXPECT_EQ(by_domain.size() + by_ip.size(), resilient.ledger().targets);
    });
    // Every target ends in exactly one bucket, whatever the fault mix.
    EXPECT_TRUE(resilient.ledger().reconciles())
        << "round " << round << "\n" << resilient.ledger().to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace certchain
