// netsim: PKI world invariants, interception deployments, and the campus
// traffic simulator.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <stdexcept>

#include "chain/matcher.hpp"
#include "datagen/scenario.hpp"
#include "netsim/pki_world.hpp"
#include "netsim/simulator.hpp"
#include "util/hash.hpp"
#include "validation/client_validators.hpp"
#include "zeek/log_io.hpp"

namespace certchain::netsim {
namespace {

class PkiWorldTest : public ::testing::Test {
 protected:
  PkiWorld world_;
};

TEST_F(PkiWorldTest, PublicRootsAreProgramAnchors) {
  for (const PublicCaHierarchy& hierarchy : world_.public_cas()) {
    EXPECT_TRUE(world_.stores().is_trust_anchor(hierarchy.root_cert))
        << hierarchy.short_name;
    EXPECT_EQ(world_.stores().classify_issuer(hierarchy.root_ca.name()),
              truststore::IssuerClass::kPublicDb);
  }
}

TEST_F(PkiWorldTest, HostStoreIsAStrictSubset) {
  std::size_t in_host = 0;
  for (const PublicCaHierarchy& hierarchy : world_.public_cas()) {
    if (world_.host_store().contains_fingerprint(hierarchy.root_cert.fingerprint())) {
      ++in_host;
      EXPECT_TRUE(hierarchy.in_host_store);
    } else {
      EXPECT_FALSE(hierarchy.in_host_store) << hierarchy.short_name;
    }
  }
  EXPECT_GT(in_host, 0u);
  EXPECT_LT(in_host, world_.public_cas().size());  // fpki/kisa/icp-brasil absent
}

TEST_F(PkiWorldTest, IntermediatesAreCcadbDisclosed) {
  for (const PublicCaHierarchy& hierarchy : world_.public_cas()) {
    for (const x509::Certificate& cert : hierarchy.intermediate_certs) {
      EXPECT_TRUE(world_.stores().ccadb().contains_subject(cert.subject))
          << hierarchy.short_name;
    }
  }
}

TEST_F(PkiWorldTest, CrossSignRegistryCoversSectigoUsertrust) {
  const auto& usertrust = world_.public_ca("usertrust");
  const auto& sectigo = world_.public_ca("sectigo");
  EXPECT_TRUE(world_.cross_signs().covers(usertrust.root_ca.name(),
                                          sectigo.root_ca.name()));
}

TEST_F(PkiWorldTest, PublicChainIsValidAndCtLogged) {
  PkiWorld world;
  const auto chain = world.issue_public_chain(
      "lets-encrypt", "www.check.example", PkiWorld::default_leaf_validity(), true);
  ASSERT_EQ(chain.length(), 3u);
  EXPECT_TRUE(chain::match_chain(chain).all_matched());
  EXPECT_TRUE(world.ct_logs().logged_anywhere(chain.first()));
  EXPECT_GE(chain.first().scts.size(), 2u);

  // The chain validates in a Chrome-like client at collection time.
  const validation::ChromeLikeValidator chrome(world.stores());
  EXPECT_TRUE(chrome.validate(chain, util::make_time(2021, 1, 1)).accepted());
}

TEST_F(PkiWorldTest, SubCaChainMatchesTable6Shape) {
  PkiWorld world;
  const auto chain = world.issue_sub_ca_chain("veterans-affairs", "portal.va.example",
                                              PkiWorld::default_leaf_validity());
  ASSERT_GE(chain.length(), 3u);
  // Leaf issued by a non-public issuer...
  EXPECT_EQ(world.stores().classify_certificate(chain.first()),
            truststore::IssuerClass::kNonPublicDb);
  // ...anchored to a public root via a fully matched path.
  EXPECT_TRUE(chain::match_chain(chain).all_matched());
  EXPECT_TRUE(world.stores().is_trust_anchor(chain.at(chain.length() - 1)));
  // The leaf is CT-logged (§4.2 requirement).
  EXPECT_TRUE(world.ct_logs().logged_anywhere(chain.first()));
}

TEST_F(PkiWorldTest, InterceptionVendorCensusMatchesTable1) {
  const auto vendors = builtin_interception_vendors();
  EXPECT_EQ(vendors.size(), 80u);
  std::map<InterceptionCategory, std::size_t> counts;
  std::set<std::string> names;
  for (const auto& vendor : vendors) {
    ++counts[vendor.category];
    names.insert(vendor.name);
  }
  EXPECT_EQ(names.size(), 80u);  // distinct
  EXPECT_EQ(counts[InterceptionCategory::kSecurityNetwork], 31u);
  EXPECT_EQ(counts[InterceptionCategory::kBusinessCorporate], 27u);
  EXPECT_EQ(counts[InterceptionCategory::kHealthEducation], 10u);
  EXPECT_EQ(counts[InterceptionCategory::kGovernmentPublic], 6u);
  EXPECT_EQ(counts[InterceptionCategory::kBankFinance], 3u);
  EXPECT_EQ(counts[InterceptionCategory::kOther], 3u);
}

TEST_F(PkiWorldTest, ForgedChainIsThreeCertsAndNonPublic) {
  PkiWorld world;
  InterceptionDeployment& deployment = world.interception().front();
  const auto forged =
      deployment.forge_chain("victim.example", PkiWorld::default_leaf_validity());
  ASSERT_EQ(forged.length(), 3u);
  EXPECT_TRUE(chain::match_chain(forged).all_matched());
  EXPECT_TRUE(forged.first().covers_domain("victim.example"));
  for (const auto& cert : forged) {
    EXPECT_EQ(world.stores().classify_certificate(cert),
              truststore::IssuerClass::kNonPublicDb);
  }
  EXPECT_TRUE(forged.at(2).is_self_signed());
}

TEST_F(PkiWorldTest, DgaCertificatesFollowThePattern) {
  PkiWorld world;
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const x509::Certificate cert = world.make_dga_certificate(rng);
    EXPECT_FALSE(cert.is_self_signed());
    const std::string issuer = *cert.issuer.common_name();
    const std::string subject = *cert.subject.common_name();
    EXPECT_TRUE(issuer.starts_with("www") && issuer.ends_with("com"));
    EXPECT_TRUE(subject.starts_with("www") && subject.ends_with("com"));
    EXPECT_NE(issuer, subject);
    const auto lifetime = cert.validity.duration();
    EXPECT_GE(lifetime, 4 * util::kSecondsPerDay);
    EXPECT_LE(lifetime, 365 * util::kSecondsPerDay);
  }
}

TEST_F(PkiWorldTest, LocalhostCertificateMatchesFootnote5) {
  PkiWorld world;
  const x509::Certificate cert = world.make_localhost_certificate("t1");
  EXPECT_TRUE(cert.is_self_signed());
  EXPECT_EQ(cert.subject.common_name(), "localhost");
  EXPECT_EQ(cert.subject.attribute("emailAddress"), "webmaster@localhost");
  EXPECT_EQ(cert.subject.attribute("L"), "Sometown");
  EXPECT_FALSE(cert.basic_constraints.present);
  // Distinct instances differ (serial/key), same identity.
  const x509::Certificate other = world.make_localhost_certificate("t2");
  EXPECT_NE(cert.fingerprint(), other.fingerprint());
  EXPECT_TRUE(cert.subject.matches(other.subject));
}

TEST_F(PkiWorldTest, EnterpriseCaIsMemoized) {
  PkiWorld world;
  PrivateCaHierarchy& first = world.make_enterprise_ca("Acme", true);
  PrivateCaHierarchy& second = world.make_enterprise_ca("Acme", true);
  EXPECT_EQ(&first, &second);
  EXPECT_TRUE(first.intermediate_ca.has_value());
}

TEST_F(PkiWorldTest, DeterministicAcrossInstances) {
  PkiWorld a(7);
  PkiWorld b(7);
  EXPECT_EQ(a.public_ca("digicert").root_cert.fingerprint(),
            b.public_ca("digicert").root_cert.fingerprint());
  EXPECT_EQ(a.fake_le_intermediate().fingerprint(),
            b.fake_le_intermediate().fingerprint());
}

// --- simulator -----------------------------------------------------------------

ServerEndpoint simple_endpoint(PkiWorld& world, const std::string& domain,
                               double popularity) {
  ServerEndpoint endpoint;
  endpoint.ip = "198.51.100.1";
  endpoint.port = 443;
  endpoint.domain = domain;
  endpoint.chain =
      world.issue_public_chain("digicert", domain, PkiWorld::default_leaf_validity());
  endpoint.popularity = popularity;
  endpoint.establish_probability = 1.0;
  endpoint.tls13_fraction = 0.0;
  return endpoint;
}

TEST(CampusSimulator, DeterministicInSeed) {
  PkiWorld world;
  std::vector<ServerEndpoint> endpoints{simple_endpoint(world, "a.example", 1.0),
                                        simple_endpoint(world, "b.example", 2.0)};
  const CampusSimulator simulator(endpoints);
  TrafficConfig config;
  config.connections = 500;
  const GeneratedLogs first = simulator.run(config);
  const GeneratedLogs second = simulator.run(config);
  ASSERT_EQ(first.ssl.size(), second.ssl.size());
  EXPECT_EQ(first.ssl, second.ssl);
  EXPECT_EQ(first.x509, second.x509);

  config.seed += 1;
  const GeneratedLogs third = simulator.run(config);
  EXPECT_NE(first.ssl, third.ssl);
}

TEST(CampusSimulator, CoverageGuaranteesEveryEndpointOnce) {
  PkiWorld world;
  std::vector<ServerEndpoint> endpoints;
  for (int i = 0; i < 20; ++i) {
    endpoints.push_back(
        simple_endpoint(world, "cov" + std::to_string(i) + ".example",
                        i == 0 ? 1.0 : 1e-9));  // all weight on endpoint 0
  }
  const CampusSimulator simulator(endpoints);
  TrafficConfig config;
  config.connections = 100;
  const GeneratedLogs logs = simulator.run(config);
  std::set<std::string> servers;
  for (const auto& ssl : logs.ssl) {
    if (!ssl.server_name.empty()) servers.insert(ssl.server_name);
  }
  EXPECT_EQ(servers.size(), 20u);  // the sweep reached everyone
}

TEST(CampusSimulator, Tls13HidesCertificates) {
  PkiWorld world;
  auto endpoint = simple_endpoint(world, "tls13.example", 1.0);
  endpoint.tls13_fraction = 1.0;
  const CampusSimulator simulator({endpoint});
  TrafficConfig config;
  config.connections = 50;
  const GeneratedLogs logs = simulator.run(config);
  std::size_t with_certs = 0;
  for (const auto& ssl : logs.ssl) {
    if (!ssl.cert_chain_fuids.empty()) {
      ++with_certs;
      EXPECT_EQ(ssl.version, "TLSv12");  // only the coverage sweep
    } else {
      EXPECT_EQ(ssl.version, "TLSv13");
    }
  }
  EXPECT_EQ(with_certs, 1u);
}

TEST(CampusSimulator, EmergentEstablishmentFollowsValidators) {
  PkiWorld world;
  // Endpoint A: well-formed chain -> browsers and strict clients accept.
  auto good = simple_endpoint(world, "em-good.example", 1.0);
  good.establish_probability = 0.0;  // must be ignored by the emergent model
  // Endpoint B: self-signed single -> only permissive clients accept.
  ServerEndpoint bad = good;
  bad.domain = "em-bad.example";
  {
    chain::CertificateChain chain;
    chain.push_back(world.make_self_signed("Em Org", "em-bad.example",
                                           PkiWorld::default_leaf_validity()));
    bad.chain = std::move(chain);
  }

  const CampusSimulator simulator({good, bad});
  TrafficConfig config;
  config.connections = 2000;
  config.establishment = EstablishmentModel::kEmergent;
  config.stores = &world.stores();
  config.host_store = &world.host_store();
  config.client_mix.browser_fraction = 0.5;
  config.client_mix.strict_fraction = 0.2;
  config.client_mix.permissive_fraction = 0.3;
  const GeneratedLogs logs = simulator.run(config);

  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_domain;
  for (const auto& ssl : logs.ssl) {
    auto& [total, established] = per_domain[ssl.server_name];
    ++total;
    if (ssl.established) ++established;
  }
  const auto rate = [&](const std::string& domain) {
    const auto& [total, established] = per_domain[domain];
    return static_cast<double>(established) / static_cast<double>(total);
  };
  // Good chain: everyone accepts (establish_probability=0 proves the coin
  // was not used).
  EXPECT_GT(rate("em-good.example"), 0.95);
  // Bad chain: only the permissive ~30% accept.
  EXPECT_NEAR(rate("em-bad.example"), 0.30, 0.08);
}

TEST(CampusSimulator, ResumedSessionsCarryNoCertificates) {
  PkiWorld world;
  auto endpoint = simple_endpoint(world, "resume.example", 1.0);
  endpoint.resumption_fraction = 1.0;
  const CampusSimulator simulator({endpoint});
  TrafficConfig config;
  config.connections = 60;
  const GeneratedLogs logs = simulator.run(config);
  std::size_t resumed = 0;
  for (const auto& ssl : logs.ssl) {
    if (ssl.resumed) {
      ++resumed;
      EXPECT_TRUE(ssl.cert_chain_fuids.empty());
    }
  }
  EXPECT_EQ(resumed, logs.ssl.size() - 1);  // all but the coverage sweep
}

TEST(CampusSimulator, RestrictedClientsAreHonored) {
  PkiWorld world;
  auto endpoint = simple_endpoint(world, "restricted.example", 1.0);
  endpoint.restricted_clients = {"10.9.9.1", "10.9.9.2"};
  const CampusSimulator simulator({endpoint});
  TrafficConfig config;
  config.connections = 200;
  const GeneratedLogs logs = simulator.run(config);
  for (const auto& ssl : logs.ssl) {
    EXPECT_TRUE(ssl.id_orig_h == "10.9.9.1" || ssl.id_orig_h == "10.9.9.2");
  }
}

TEST(CampusSimulator, X509RowsAreDeduplicatedByCertificate) {
  PkiWorld world;
  const CampusSimulator simulator({simple_endpoint(world, "dedupe.example", 1.0)});
  TrafficConfig config;
  config.connections = 300;
  const GeneratedLogs logs = simulator.run(config);
  EXPECT_EQ(logs.x509.size(), 2u);  // leaf + intermediate, once each
  std::set<std::string> fuids;
  for (const auto& record : logs.x509) fuids.insert(record.fuid);
  EXPECT_EQ(fuids.size(), logs.x509.size());
}

TEST(CampusSimulator, TimestampsStayInWindow) {
  PkiWorld world;
  const CampusSimulator simulator({simple_endpoint(world, "window.example", 1.0)});
  TrafficConfig config;
  config.connections = 200;
  const GeneratedLogs logs = simulator.run(config);
  for (const auto& ssl : logs.ssl) {
    EXPECT_TRUE(config.window.contains(ssl.ts)) << ssl.ts;
  }
}

TEST(CampusSimulator, EmptyInputs) {
  const CampusSimulator simulator({});
  TrafficConfig config;
  config.connections = 10;
  EXPECT_TRUE(simulator.run(config).ssl.empty());

  PkiWorld world;
  const CampusSimulator one({simple_endpoint(world, "x.example", 1.0)});
  config.connections = 0;
  EXPECT_TRUE(one.run(config).ssl.empty());

  // No clients to draw from: refused, not read past the end of the pool.
  config.client_count = 0;
  EXPECT_TRUE(one.run(config).ssl.empty());
  config.connections = 10;
  EXPECT_THROW(one.run(config), std::invalid_argument);
}

// The generated corpus, pinned by the fnv1a64 of its rendered Zeek text. A
// deliberate change to the simulator or the writers updates these values in
// the same change; any other difference is a regression. The second run
// draws every connection's endpoint by weight, so X509 rows are emitted on
// first sight under random draws rather than by the coverage sweep.
TEST(CampusSimulator, GeneratedLogsArePinned) {
  datagen::ScenarioConfig config;
  config.seed = 5;
  config.total_connections = 20000;
  const auto scenario = datagen::build_study_scenario(config);
  ASSERT_EQ(scenario->endpoints.size(), 5181u);
  // "<ssl fnv1a64>/<x509 fnv1a64>" in hex, so a failure prints the values
  // to re-record.
  const auto digests = [](const GeneratedLogs& logs) {
    zeek::SslLogWriter ssl;
    for (const zeek::SslLogRecord& record : logs.ssl) ssl.add(record);
    zeek::X509LogWriter x509;
    for (const zeek::X509LogRecord& record : logs.x509) x509.add(record);
    char text[40];
    std::snprintf(text, sizeof(text), "%016llx/%016llx",
                  static_cast<unsigned long long>(util::fnv1a64(ssl.finish())),
                  static_cast<unsigned long long>(util::fnv1a64(x509.finish())));
    return std::string(text);
  };

  const GeneratedLogs covered = scenario->generate_logs();
  EXPECT_EQ(covered.ssl.size(), 20000u);
  EXPECT_EQ(digests(covered), "126f51272a54f563/ec39166e62a5fce3");

  TrafficConfig drawn = scenario->traffic;
  drawn.ensure_coverage = false;
  const GeneratedLogs random = CampusSimulator(scenario->endpoints).run(drawn);
  EXPECT_EQ(random.x509.size(), 4925u);
  EXPECT_EQ(digests(random), "9a47db451afff4a4/767e3f7e96366341");
}

TEST(ClientPool, ShapeAndDeterminism) {
  const ClientPool pool = make_campus_client_pool(300);
  EXPECT_EQ(pool.ips.size(), 300u);
  EXPECT_EQ(pool.ips[0], "10.0.0.0");
  std::set<std::string> unique(pool.ips.begin(), pool.ips.end());
  EXPECT_EQ(unique.size(), 300u);
}

}  // namespace
}  // namespace certchain::netsim
