#include "datagen/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "obs/run_context.hpp"
#include "util/hash.hpp"

namespace certchain::datagen {

using netsim::PkiWorld;
using netsim::ServerEndpoint;
using x509::DistinguishedName;

namespace {

std::string server_ip(std::size_t index) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "198.51.%zu.%zu", (index >> 8) & 0xFF,
                index & 0xFF);
  return buffer;
}

/// Weighted port sampler built from a Table 4 column.
std::uint16_t sample_port(util::Rng& rng,
                          std::initializer_list<std::pair<std::uint16_t, double>> table) {
  std::vector<double> weights;
  std::vector<std::uint16_t> ports;
  for (const auto& [port, weight] : table) {
    ports.push_back(port);
    weights.push_back(weight);
  }
  return ports[rng.pick_weighted(
      std::span<const double>(weights.data(), weights.size()))];
}

std::uint16_t nonpub_single_port(util::Rng& rng) {
  return sample_port(rng, {{443, 46.29}, {8888, 21.52}, {33854, 19.08},
                           {13000, 4.22}, {25, 1.30}, {9000, 3.0}, {8080, 2.5},
                           {10443, 2.09}});
}

std::uint16_t nonpub_multi_port(util::Rng& rng) {
  return sample_port(rng, {{443, 83.51}, {8531, 4.18}, {9093, 2.85}, {38881, 1.81},
                           {6443, 1.45}, {9443, 3.2}, {8443, 3.0}});
}

std::uint16_t interception_port(util::Rng& rng) {
  return sample_port(rng, {{8013, 35.40}, {4437, 25.14}, {14430, 16.34},
                           {443, 13.36}, {514, 3.53}, {9443, 3.1}, {8443, 3.13}});
}

/// Rounds a scaled count, keeping at least `minimum`.
std::size_t scaled(double value, double scale, std::size_t minimum = 1) {
  const auto count = static_cast<std::size_t>(std::llround(value * scale));
  return std::max(count, minimum);
}

}  // namespace

netsim::GeneratedLogs Scenario::generate_logs(obs::RunContext* obs) const {
  const netsim::CampusSimulator simulator(endpoints);
  if (obs == nullptr) return simulator.run(traffic);

  obs::StageTimer timer(*obs, "simulate");
  netsim::TrafficConfig instrumented = traffic;
  instrumented.metrics = &obs->metrics;
  return simulator.run(instrumented);
}

namespace detail {

// ---------------------------------------------------------------------------
// Public-DB-only endpoints (the Figure 1 backdrop: mode at chain length 2).
// ---------------------------------------------------------------------------
void add_public_endpoints(Scenario& scenario, const ScenarioConfig& config,
                          util::Rng& rng) {
  PkiWorld& world = scenario.world;
  const std::size_t count = scaled(240000.0, config.chain_scale, 200);
  const char* ca_names[] = {"digicert", "sectigo",    "lets-encrypt", "godaddy",
                            "comodo",   "globalsign", "symantec",     "usertrust"};

  // Popularity budget: public traffic is ~14.5% of the corpus.
  const double per_endpoint_weight = 0.145 / static_cast<double>(count);

  for (std::size_t i = 0; i < count; ++i) {
    const std::string domain = "www" + std::to_string(i) + ".sim-public.example";
    const char* ca = ca_names[rng.next_below(std::size(ca_names))];

    // Realistic leaf lifetimes: ACME issuers rotate 90-day certificates,
    // traditional CAs issue up to the CA/B Forum 398-day ceiling. Issuance
    // is staggered so every certificate covers a slice of the window.
    const bool acme = std::string_view(ca) == "lets-encrypt";
    const util::SimTime lifetime =
        (acme ? 90 : 398) * util::kSecondsPerDay;
    const util::SimTime issue_at =
        util::study::collection_window().begin -
        rng.uniform_int(0, 60) * util::kSecondsPerDay;
    const util::TimeRange leaf_validity{issue_at, issue_at + lifetime};

    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = 443;
    endpoint.domain = domain;
    endpoint.popularity = per_endpoint_weight * rng.uniform(0.3, 3.0);
    endpoint.establish_probability = 0.985;
    endpoint.tls13_fraction = 0.25;
    endpoint.resumption_fraction = 0.2;  // busy public sites resume sessions
    endpoint.validation_status = "ok";
    endpoint.label = "public/standard";

    const double shape = rng.uniform();
    if (shape < 0.66) {
      // [leaf, intermediate] — root omitted (the dominant shape).
      endpoint.chain = world.issue_public_chain(ca, domain, leaf_validity, false);
    } else if (shape < 0.89) {
      // [leaf, intermediate, root].
      endpoint.chain = world.issue_public_chain(ca, domain, leaf_validity, true);
    } else if (shape < 0.95) {
      // Leaf alone (server misconfigured to omit intermediates).
      chain::CertificateChain full =
          world.issue_public_chain(ca, domain, leaf_validity, false);
      chain::CertificateChain leaf_only;
      leaf_only.push_back(full.first());
      endpoint.chain = std::move(leaf_only);
      endpoint.label = "public/leaf-only";
    } else {
      // Cross-signed delivery: leaf under USERTrust followed directly by the
      // AAA root — textual mismatch covered by the cross-sign registry.
      chain::CertificateChain cross =
          world.issue_public_chain("usertrust", domain, leaf_validity, false);
      cross.push_back(world.public_ca("sectigo").root_cert);
      endpoint.chain = std::move(cross);
      endpoint.label = "public/cross-signed";
    }
    endpoint.revisit_chain = endpoint.chain;  // stable through 2024
    scenario.endpoints.push_back(std::move(endpoint));
  }
}

// ---------------------------------------------------------------------------
// Non-public-DB-only endpoints (§4.3): singles (self-signed, localhost, DGA)
// plus multi-certificate private hierarchies, a complex-PKI cluster, a few
// broken chains, and the three Figure 1 length outliers.
// ---------------------------------------------------------------------------
void add_non_public_endpoints(Scenario& scenario, const ScenarioConfig& config,
                              util::Rng& rng) {
  PkiWorld& world = scenario.world;
  const util::TimeRange validity = PkiWorld::default_leaf_validity();

  // Paper scale: 429K chains; 78.10% single (94.19% of them self-signed).
  const std::size_t total = scaled(429000.0, config.chain_scale, 400);
  const auto single_count = static_cast<std::size_t>(total * 0.7810);
  const auto single_self_signed =
      static_cast<std::size_t>(single_count * 0.9419);
  const std::size_t single_distinct_all = single_count - single_self_signed;
  // The DGA cluster keeps a floor of 20 chains but can never exceed the
  // distinct-issuer budget (tiny scales would otherwise underflow).
  const std::size_t dga_count = std::min(
      single_distinct_all,
      std::max<std::size_t>(
          20, static_cast<std::size_t>(static_cast<double>(total) * 0.009)));
  const std::size_t single_distinct_misc = single_distinct_all - dga_count;
  const std::size_t multi_count = total - single_count;

  // Connection budget: non-public traffic is ~66% of the corpus; singles
  // carry 64.7% of it (140M of 216.47M).
  const double single_weight =
      0.66 * 0.647 / static_cast<double>(std::max<std::size_t>(single_count, 1));
  const double multi_weight =
      0.66 * 0.353 / static_cast<double>(std::max<std::size_t>(multi_count, 1));

  // --- single, self-signed --------------------------------------------------
  for (std::size_t i = 0; i < single_self_signed; ++i) {
    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = nonpub_single_port(rng);
    const double kind = rng.uniform();
    chain::CertificateChain chain;
    if (kind < 0.45) {
      chain.push_back(world.make_localhost_certificate("np-" + std::to_string(i)));
    } else {
      const std::string org = "Sim Appliance " + std::to_string(i % 400);
      chain.push_back(world.make_self_signed(
          org, "device-" + std::to_string(i) + ".internal", validity));
    }
    endpoint.chain = std::move(chain);
    // 86.70% of single-cert connections lack an SNI; half the servers are
    // IP-only and can never be rescanned by name (§5).
    if (rng.bernoulli(0.5)) {
      endpoint.domain = "host" + std::to_string(i) + ".sim-nonpub.example";
      endpoint.no_sni_fraction = 0.867;
    }
    endpoint.popularity = single_weight * rng.uniform(0.2, 4.0);
    endpoint.establish_probability = 0.78;
    endpoint.tls13_fraction = 0.0;
    endpoint.validation_status = "self signed certificate";
    endpoint.label = "nonpub/single-self-signed";
    scenario.endpoints.push_back(std::move(endpoint));
  }

  // --- single, DGA cluster ---------------------------------------------------
  for (std::size_t i = 0; i < dga_count; ++i) {
    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = nonpub_single_port(rng);
    chain::CertificateChain chain;
    chain.push_back(world.make_dga_certificate(rng));
    endpoint.chain = std::move(chain);
    endpoint.popularity = single_weight * 0.3;
    endpoint.establish_probability = 0.35;
    endpoint.tls13_fraction = 0.0;
    endpoint.no_sni_fraction = 1.0;
    endpoint.validation_status = "unable to get local issuer certificate";
    endpoint.label = "nonpub/single-dga";
    scenario.endpoints.push_back(std::move(endpoint));
  }

  // --- single, distinct issuer/subject (non-DGA) -----------------------------
  for (std::size_t i = 0; i < single_distinct_misc; ++i) {
    const std::string org = "Sim Gadget " + std::to_string(i);
    x509::Certificate issuer_less = world.make_self_signed(
        org, "ca." + std::to_string(i) + ".gadget.internal", validity);
    // Rewrite the issuer to a different internal name: issued by an unseen
    // private CA, delivered without it.
    DistinguishedName issuer;
    issuer.add("CN", "Sim Gadget Issuing CA " + std::to_string(i % 50))
        .add("O", org);
    issuer_less.issuer = issuer;

    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = nonpub_single_port(rng);
    chain::CertificateChain chain;
    chain.push_back(std::move(issuer_less));
    endpoint.chain = std::move(chain);
    if (rng.bernoulli(0.8)) {
      endpoint.domain = "gadget" + std::to_string(i) + ".sim-nonpub.example";
      endpoint.no_sni_fraction = 0.6;
    }
    endpoint.popularity = single_weight * rng.uniform(0.2, 2.0);
    endpoint.establish_probability = 0.6;
    endpoint.tls13_fraction = 0.0;
    endpoint.validation_status = "unable to get local issuer certificate";
    endpoint.label = "nonpub/single-distinct";
    scenario.endpoints.push_back(std::move(endpoint));
  }

  // --- multi-certificate private hierarchies ---------------------------------
  // 99.76% of multi-cert chains are complete matched paths; reserve a
  // handful for contains/no-path (Table 8) and ~12 for the Figure 7
  // complex-PKI cluster.
  const std::size_t broken_no_path = std::max<std::size_t>(1, multi_count / 470);
  const std::size_t broken_contains = std::max<std::size_t>(1, multi_count / 940);
  const std::size_t complex_cluster = 12;
  const std::size_t reserved = broken_no_path + broken_contains + complex_cluster;
  const std::size_t plain_multi = multi_count > reserved ? multi_count - reserved : 0;

  for (std::size_t i = 0; i < plain_multi; ++i) {
    const std::string org = "Sim Private Org " + std::to_string(i % (plain_multi / 3 + 1));
    netsim::PrivateCaHierarchy& hierarchy = world.make_enterprise_ca(org, true);
    const std::string domain = "svc" + std::to_string(i) + "." +
                               std::to_string(i % 97) + ".sim-corp.example";

    DistinguishedName subject;
    subject.add("CN", domain).add("O", org);
    // §4.3: non-public issuers routinely omit basicConstraints.
    x509::Certificate leaf =
        rng.bernoulli(0.5531)
            ? hierarchy.intermediate_ca->issue_leaf_no_bc(subject, domain, validity)
            : hierarchy.intermediate_ca->issue_leaf(subject, domain, validity);

    chain::CertificateChain chain;
    chain.push_back(std::move(leaf));
    x509::Certificate intermediate = *hierarchy.intermediate_cert;
    if (rng.bernoulli(0.7832)) intermediate.basic_constraints = x509::BasicConstraints{};
    chain.push_back(std::move(intermediate));
    if (rng.bernoulli(0.6)) {
      x509::Certificate root = hierarchy.root_cert;
      if (rng.bernoulli(0.7832)) root.basic_constraints = x509::BasicConstraints{};
      chain.push_back(std::move(root));
    }

    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = nonpub_multi_port(rng);
    if (rng.bernoulli(0.8)) {
      endpoint.domain = domain;
      endpoint.no_sni_fraction = 0.6;
    }
    endpoint.chain = std::move(chain);
    endpoint.popularity = multi_weight * rng.uniform(0.3, 3.0);
    endpoint.establish_probability = 0.92;
    endpoint.tls13_fraction = 0.0;
    endpoint.validation_status = "unable to get local issuer certificate";
    endpoint.label = "nonpub/multi-matched";
    scenario.endpoints.push_back(std::move(endpoint));
  }

  // Complex-PKI cluster (Figure 7): one private root, intermediate I1 issued
  // by the root, and I2..I4 issued by I1; chains [leaf, Ik, I1, root] link
  // I1 to three distinct intermediates.
  {
    netsim::PrivateCaHierarchy& mega = world.make_enterprise_ca("Sim MegaCorp", true);
    x509::CertificateAuthority& i1 = *mega.intermediate_ca;
    std::vector<x509::CertificateAuthority> subs;
    std::vector<x509::Certificate> sub_certs;
    for (int k = 2; k <= 4; ++k) {
      x509::CertificateAuthority sub(
          DistinguishedName::parse_or_die(
              "CN=Sim MegaCorp Issuing CA " + std::to_string(k) +
              ",O=Sim MegaCorp,C=US"),
          "megacorp-sub/" + std::to_string(k));
      sub_certs.push_back(
          i1.issue_intermediate(sub, {util::make_time(2016, 1, 1),
                                      util::make_time(2031, 1, 1)}));
      subs.push_back(std::move(sub));
    }
    for (std::size_t i = 0; i < complex_cluster; ++i) {
      const std::size_t branch = i % subs.size();
      const std::string domain =
          "mega" + std::to_string(i) + ".sim-megacorp.example";
      DistinguishedName subject;
      subject.add("CN", domain).add("O", "Sim MegaCorp");
      chain::CertificateChain chain;
      chain.push_back(subs[branch].issue_leaf_no_bc(subject, domain, validity));
      chain.push_back(sub_certs[branch]);
      chain.push_back(*mega.intermediate_cert);
      chain.push_back(mega.root_cert);

      ServerEndpoint endpoint;
      endpoint.ip = server_ip(scenario.endpoints.size());
      endpoint.port = nonpub_multi_port(rng);
      endpoint.domain = domain;
      endpoint.no_sni_fraction = 0.3;
      endpoint.chain = std::move(chain);
      endpoint.popularity = multi_weight;
      endpoint.establish_probability = 0.92;
      endpoint.tls13_fraction = 0.0;
      endpoint.validation_status = "unable to get local issuer certificate";
      endpoint.label = "nonpub/multi-complex";
      scenario.endpoints.push_back(std::move(endpoint));
    }
  }

  // Broken multi-cert chains (the 0.24% of Table 8).
  for (std::size_t i = 0; i < broken_no_path; ++i) {
    chain::CertificateChain chain;
    chain.push_back(world.make_self_signed("Sim Broken " + std::to_string(i),
                                           "a.broken.internal", validity));
    chain.push_back(world.make_self_signed("Sim Unrelated " + std::to_string(i),
                                           "b.broken.internal", validity));
    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = nonpub_multi_port(rng);
    endpoint.chain = std::move(chain);
    endpoint.popularity = multi_weight * 0.3;
    endpoint.establish_probability = 0.3;
    endpoint.tls13_fraction = 0.0;
    endpoint.label = "nonpub/multi-no-path";
    scenario.endpoints.push_back(std::move(endpoint));
  }
  for (std::size_t i = 0; i < broken_contains; ++i) {
    netsim::PrivateCaHierarchy& hierarchy =
        world.make_enterprise_ca("Sim Semi Broken " + std::to_string(i), true);
    const std::string domain = "semi" + std::to_string(i) + ".sim-corp.example";
    DistinguishedName subject;
    subject.add("CN", domain);
    chain::CertificateChain chain;
    chain.push_back(hierarchy.intermediate_ca->issue_leaf_no_bc(subject, domain, validity));
    chain.push_back(*hierarchy.intermediate_cert);
    chain.push_back(world.make_self_signed("Sim Stray " + std::to_string(i),
                                           "stray.internal", validity));
    ServerEndpoint endpoint;
    endpoint.ip = server_ip(scenario.endpoints.size());
    endpoint.port = nonpub_multi_port(rng);
    endpoint.chain = std::move(chain);
    endpoint.popularity = multi_weight * 0.3;
    endpoint.establish_probability = 0.6;
    endpoint.tls13_fraction = 0.0;
    endpoint.label = "nonpub/multi-contains";
    scenario.endpoints.push_back(std::move(endpoint));
  }

  // Figure 1 length outliers: 3,822 / 921 / 41 certificates, each seen once
  // in an unestablished connection.
  if (config.include_length_outliers) {
    for (const std::size_t length : {std::size_t{3822}, std::size_t{921},
                                     std::size_t{41}}) {
      chain::CertificateChain chain;
      for (std::size_t i = 0; i < length; ++i) {
        chain.push_back(world.make_self_signed(
            "Sim Outlier", "junk-" + std::to_string(length) + "-" + std::to_string(i),
            validity));
      }
      ServerEndpoint endpoint;
      endpoint.ip = server_ip(scenario.endpoints.size());
      endpoint.port = 443;
      endpoint.chain = std::move(chain);
      endpoint.popularity = 0.0;  // only the coverage sweep reaches it
      endpoint.establish_probability = 0.0;
      endpoint.tls13_fraction = 0.0;
      endpoint.label = "nonpub/outlier";
      scenario.endpoints.push_back(std::move(endpoint));
    }
  }
}

// ---------------------------------------------------------------------------
// TLS interception endpoints (Table 1): 80 vendors forging chains for real
// public domains; the genuine certificates are CT-logged so the detector's
// cross-reference finds the issuer mismatch.
// ---------------------------------------------------------------------------
void add_interception_endpoints(Scenario& scenario, const ScenarioConfig& config,
                                util::Rng& rng) {
  PkiWorld& world = scenario.world;
  const util::TimeRange validity = PkiWorld::default_leaf_validity();

  // Vendor directory — the analysis-side "manual investigation" lookup.
  for (auto& [issuer, info] : interception_vendor_directory(world)) {
    scenario.vendors.insert_or_assign(issuer, std::move(info));
  }

  // Category connection shares (Table 1 %) and client-IP budgets scaled to
  // the pool (paper: 17,915 / 4,787 / 35 / 25 / 14 / 73).
  struct CategoryPlan {
    netsim::InterceptionCategory category;
    double connection_share;   // of interception traffic
    std::size_t clients;
    std::size_t chains_per_vendor;
  };
  const CategoryPlan plans[] = {
      {netsim::InterceptionCategory::kSecurityNetwork, 0.9474, 1790, 0},
      {netsim::InterceptionCategory::kBusinessCorporate, 0.0499, 479, 0},
      {netsim::InterceptionCategory::kHealthEducation, 0.0002, 4, 0},
      {netsim::InterceptionCategory::kGovernmentPublic, 0.0024, 3, 0},
      {netsim::InterceptionCategory::kBankFinance, 0.00004, 2, 0},
      {netsim::InterceptionCategory::kOther, 0.00006, 7, 0},
  };

  // Unique interception chains: paper scale 301K with 13.24% single-cert.
  const std::size_t total_chains = scaled(301000.0, config.chain_scale, 300);
  // Distribute chains: Security&Network carries most unique chains too.
  const double chain_shares[] = {0.62, 0.215, 0.066, 0.04, 0.02, 0.039};

  const netsim::ClientPool pool = netsim::make_campus_client_pool(config.client_count);
  std::size_t client_cursor = 0;
  const double interception_traffic_share = 0.13;  // of all connections

  std::size_t vendor_begin = 0;
  for (std::size_t plan_index = 0; plan_index < std::size(plans); ++plan_index) {
    const CategoryPlan& plan = plans[plan_index];
    // Vendors of this category (they are contiguous in builtin order).
    std::vector<netsim::InterceptionDeployment*> vendors;
    for (netsim::InterceptionDeployment& deployment : world.interception()) {
      if (deployment.vendor.category == plan.category) vendors.push_back(&deployment);
    }
    (void)vendor_begin;

    // Client slice for this category.
    std::vector<std::string> category_clients;
    for (std::size_t c = 0; c < plan.clients && client_cursor < pool.ips.size();
         ++c, ++client_cursor) {
      category_clients.push_back(pool.ips[client_cursor]);
    }
    if (category_clients.empty()) category_clients.push_back(pool.ips[0]);

    const std::size_t category_chains = std::max<std::size_t>(
        vendors.size(),
        static_cast<std::size_t>(total_chains * chain_shares[plan_index]));
    const double per_chain_weight =
        interception_traffic_share * plan.connection_share /
        static_cast<double>(category_chains);

    for (std::size_t i = 0; i < category_chains; ++i) {
      netsim::InterceptionDeployment& deployment = *vendors[i % vendors.size()];
      ServerEndpoint endpoint;
      endpoint.ip = server_ip(scenario.endpoints.size());
      endpoint.port = interception_port(rng);
      endpoint.restricted_clients = category_clients;
      endpoint.popularity = per_chain_weight * rng.uniform(0.3, 3.0);
      endpoint.establish_probability = 0.97;
      endpoint.tls13_fraction = 0.0;
      endpoint.no_sni_fraction = 0.0;
      endpoint.validation_status = "unable to get local issuer certificate";

      // The first round-robin pass gives every vendor one forged chain with
      // an SNI, so the CT-mismatch detector can always confirm the vendor
      // (a vendor whose only chains are SNI-less singles would be invisible
      // to the paper's method).
      const double kind = i < vendors.size() ? 1.0 : rng.uniform();
      if (kind < 0.1324) {
        // Single-certificate middlebox chains; 93.43% self-signed. Each
        // appliance instance generates its own certificate under the
        // vendor's CA name, so the chains are distinct per endpoint.
        const std::string instance_seed =
            "appliance/" + deployment.vendor.name + "/" + std::to_string(i);
        const auto keys = crypto::generate_keypair(
            crypto::KeyAlgorithm::kRsa2048, instance_seed);
        x509::CertificateBuilder builder;
        builder.serial(util::digest256_hex(instance_seed).substr(0, 16))
            .validity(validity);
        chain::CertificateChain chain;
        if (rng.bernoulli(0.9343)) {
          builder.subject(deployment.root_ca.name()).ca(true);
          chain.push_back(builder.self_sign(keys.private_key));
        } else {
          builder.subject(deployment.intermediate_ca.name())
              .issuer(deployment.root_ca.name())
              .public_key(keys.public_key)
              .ca(true);
          chain.push_back(builder.sign_with(deployment.root_ca.private_key()));
        }
        endpoint.chain = std::move(chain);
        endpoint.label = "interception/single";
      } else {
        // Forged 3-cert chain for a "real" domain whose genuine certificate
        // is CT-logged under a public issuer.
        const std::string domain =
            "site" + std::to_string(scenario.endpoints.size()) + ".sim-web.example";
        (void)world.issue_public_chain("digicert", domain, validity, false);
        endpoint.domain = domain;
        const double sub_kind = rng.uniform();
        if (sub_kind < 0.9894) {
          endpoint.chain = deployment.forge_chain(domain, validity);
          endpoint.label = "interception/forged";
        } else if (sub_kind < 0.9894 + 0.008) {
          // No matched path: forged leaf followed by an unrelated vendor's
          // intermediate (middlebox misconfiguration).
          chain::CertificateChain broken = deployment.forge_chain(domain, validity);
          chain::CertificateChain mixed;
          mixed.push_back(broken.first());
          const std::size_t other =
              (i + 1) % world.interception().size();
          mixed.push_back(world.interception()[other].intermediate_cert);
          endpoint.chain = std::move(mixed);
          endpoint.label = "interception/no-path";
          endpoint.establish_probability = 0.5;
        } else {
          // Contains a matched path plus a stray root appended.
          chain::CertificateChain extra = deployment.forge_chain(domain, validity);
          const std::size_t other = (i + 7) % world.interception().size();
          extra.push_back(world.interception()[other].root_cert);
          endpoint.chain = std::move(extra);
          endpoint.label = "interception/contains";
        }
      }
      endpoint.revisit_chain = endpoint.chain;
      scenario.endpoints.push_back(std::move(endpoint));
    }
  }

  // Figure 8 complex cluster: one vendor's root signs several inspection
  // intermediates that are chained through a shared hub intermediate.
  {
    netsim::InterceptionDeployment& deployment = world.interception().front();
    std::vector<x509::CertificateAuthority> spokes;
    std::vector<x509::Certificate> spoke_certs;
    for (int k = 0; k < 3; ++k) {
      x509::CertificateAuthority spoke(
          DistinguishedName::parse_or_die(
              "CN=" + deployment.vendor.name + " Regional CA " + std::to_string(k) +
              ",O=" + deployment.vendor.name + ",C=US"),
          "intercept-spoke/" + std::to_string(k));
      spoke_certs.push_back(deployment.intermediate_ca.issue_intermediate(
          spoke, {util::make_time(2016, 1, 1), util::make_time(2031, 1, 1)}));
      spokes.push_back(std::move(spoke));
    }
    for (std::size_t i = 0; i < 9; ++i) {
      const std::size_t branch = i % spokes.size();
      const std::string domain =
          "deep" + std::to_string(i) + ".sim-web.example";
      (void)world.issue_public_chain("globalsign", domain, validity, false);
      DistinguishedName subject;
      subject.add("CN", domain);
      chain::CertificateChain chain;
      chain.push_back(spokes[branch].issue_leaf(subject, domain, validity));
      chain.push_back(spoke_certs[branch]);
      chain.push_back(deployment.intermediate_cert);
      chain.push_back(deployment.root_cert);

      ServerEndpoint endpoint;
      endpoint.ip = server_ip(scenario.endpoints.size());
      endpoint.port = interception_port(rng);
      endpoint.domain = domain;
      endpoint.restricted_clients = {netsim::make_campus_client_pool(
          config.client_count).ips[i % config.client_count]};
      endpoint.chain = std::move(chain);
      endpoint.popularity = 0.0005;
      endpoint.establish_probability = 0.97;
      endpoint.tls13_fraction = 0.0;
      endpoint.label = "interception/complex";
      scenario.endpoints.push_back(std::move(endpoint));
    }
    // The spoke CAs also intercept: register them in the directory so the
    // detector can attribute their forged leaves.
    for (const x509::CertificateAuthority& spoke : spokes) {
      scenario.vendors[spoke.name().canonical()] = core::VendorInfo{
          deployment.vendor.name,
          std::string(interception_category_name(deployment.vendor.category))};
    }
  }
}

}  // namespace detail

ScenarioConfig demo_scenario_config(std::uint64_t connections) {
  ScenarioConfig config;
  config.seed = 20200901;
  config.chain_scale = 1.0 / static_cast<double>(connections);
  config.total_connections = connections;
  config.client_count = 300;
  config.include_length_outliers = false;
  return config;
}

core::VendorDirectory interception_vendor_directory(
    const netsim::PkiWorld& world) {
  core::VendorDirectory directory;
  for (const netsim::InterceptionDeployment& deployment : world.interception()) {
    const core::VendorInfo info{
        deployment.vendor.name,
        std::string(netsim::interception_category_name(deployment.vendor.category))};
    directory[deployment.intermediate_ca.name().canonical()] = info;
    directory[deployment.root_ca.name().canonical()] = info;
  }
  return directory;
}

std::unique_ptr<Scenario> build_study_scenario(const ScenarioConfig& config,
                                               obs::RunContext* obs) {
  // scaled() rounds value * chain_scale into a size_t: a negative, infinite
  // or NaN product would wrap to ~2^63 endpoints.
  if (!std::isfinite(config.chain_scale) || config.chain_scale <= 0.0) {
    throw std::invalid_argument(
        "build_study_scenario: chain_scale must be finite and > 0");
  }
  // Interception endpoints take their client `i % client_count`, and every
  // connection draws from the pool.
  if (config.client_count == 0) {
    throw std::invalid_argument("build_study_scenario: client_count must be > 0");
  }
  auto scenario = std::make_unique<Scenario>(config.seed);
  util::Rng rng(config.seed ^ 0xD47A6E5ULL);

  std::optional<obs::StageTimer> scenario_timer;
  if (obs != nullptr) {
    scenario_timer.emplace(*obs, "scenario");
    obs->set_config("scenario.seed", config.seed);
    obs->set_config("scenario.chain_scale", std::to_string(config.chain_scale));
    obs->set_config("scenario.total_connections", config.total_connections);
    obs->set_config("scenario.client_count",
                    static_cast<std::uint64_t>(config.client_count));
  }
  // Runs one population builder under its own span and counts the endpoints
  // it appended.
  const auto build_population = [&](const char* name, auto&& builder) {
    std::optional<obs::StageTimer> timer;
    if (obs != nullptr) timer.emplace(*obs, std::string("datagen.") + name);
    const std::size_t before = scenario->endpoints.size();
    builder(*scenario, config, rng);
    if (obs != nullptr) {
      obs->metrics.count(std::string("datagen.endpoints.") + name,
                         scenario->endpoints.size() - before);
    }
  };
  build_population("public", detail::add_public_endpoints);
  build_population("non_public", detail::add_non_public_endpoints);
  build_population("interception", detail::add_interception_endpoints);
  build_population("hybrid", detail::add_hybrid_endpoints);
  detail::assign_revisit_chains(*scenario, config, rng);
  if (obs != nullptr) {
    obs->metrics.count("datagen.endpoints", scenario->endpoints.size());
  }

  scenario->traffic.connections = config.total_connections;
  scenario->traffic.window = util::study::collection_window();
  scenario->traffic.client_count = config.client_count;
  scenario->traffic.seed = config.seed;
  scenario->traffic.ensure_coverage = true;
  return scenario;
}

}  // namespace certchain::datagen
