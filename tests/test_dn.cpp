// DistinguishedName: RFC 4514 parsing, escaping, canonical matching, and
// the shared immutable body behind every copy.
#include "x509/distinguished_name.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/dn_pool.hpp"

namespace certchain::x509 {
namespace {

TEST(DistinguishedName, ParsesSimpleDn) {
  const auto parsed = DistinguishedName::parse("CN=example.com,O=Example Inc,C=US");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->rdns()[0].type, "CN");
  EXPECT_EQ(parsed->rdns()[0].value, "example.com");
  EXPECT_EQ(parsed->rdns()[1].value, "Example Inc");
  EXPECT_EQ(parsed->country(), "US");
}

TEST(DistinguishedName, ParsesEscapedSpecials) {
  const auto parsed = DistinguishedName::parse(R"(CN=Acme\, Inc.,O=a\=b,C=US)");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), "Acme, Inc.");
  EXPECT_EQ(parsed->organization(), "a=b");
}

TEST(DistinguishedName, ParsesEscapedBackslashAndHexPairs) {
  const auto parsed = DistinguishedName::parse(R"(CN=back\\slash,O=hex\41value)");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), R"(back\slash)");
  EXPECT_EQ(parsed->organization(), "hexAvalue");
}

TEST(DistinguishedName, SkipsInsignificantSpaces) {
  const auto parsed = DistinguishedName::parse("CN = spaced , O = padded org ");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), "spaced");
  EXPECT_EQ(parsed->organization(), "padded org");
}

TEST(DistinguishedName, PreservesEscapedEdgeSpaces) {
  const auto parsed = DistinguishedName::parse(R"(CN=\ lead and trail\ )");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), " lead and trail ");
}

TEST(DistinguishedName, RejectsMalformedInputs) {
  EXPECT_FALSE(DistinguishedName::parse("novalue").has_value());
  EXPECT_FALSE(DistinguishedName::parse("CN=x,").has_value());       // trailing comma
  EXPECT_FALSE(DistinguishedName::parse("=value").has_value());      // empty type
  EXPECT_FALSE(DistinguishedName::parse("CN=dangling\\").has_value());
  EXPECT_FALSE(DistinguishedName::parse("CN=x,noeq,C=US").has_value());
  EXPECT_THROW(DistinguishedName::parse_or_die("bad"), std::invalid_argument);
}

TEST(DistinguishedName, EmptyInputYieldsEmptyDn) {
  const auto parsed = DistinguishedName::parse("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
  EXPECT_EQ(parsed->to_string(), "");
}

class DnRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DnRoundTrip, SerializeParseIdentity) {
  const auto first = DistinguishedName::parse(GetParam());
  ASSERT_TRUE(first.has_value());
  const std::string serialized = first->to_string();
  const auto second = DistinguishedName::parse(serialized);
  ASSERT_TRUE(second.has_value()) << serialized;
  EXPECT_EQ(*first, *second) << serialized;
  EXPECT_EQ(second->to_string(), serialized);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DnRoundTrip,
    ::testing::Values(
        "CN=example.com",
        "CN=example.com,O=Example Inc,C=US",
        R"(CN=Acme\, Inc.,OU=R\=D,C=GB)",
        "emailAddress=webmaster@localhost,CN=localhost,OU=none,O=none,"
        "L=Sometown,ST=Someprovince,C=US",
        R"(CN=we\\ird\,name,O=x)",
        "CN=Sim USERTrust RSA Certification Authority,O=Sim The USERTRUST "
        "Network,C=US"));

TEST(DistinguishedName, CanonicalMatchingIsCaseInsensitive) {
  const auto a = DistinguishedName::parse_or_die("CN=Example.COM,o=Acme");
  const auto b = DistinguishedName::parse_or_die("cn=example.com,O=ACME");
  EXPECT_TRUE(a.matches(b));
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  EXPECT_NE(a, b);  // strict equality still sees the difference
}

TEST(DistinguishedName, CanonicalCollapsesInternalWhitespace) {
  const auto a = DistinguishedName::parse_or_die("CN=Example   Inc");
  const auto b = DistinguishedName::parse_or_die("CN=Example Inc");
  EXPECT_TRUE(a.matches(b));
}

TEST(DistinguishedName, MatchingIsOrderSensitive) {
  const auto a = DistinguishedName::parse_or_die("CN=x,O=y");
  const auto b = DistinguishedName::parse_or_die("O=y,CN=x");
  EXPECT_FALSE(a.matches(b));  // RDN sequence order is significant
}

TEST(DistinguishedName, DifferentValuesDoNotMatch) {
  const auto a = DistinguishedName::parse_or_die("CN=alpha,O=org");
  const auto b = DistinguishedName::parse_or_die("CN=beta,O=org");
  EXPECT_FALSE(a.matches(b));
}

TEST(DistinguishedName, AttributeLookupIsTypeCaseInsensitive) {
  const auto parsed = DistinguishedName::parse_or_die("cn=x,o=y,st=VA");
  EXPECT_EQ(parsed.attribute("CN"), "x");
  EXPECT_EQ(parsed.attribute("St"), "VA");
  EXPECT_FALSE(parsed.attribute("L").has_value());
}

TEST(DistinguishedName, AddBuildsIncrementally) {
  DistinguishedName name;
  name.add("CN", "svc.example").add("O", "Org");
  EXPECT_EQ(name.to_string(), "CN=svc.example,O=Org");
  EXPECT_EQ(name.size(), 2u);
}

TEST(EscapeDnValue, EscapesExactlyWhatRfc4514Requires) {
  EXPECT_EQ(escape_dn_value("plain"), "plain");
  EXPECT_EQ(escape_dn_value("a,b"), R"(a\,b)");
  EXPECT_EQ(escape_dn_value(" lead"), R"(\ lead)");
  EXPECT_EQ(escape_dn_value("trail "), R"(trail\ )");
  EXPECT_EQ(escape_dn_value("#hash"), R"(\#hash)");
  EXPECT_EQ(escape_dn_value("mid dle"), "mid dle");  // interior space is fine
  EXPECT_EQ(escape_dn_value("a+b<c>d;e\"f\\g"), R"(a\+b\<c\>d\;e\"f\\g)");
}

TEST(DistinguishedName, CanonicalDistinguishesSeparatorAmbiguity) {
  // "CN=a,O=b" must not canonicalize equal to a DN whose single value
  // contains the literal text of two RDNs.
  const auto two = DistinguishedName::parse_or_die("CN=a,O=b");
  const auto one = DistinguishedName::parse_or_die(R"(CN=a\,O=b)");
  EXPECT_FALSE(two.matches(one));
}

// --- the shared body ---------------------------------------------------------

TEST(DistinguishedName, CopiesShareOneBody) {
  const auto name = DistinguishedName::parse_or_die("CN=Shared CA,O=Org,C=US");
  const DistinguishedName copy = name;
  EXPECT_EQ(copy.canonical().data(), name.canonical().data());
  EXPECT_EQ(copy.to_string().data(), name.to_string().data());
  EXPECT_EQ(&copy.rdns(), &name.rdns());

  DistinguishedName assigned;
  assigned = copy;
  EXPECT_EQ(assigned.canonical().data(), name.canonical().data());
}

TEST(DistinguishedName, AddOnACopyLeavesTheOriginalUnchanged) {
  const auto original = DistinguishedName::parse_or_die("CN=Leaf,O=Org");
  const std::vector<Rdn> rdns = original.rdns();
  const std::string canonical = original.canonical();
  const std::string display = original.to_string();

  DistinguishedName copy = original;
  copy.add("C", "US");
  EXPECT_EQ(copy.to_string(), "CN=Leaf,O=Org,C=US");
  EXPECT_EQ(copy.canonical(), canonical + "\nC=us");
  EXPECT_NE(copy.canonical().data(), original.canonical().data());

  EXPECT_EQ(original.rdns(), rdns);
  EXPECT_EQ(original.canonical(), canonical);
  EXPECT_EQ(original.to_string(), display);
  EXPECT_FALSE(copy.matches(original));
}

TEST(DistinguishedName, DisplayBytesMatchTheRfc4514Serializer) {
  // Golden bytes: what the per-call escaping serializer produced, for each
  // position-dependent escape and each special character.
  const auto built = [](std::string value) {
    DistinguishedName name;
    name.add("CN", std::move(value)).add("O", "Org");
    return name;
  };
  EXPECT_EQ(built(" lead").to_string(), R"(CN=\ lead,O=Org)");
  EXPECT_EQ(built("#hash").to_string(), R"(CN=\#hash,O=Org)");
  EXPECT_EQ(built("mid#dle").to_string(), "CN=mid#dle,O=Org");
  EXPECT_EQ(built("trail ").to_string(), R"(CN=trail\ ,O=Org)");
  EXPECT_EQ(built("a,b").to_string(), R"(CN=a\,b,O=Org)");
  EXPECT_EQ(built("a+b").to_string(), R"(CN=a\+b,O=Org)");
  EXPECT_EQ(built("a\"b").to_string(), R"(CN=a\"b,O=Org)");
  EXPECT_EQ(built("a\\b").to_string(), R"(CN=a\\b,O=Org)");
  EXPECT_EQ(built("a<b").to_string(), R"(CN=a\<b,O=Org)");
  EXPECT_EQ(built("a>b").to_string(), R"(CN=a\>b,O=Org)");
  EXPECT_EQ(built("a;b").to_string(), R"(CN=a\;b,O=Org)");
  EXPECT_EQ(built("a=b").to_string(), "CN=a=b,O=Org");

  // A parsed name keeps the same display as one built from the same RDNs.
  const auto parsed = DistinguishedName::parse_or_die(R"(CN=\ a\,b\;c\ ,O=Org)");
  EXPECT_EQ(parsed.to_string(), built(" a,b;c ").to_string());
  EXPECT_EQ(DistinguishedName().to_string(), "");
}

TEST(DistinguishedName, EqualityAndMatchingAgreeAcrossBodies) {
  const auto name = DistinguishedName::parse_or_die("CN=Example CA,O=Org");
  const DistinguishedName shared = name;
  const auto separate = DistinguishedName::parse_or_die("CN=Example CA,O=Org");
  const auto colliding = DistinguishedName::parse_or_die("cn=example  ca,o=ORG");
  ASSERT_NE(separate.canonical().data(), name.canonical().data());

  EXPECT_TRUE(name == shared);
  EXPECT_TRUE(name.matches(shared));
  EXPECT_TRUE(name == separate);
  EXPECT_TRUE(name.matches(separate));
  EXPECT_FALSE(name == colliding);  // spelled differently
  EXPECT_TRUE(name.matches(colliding));  // one entity under caseIgnoreMatch
  EXPECT_TRUE(colliding.matches(name));

  // A default name and an explicitly empty one are the same empty name.
  const DistinguishedName empty;
  const DistinguishedName built_empty{std::vector<Rdn>{}};
  EXPECT_TRUE(empty == built_empty);
  EXPECT_TRUE(empty.matches(built_empty));
  EXPECT_FALSE(empty == name);
  EXPECT_FALSE(empty.matches(name));
}

TEST(DistinguishedName, PoolNamesCopyAndCompareFromManyThreads) {
  // Pool-owned names are copied, compared and read from every analysis
  // shard at once; their bodies' reference counts are the shared state.
  core::DnPool pool;
  std::vector<core::DnId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(pool.intern("CN=Issuer " + std::to_string(i) + ",O=Org"));
  }
  constexpr int kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ids, &mismatches, t] {
      std::vector<DistinguishedName> held;
      for (int round = 0; round < 200; ++round) {
        for (const core::DnId id : ids) {
          DistinguishedName copy = pool.name(id);
          const bool same = copy == pool.name(id) && copy.matches(pool.name(id)) &&
                            copy.to_string() == pool.display(id);
          if (!same) ++mismatches[t];
          held.push_back(std::move(copy));
        }
        held.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << t;
  EXPECT_EQ(pool.display(ids[7]), "CN=Issuer 7,O=Org");
}

}  // namespace
}  // namespace certchain::x509
