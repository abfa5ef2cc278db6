// DnPool unit + differential coverage (DESIGN.md §16).
//
// Two layers of proof, from the pool outward:
//   1. Intern/lookup round-trips and canonicalize-once semantics: distinct
//      spellings that canonicalize equally share one id, while
//      name_for_raw() preserves each spelling's own parse (display
//      fidelity).
//   2. End to end: over a DN-dense datagen population, serial, sharded
//      parallel, and streaming pipeline runs must render byte-identical
//      reports.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/dn_id.hpp"
#include "core/dn_pool.hpp"
#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "datagen/scenario.hpp"
#include "x509/distinguished_name.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"
#include "zeek/records.hpp"

namespace certchain {
namespace {

using core::DnId;
using core::DnPool;
using core::kInvalidDnId;

TEST(DnPool, InternRoundTripsAndDeduplicates) {
  DnPool pool;
  const DnId a = pool.intern("CN=Example CA,O=Example Org,C=US");
  const DnId b = pool.intern("CN=Other CA,O=Example Org,C=US");
  EXPECT_NE(a, kInvalidDnId);
  EXPECT_NE(b, kInvalidDnId);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);

  // Repeating the exact spelling hits the raw memo: same id, no growth.
  EXPECT_EQ(pool.intern("CN=Example CA,O=Example Org,C=US"), a);
  EXPECT_EQ(pool.size(), 2u);

  // Accessors agree with a fresh parse of the same bytes.
  const x509::DistinguishedName parsed =
      x509::DistinguishedName::parse_or_die("CN=Example CA,O=Example Org,C=US");
  EXPECT_EQ(pool.canonical(a), std::string_view(parsed.canonical()));
  EXPECT_EQ(pool.display(a), parsed.to_string());
  EXPECT_EQ(pool.name(a), parsed);

  // find_canonical projects back; unknown canonicals miss.
  EXPECT_EQ(pool.find_canonical(parsed.canonical()), a);
  EXPECT_EQ(pool.find_canonical("cn=never interned"), kInvalidDnId);

  // Interning the parsed form maps onto the raw-interned entry.
  EXPECT_EQ(pool.intern(parsed), a);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(DnPool, CanonicalizesOnceAtInternTime) {
  DnPool pool;
  const DnId base = pool.intern("CN=Example CA,O=Example Org");
  // Case changes and whitespace runs canonicalize away: one id for all
  // spellings, even though every spelling is a distinct raw-memo key.
  EXPECT_EQ(pool.intern("cn=example ca,o=example org"), base);
  EXPECT_EQ(pool.intern("CN=EXAMPLE   CA,O=Example Org"), base);
  EXPECT_EQ(pool.size(), 1u);

  // Display fidelity under canonical collision: the pool entry keeps the
  // first spelling, but name_for_raw() parses *these* bytes.
  EXPECT_EQ(pool.display(base), "CN=Example CA,O=Example Org");
  const x509::DistinguishedName& variant =
      pool.name_for_raw("cn=example ca,o=example org");
  EXPECT_EQ(variant.to_string(), "cn=example ca,o=example org");
  EXPECT_EQ(std::string_view(variant.canonical()), pool.canonical(base));
}

TEST(DnPool, ViewsSurviveGrowthAndMove) {
  DnPool pool;
  const DnPool::Interned first = pool.intern_raw("CN=First CA,O=Org");
  const DnPool::Interned variant = pool.intern_raw("cn=first ca,o=org");
  const std::string_view display = pool.display(first.id);
  const std::string_view canonical = pool.canonical(first.id);
  const x509::DistinguishedName* name = &pool.name(first.id);
  ASSERT_EQ(first.name, name);
  ASSERT_NE(variant.name, name);  // the variant parse of the other spelling

  for (int i = 0; i < 10000; ++i) {
    pool.intern("CN=host-" + std::to_string(i) + ".example,O=Org");
  }
  DnPool moved = std::move(pool);

  EXPECT_EQ(moved.size(), 10001u);
  EXPECT_EQ(moved.display(first.id).data(), display.data());
  EXPECT_EQ(moved.canonical(first.id).data(), canonical.data());
  EXPECT_EQ(display, "CN=First CA,O=Org");
  EXPECT_EQ(canonical, "CN=first ca\nO=org");
  EXPECT_EQ(&moved.name(first.id), name);
  EXPECT_EQ(name->to_string(), "CN=First CA,O=Org");
  EXPECT_EQ(variant.name->to_string(), "cn=first ca,o=org");
  EXPECT_EQ(moved.intern_raw("cn=first ca,o=org").name, variant.name);
}

TEST(DnPool, CollisionHeavyCorpusSharesIds) {
  // Re-spell every issuer/subject a datagen scenario produces (case flips,
  // padded whitespace): the pool must keep one id per canonical form no
  // matter how many spellings arrive.
  datagen::ScenarioConfig config;
  config.seed = 4242;
  config.chain_scale = 1.0 / 500.0;
  config.total_connections = 500;
  config.client_count = 40;
  config.include_length_outliers = false;
  const auto scenario = datagen::build_study_scenario(config);
  const netsim::GeneratedLogs logs = scenario->generate_logs();
  ASSERT_FALSE(logs.x509.empty());

  const auto upper = [](std::string_view text) {
    std::string out(text);
    for (char& c : out) c = static_cast<char>(std::toupper(
        static_cast<unsigned char>(c)));
    return out;
  };

  DnPool pool;
  std::size_t checked = 0;
  for (const zeek::X509LogRecord& record : logs.x509) {
    const DnId subject = pool.intern(record.subject);
    const DnId issuer = pool.intern(record.issuer);
    EXPECT_EQ(pool.intern(upper(record.subject)), subject);
    EXPECT_EQ(pool.intern(upper(record.issuer)), issuer);
    ++checked;
  }
  ASSERT_GT(checked, 0u);

  // Pool size equals the number of distinct canonical forms, not spellings.
  std::size_t unique_canonicals = 0;
  for (DnId id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(pool.find_canonical(pool.canonical(id)), id);
    ++unique_canonicals;
  }
  EXPECT_EQ(unique_canonicals, pool.size());
}

TEST(DnPoolDifferential, SerialParallelStreamingReportsByteIdentical) {
  // DN-dense population: many distinct chains relative to connection count,
  // so the pool carries thousands of entries through every engine.
  datagen::ScenarioConfig config;
  config.seed = 99173;
  config.chain_scale = 1.0 / 40.0;
  config.total_connections = 3000;
  config.client_count = 200;
  config.include_length_outliers = false;
  const auto scenario = datagen::build_study_scenario(config);
  const netsim::GeneratedLogs logs = scenario->generate_logs();

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : logs.ssl) ssl_writer.add(record);
  const std::string ssl_text = ssl_writer.finish();
  zeek::X509LogWriter x509_writer;
  for (const auto& record : logs.x509) x509_writer.add(record);
  const std::string x509_text = x509_writer.finish();

  const core::StudyPipeline pipeline(
      scenario->world.stores(), scenario->world.ct_logs(), scenario->vendors,
      &scenario->world.cross_signs());
  core::ReportTextOptions text_options;
  text_options.graphs = true;

  core::RunOptions serial_options;
  serial_options.threads = 1;
  const std::string serial_text = render_report_text(
      pipeline.run(core::StudyInput::text(ssl_text, x509_text), serial_options),
      text_options);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    core::RunOptions options;
    options.threads = threads;
    EXPECT_EQ(render_report_text(
                  pipeline.run(core::StudyInput::text(ssl_text, x509_text),
                               options),
                  text_options),
              serial_text)
        << threads << " threads";
  }

  core::RunOptions stream_options;
  stream_options.threads = 1;
  stream_options.chunk_bytes = 16 * 1024;
  EXPECT_EQ(render_report_text(
                pipeline.run(core::StudyInput::sources(
                                 core::make_text_source(ssl_text),
                                 core::make_text_source(x509_text)),
                             stream_options),
                text_options),
            serial_text);
}

}  // namespace
}  // namespace certchain
