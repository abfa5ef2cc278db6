// Tests for hashing, strings, time, stats, base64 and table rendering.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/base64.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace certchain::util {

// Local splitmix used by the base64 property test.
std::uint64_t splitmix_step(std::uint64_t& state);

namespace {

// --- hash -------------------------------------------------------------------

TEST(Digest256, DeterministicAndDistinct) {
  EXPECT_EQ(digest256("hello"), digest256("hello"));
  EXPECT_NE(digest256("hello"), digest256("hellp"));
  EXPECT_NE(digest256(""), digest256(std::string_view("\0", 1)));
}

TEST(Digest256, HexRoundTrip) {
  const Digest256 digest = digest256("round trip me");
  Digest256 parsed;
  ASSERT_TRUE(Digest256::from_hex(digest.to_hex(), parsed));
  EXPECT_EQ(parsed, digest);
}

TEST(Digest256, FromHexRejectsMalformed) {
  Digest256 out;
  EXPECT_FALSE(Digest256::from_hex("zz", out));
  EXPECT_FALSE(Digest256::from_hex(std::string(63, 'a'), out));
  EXPECT_FALSE(Digest256::from_hex(std::string(63, 'a') + "g", out));
  EXPECT_TRUE(Digest256::from_hex(std::string(64, 'A'), out));  // upper ok
}

TEST(Digest256, PrefixOfSimilarStringsDoesNotCollide) {
  // Regression: the first output word must depend on every input byte (see
  // the lane-diffusion fix in hash.cpp).
  std::set<std::string> prefixes;
  for (int i = 0; i < 4000; ++i) {
    prefixes.insert(digest256_hex("serial/np-" + std::to_string(i)).substr(0, 16));
  }
  EXPECT_EQ(prefixes.size(), 4000u);
}

TEST(Digest256, LengthExtensionDistinct) {
  EXPECT_NE(digest256("ab"), digest256("abc"));
  EXPECT_NE(digest256("a\0b"), digest256("ab"));
}

TEST(Fnv1a64, KnownVector) {
  // FNV-1a("") = offset basis.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), (0xCBF29CE484222325ULL ^ 'a') * 0x100000001B3ULL);
}

TEST(ZeekIds, ShapeAndDeterminism) {
  const std::string fuid = zeek_style_fuid("cert-content");
  EXPECT_EQ(fuid.size(), 18u);
  EXPECT_EQ(fuid[0], 'F');
  EXPECT_EQ(fuid, zeek_style_fuid("cert-content"));
  EXPECT_NE(fuid, zeek_style_fuid("other-content"));

  const std::string uid = zeek_style_conn_uid(1, 2);
  EXPECT_EQ(uid.size(), 18u);
  EXPECT_EQ(uid[0], 'C');
  EXPECT_NE(uid, zeek_style_conn_uid(2, 2));
  EXPECT_NE(uid, zeek_style_conn_uid(1, 3));
}

// --- strings ----------------------------------------------------------------

TEST(Strings, SplitBasics) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(split_nonempty("a,,c,", ','), (std::vector<std::string>{"a", "c"}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::string text = "x|yy|zzz";
  EXPECT_EQ(join(split(text, '|'), "|"), text);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, CaseAndAffixes) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_TRUE(ends_with("hello", "lo"));
  EXPECT_FALSE(ends_with("lo", "hello"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abcdef", "xyz"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("none", "xyz", "!"), "none");
  EXPECT_EQ(replace_all("abab", "ab", "ab"), "abab");
  EXPECT_EQ(replace_all("x", "", "!"), "x");  // empty needle is a no-op
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
  EXPECT_EQ(percent(97, 100), "97.00");
  EXPECT_EQ(percent(1, 3, 1), "33.3");
  EXPECT_EQ(percent(5, 0), "0.00");  // divide-by-zero guard
}

TEST(Strings, ParseCountTakesDigitsThatFitTheTarget) {
  EXPECT_EQ(parse_count<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_count<std::uint16_t>("65535"), 65535u);
  EXPECT_EQ(parse_count<int>("2147483647"), 2147483647);
  EXPECT_EQ(parse_count<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // A sign, a blank, an empty string or anything but digits is no count:
  // "-1" must never read as 2^64 - 1, nor "" as 0.
  for (const char* bad : {"", "-1", "-0", "+1", " 1", "1 ", "1x", "0x10",
                          "1.0", "1e3"}) {
    EXPECT_FALSE(parse_count<std::uint64_t>(bad).has_value()) << bad;
  }
  // One past each target's maximum is rejected, never wrapped.
  EXPECT_FALSE(parse_count<std::uint16_t>("65536").has_value());
  EXPECT_FALSE(parse_count<std::uint32_t>("4294967296").has_value());
  EXPECT_FALSE(parse_count<int>("2147483648").has_value());
  EXPECT_FALSE(parse_count<std::size_t>("18446744073709551616").has_value());
  EXPECT_FALSE(parse_count<std::uint64_t>("99999999999999999999").has_value());

  // store() writes only a parsed value.
  std::uint16_t port = 7;
  EXPECT_FALSE(store(parse_count<std::uint16_t>("70000"), port));
  EXPECT_EQ(port, 7u);
  EXPECT_TRUE(store(parse_count<std::uint16_t>("443"), port));
  EXPECT_EQ(port, 443u);
}

TEST(Strings, ParseRealTakesFiniteValuesInRange) {
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  EXPECT_EQ(parse_real("0.02", 0.0, 1.0), 0.02);
  EXPECT_EQ(parse_real("1", 0.0, 1.0), 1.0);
  EXPECT_EQ(parse_real("2.5e1", 1.0, kMax), 25.0);
  EXPECT_EQ(parse_real("1e-300", kPositive, kMax), 1e-300);
  for (const char* bad : {"", "nan", "NaN", "-nan", "inf", "-inf", "infinity",
                          "1e999", "+1", " 1", "1 ", "1x", "0x1p3"}) {
    EXPECT_FALSE(parse_real(bad, -kMax, kMax).has_value()) << bad;
  }
  // Out of range: a rate outside [0, 1], and zero or a negative where the
  // range excludes zero.
  EXPECT_FALSE(parse_real("2", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_real("-0.5", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_real("0", kPositive, kMax).has_value());
  EXPECT_FALSE(parse_real("-5", kPositive, kMax).has_value());
  EXPECT_FALSE(parse_real("0.5", 1.0, kMax).has_value());
}

// --- time -------------------------------------------------------------------

TEST(Time, EpochConstants) {
  EXPECT_EQ(make_time(1970, 1, 1), 0);
  EXPECT_EQ(make_time(1970, 1, 2), kSecondsPerDay);
  EXPECT_EQ(make_time(2020, 9, 1), 1598918400);  // paper collection start
}

struct CivilCase {
  int year, month, day;
};

class TimeRoundTrip : public ::testing::TestWithParam<CivilCase> {};

TEST_P(TimeRoundTrip, CivilConversionRoundTrips) {
  const auto& c = GetParam();
  const SimTime t = make_time(c.year, c.month, c.day, 13, 45, 59);
  const CivilTime back = to_civil(t);
  EXPECT_EQ(back.year, c.year);
  EXPECT_EQ(back.month, c.month);
  EXPECT_EQ(back.day, c.day);
  EXPECT_EQ(back.hour, 13);
  EXPECT_EQ(back.minute, 45);
  EXPECT_EQ(back.second, 59);
}

INSTANTIATE_TEST_SUITE_P(
    Dates, TimeRoundTrip,
    ::testing::Values(CivilCase{1970, 1, 1}, CivilCase{2000, 2, 29},
                      CivilCase{2020, 9, 1}, CivilCase{2021, 8, 31},
                      CivilCase{2024, 11, 30}, CivilCase{2038, 1, 19},
                      CivilCase{1999, 12, 31}, CivilCase{2100, 3, 1}));

TEST(Time, Formatting) {
  EXPECT_EQ(format_iso8601(make_time(2020, 9, 1, 6, 5, 4)), "2020-09-01T06:05:04Z");
  EXPECT_EQ(format_date(make_time(2024, 11, 15)), "2024-11-15");
}

TEST(Time, RangeSemantics) {
  const TimeRange range{100, 200};
  EXPECT_TRUE(range.contains(100));
  EXPECT_TRUE(range.contains(199));
  EXPECT_FALSE(range.contains(200));  // half-open
  EXPECT_FALSE(range.contains(99));
  EXPECT_EQ(range.duration(), 100);

  EXPECT_TRUE((TimeRange{0, 10}.overlaps(TimeRange{9, 20})));
  EXPECT_FALSE((TimeRange{0, 10}.overlaps(TimeRange{10, 20})));  // touching
  EXPECT_TRUE((TimeRange{5, 6}.overlaps(TimeRange{0, 100})));
}

TEST(Time, StudyWindows) {
  const TimeRange collection = study::collection_window();
  EXPECT_EQ(format_date(collection.begin), "2020-09-01");
  EXPECT_EQ(format_date(collection.end), "2021-09-01");
  const TimeRange revisit = study::revisit_window();
  EXPECT_EQ(format_date(revisit.begin), "2024-11-01");
  EXPECT_FALSE(collection.overlaps(revisit));
}

// --- stats ------------------------------------------------------------------

TEST(Counter, CountsAndOrdering) {
  Counter<std::string> counter;
  counter.add("b");
  counter.add("a", 3);
  counter.add("b", 2);
  EXPECT_EQ(counter.count("a"), 3u);
  EXPECT_EQ(counter.count("b"), 3u);
  EXPECT_EQ(counter.count("missing"), 0u);
  EXPECT_EQ(counter.total(), 6u);
  EXPECT_EQ(counter.distinct(), 2u);
  const auto sorted = counter.by_count_desc();
  // Ties broken by key order: "a" before "b".
  EXPECT_EQ(sorted[0].first, "a");
}

TEST(EmpiricalCdf, QuantilesAndEvaluation) {
  EmpiricalCdf cdf;
  for (const double v : {1.0, 2.0, 2.0, 3.0}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  const EmpiricalCdf cdf;
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.empty());
}

TEST(Histogram, BinningAndClamping) {
  Histogram hist(0.0, 1.0, 10);
  hist.add(0.05);        // bin 0
  hist.add(0.999);       // bin 9
  hist.add(1.5);         // clamps into bin 9
  hist.add(-3.0);        // clamps into bin 0
  hist.add(0.55, 4);     // bin 5, weighted
  EXPECT_EQ(hist.bin(0), 2u);
  EXPECT_EQ(hist.bin(9), 2u);
  EXPECT_EQ(hist.bin(5), 4u);
  EXPECT_EQ(hist.total(), 8u);
  EXPECT_NEAR(hist.bin_center(0), 0.05, 1e-9);
}

TEST(Histogram, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Summary, RunningMoments) {
  Summary summary;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) summary.add(v);
  EXPECT_EQ(summary.count(), 8u);
  EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
  EXPECT_DOUBLE_EQ(summary.min(), 2.0);
  EXPECT_DOUBLE_EQ(summary.max(), 9.0);
  EXPECT_NEAR(summary.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Summary, EmptyAndSingle) {
  Summary summary;
  EXPECT_EQ(summary.count(), 0u);
  EXPECT_DOUBLE_EQ(summary.variance(), 0.0);
  summary.add(3.0);
  EXPECT_DOUBLE_EQ(summary.mean(), 3.0);
  EXPECT_DOUBLE_EQ(summary.variance(), 0.0);
}

// --- base64 -----------------------------------------------------------------

TEST(Base64, KnownVectors) {
  EXPECT_EQ(base64_encode(""), "");
  EXPECT_EQ(base64_encode("f"), "Zg==");
  EXPECT_EQ(base64_encode("fo"), "Zm8=");
  EXPECT_EQ(base64_encode("foo"), "Zm9v");
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
}

class Base64RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Base64RoundTrip, EncodeDecodeIdentity) {
  // Pseudo-random binary payload of the parameterized length.
  std::string payload;
  std::uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
  for (int i = 0; i < GetParam(); ++i) {
    payload.push_back(static_cast<char>(splitmix_step(state)));
  }
  const auto decoded = base64_decode(base64_encode(payload));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Base64RoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 63, 64, 65, 255,
                                           1000));

TEST(Base64, DecodeSkipsWhitespace) {
  EXPECT_EQ(base64_decode("Zm9v\nYmFy\n"), "foobar");
  EXPECT_EQ(base64_decode("  Z m 9 v "), "foo");
}

TEST(Base64, DecodeRejectsGarbage) {
  EXPECT_FALSE(base64_decode("Zm9v!").has_value());
  EXPECT_FALSE(base64_decode("Zg=A").has_value());   // data after padding
  EXPECT_FALSE(base64_decode("Zg===").has_value());  // too much padding
  EXPECT_FALSE(base64_decode("Z").has_value());      // dangling 6 bits
}

// --- table ------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"Port", "%"});
  table.add_row({"443", "97.21"});
  table.add_row({"8443", "1.36"});
  const std::string out = table.render();
  EXPECT_NE(out.find("Port"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("443"), std::string::npos);
  // Numeric column right-aligned: " 1.36" under "97.21".
  EXPECT_NE(out.find(" 1.36"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.set_alignments({Align::kLeft}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, SeparatorRows) {
  TextTable table({"k", "v"});
  table.add_row({"x", "1"});
  table.add_separator();
  table.add_row({"total", "1"});
  const std::string out = table.render();
  // Three rules: under the header, the separator, and none trailing.
  std::size_t rules = 0;
  for (std::size_t pos = out.find("-\n"); pos != std::string::npos;
       pos = out.find("-\n", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 2u);
}

}  // namespace

// Local splitmix used by the base64 property test (kept out of the anonymous
// namespace so the name in the test reads clearly).
std::uint64_t splitmix_step(std::uint64_t& state) { return splitmix64(state); }

}  // namespace certchain::util
