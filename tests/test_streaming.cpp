// Differential proof of the streaming execution engine (DESIGN.md §11): a
// run fed through LogSources in fixed-size chunks must reproduce the
// in-memory text run **byte for byte** — rendered report text, every
// deterministic counter, histogram contents, and manifest stage accounting —
// at every chunk size, for clean and fault-corrupted corpora, in lenient and
// strict mode (whichever stream is damaged), serial and sharded. On top of
// that sits the checkpoint contract: a run killed mid-stream and resumed from
// its checkpoint file yields exactly the report an uninterrupted run yields.
//
// Streamed runs add telemetry of their own (`stream.*` counters, the
// `mem.peak_rss_bytes` gauge, per-chunk spans); those are the only permitted
// metric differences and are filtered before comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../tests/helpers.hpp"
#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "core/stream_checkpoint.hpp"
#include "datagen/scenario.hpp"
#include "obs/manifest.hpp"
#include "obs/run_context.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"

namespace certchain {
namespace {

/// Metric names the streaming engine adds on top of the serial run; the
/// equivalence contract is "identical except these".
template <typename Map>
Map drop_streaming_metrics(const Map& metrics) {
  Map out;
  for (const auto& [name, value] : metrics) {
    if (name.rfind("stream.", 0) == 0 || name.rfind("mem.", 0) == 0) continue;
    out.emplace(name, value);
  }
  return out;
}

void expect_same_manifest_stages(const obs::RunManifest& actual,
                                 const obs::RunManifest& expected,
                                 const char* label) {
  EXPECT_TRUE(actual.reconciles()) << label;
  ASSERT_EQ(actual.stages.size(), expected.stages.size()) << label;
  for (std::size_t i = 0; i < expected.stages.size(); ++i) {
    EXPECT_EQ(actual.stages[i].name, expected.stages[i].name) << label;
    EXPECT_EQ(actual.stages[i].records_in, expected.stages[i].records_in)
        << label << ", stage " << expected.stages[i].name;
    EXPECT_EQ(actual.stages[i].admitted, expected.stages[i].admitted)
        << label << ", stage " << expected.stages[i].name;
    EXPECT_EQ(actual.stages[i].dropped, expected.stages[i].dropped)
        << label << ", stage " << expected.stages[i].name;
  }
}

void expect_same_histograms(
    const std::map<std::string, obs::FixedHistogram>& actual,
    const std::map<std::string, obs::FixedHistogram>& expected,
    const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  auto it = actual.begin();
  for (const auto& [name, reference] : expected) {
    ASSERT_EQ(it->first, name) << label;
    EXPECT_EQ(it->second.count(), reference.count()) << name << " " << label;
    EXPECT_DOUBLE_EQ(it->second.sum(), reference.sum()) << name << " " << label;
    EXPECT_EQ(it->second.bucket_counts(), reference.bucket_counts())
        << name << " " << label;
    ++it;
  }
}

/// Deterministic, seeded log-text corruption (the test_parallel_diff
/// pattern): garbage rows at line boundaries, a stray wrong-layout header,
/// and a truncated final line.
std::string corrupt(std::string text, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < 5; ++i) {
    const std::size_t at = text.find('\n', rng.next_below(text.size()));
    if (at == std::string::npos) continue;
    text.insert(at + 1, "garbage\trow\tnumber\t" + std::to_string(i) + "\n");
  }
  const std::size_t mid = text.find('\n', text.size() / 2);
  if (mid != std::string::npos) {
    text.insert(mid + 1, "#fields\tnot\tthe\texpected\tlayout\n");
  }
  text.resize(text.size() - std::min<std::size_t>(text.size(), 7));
  return text;
}

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "certchain_streaming_" + leaf;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), file) == content.size();
  return (std::fclose(file) == 0) && ok;
}

/// LogSource over `*text` that raises after serving `kill_after` reads —
/// the in-process stand-in for a run killed mid-stream.
std::unique_ptr<core::LogSource> make_killing_source(const std::string* text,
                                                     std::size_t kill_after) {
  auto offset = std::make_shared<std::size_t>(0);
  auto reads = std::make_shared<std::size_t>(0);
  return core::make_function_source(
      [text, offset, reads, kill_after](std::string& out,
                                        std::size_t max_bytes) -> std::size_t {
        if (*reads >= kill_after) throw std::runtime_error("simulated kill");
        ++*reads;
        const std::size_t n = std::min(max_bytes, text->size() - *offset);
        out.assign(*text, *offset, n);
        *offset += n;
        return n;
      },
      "<killing>", [offset, reads] { *offset = 0; *reads = 0; });
}

class StreamingDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 4000.0;
    config.total_connections = 4000;
    config.client_count = 300;
    config.include_length_outliers = false;
    scenario_ = datagen::build_study_scenario(config).release();
    const netsim::GeneratedLogs logs = scenario_->generate_logs();
    logs_ = new netsim::GeneratedLogs(logs);

    zeek::SslLogWriter ssl_writer;
    for (const auto& record : logs.ssl) ssl_writer.add(record);
    ssl_text_ = new std::string(ssl_writer.finish());
    zeek::X509LogWriter x509_writer;
    for (const auto& record : logs.x509) x509_writer.add(record);
    x509_text_ = new std::string(x509_writer.finish());

    pipeline_ = new core::StudyPipeline(
        scenario_->world.stores(), scenario_->world.ct_logs(),
        scenario_->vendors, &scenario_->world.cross_signs());
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete x509_text_;
    delete ssl_text_;
    delete logs_;
    delete scenario_;
    pipeline_ = nullptr;
    x509_text_ = nullptr;
    ssl_text_ = nullptr;
    logs_ = nullptr;
    scenario_ = nullptr;
  }

  static std::string render(const core::StudyReport& report) {
    core::ReportTextOptions options;
    options.graphs = true;
    return render_report_text(report, options);
  }

  /// Reference run: the in-memory text path, serial.
  struct Reference {
    std::string text;
    obs::RunContext ctx;
    core::StudyReport report;
  };

  static std::unique_ptr<Reference> reference_run(
      std::string_view ssl, std::string_view x509,
      const core::IngestOptions& ingest = {}) {
    auto ref = std::make_unique<Reference>();
    core::RunOptions options;
    options.ingest = ingest;
    ref->report =
        pipeline_->run(core::StudyInput::text(ssl, x509), options, &ref->ctx);
    ref->text = render(ref->report);
    return ref;
  }

  /// The IngestError text a strict run raises; empty when it accepted the
  /// input.
  static std::string strict_error(const core::StudyInput& input,
                                  core::RunOptions options) {
    options.ingest.mode = core::IngestMode::kStrict;
    try {
      pipeline_->run(input, options);
    } catch (const core::IngestError& error) {
      return error.what();
    }
    return "";
  }

  /// The differential assertion: the streamed run must match the reference
  /// modulo streamed-only metrics.
  static void expect_matches_reference(const Reference& ref,
                                       const core::StudyReport& streamed,
                                       const obs::RunContext& streamed_ctx,
                                       const char* label) {
    EXPECT_EQ(render(streamed), ref.text) << label;
    EXPECT_EQ(drop_streaming_metrics(streamed_ctx.metrics.counters()),
              drop_streaming_metrics(ref.ctx.metrics.counters()))
        << label;
    EXPECT_EQ(drop_streaming_metrics(streamed_ctx.metrics.gauges()),
              drop_streaming_metrics(ref.ctx.metrics.gauges()))
        << label;
    expect_same_histograms(streamed_ctx.metrics.histograms(),
                           ref.ctx.metrics.histograms(), label);
    expect_same_manifest_stages(build_run_manifest(streamed_ctx),
                                build_run_manifest(ref.ctx), label);
  }

  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
  static std::string* ssl_text_;
  static std::string* x509_text_;
  static core::StudyPipeline* pipeline_;
};

datagen::Scenario* StreamingDiffTest::scenario_ = nullptr;
netsim::GeneratedLogs* StreamingDiffTest::logs_ = nullptr;
std::string* StreamingDiffTest::ssl_text_ = nullptr;
std::string* StreamingDiffTest::x509_text_ = nullptr;
core::StudyPipeline* StreamingDiffTest::pipeline_ = nullptr;

TEST_F(StreamingDiffTest, FileInputMatchesTextInputByteForByte) {
  const std::string ssl_path = temp_path("file_ssl.log");
  const std::string x509_path = temp_path("file_x509.log");
  ASSERT_TRUE(write_file(ssl_path, *ssl_text_));
  ASSERT_TRUE(write_file(x509_path, *x509_text_));

  const auto ref = reference_run(*ssl_text_, *x509_text_);
  // The scenario must exercise the populations the claim is about.
  ASSERT_FALSE(ref->report.interception.findings.empty());
  ASSERT_GT(ref->report.totals.tls13_connections, 0u);

  obs::RunContext ctx;
  core::RunOptions options;
  options.chunk_bytes = 8 * 1024;  // force many chunks
  const core::StudyReport streamed = pipeline_->run(
      core::StudyInput::files(ssl_path, x509_path), options, &ctx);
  expect_matches_reference(*ref, streamed, ctx, "files input");

  // The run was genuinely chunked and measured its own residency.
  EXPECT_GT(ctx.metrics.counter("stream.chunk.ssl"), 4u);
  EXPECT_GT(ctx.metrics.counter("stream.chunk.x509"), 4u);
  EXPECT_EQ(ctx.metrics.counter("stream.chunk.ssl_bytes"), ssl_text_->size());
  EXPECT_GT(ctx.metrics.gauges().at("mem.peak_rss_bytes"), 0.0);

  std::remove(ssl_path.c_str());
  std::remove(x509_path.c_str());
}

TEST_F(StreamingDiffTest, EveryChunkSizeReproducesTheSameReport) {
  const auto ref = reference_run(*ssl_text_, *x509_text_);
  // Chunk sizes chosen to split lines at awkward places: smaller than a row,
  // a prime, and larger than the whole stream.
  for (const std::size_t chunk_bytes : {17ul, 4099ul, 1ul << 26}) {
    obs::RunContext ctx;
    core::RunOptions options;
    options.chunk_bytes = chunk_bytes;
    const core::StudyReport streamed = pipeline_->run(
        core::StudyInput::sources(core::make_text_source(*ssl_text_),
                                  core::make_text_source(*x509_text_)),
        options, &ctx);
    expect_matches_reference(
        *ref, streamed, ctx,
        ("chunk_bytes=" + std::to_string(chunk_bytes)).c_str());
  }
}

TEST_F(StreamingDiffTest, ShardedStreamingMatchesSerialText) {
  const auto ref = reference_run(*ssl_text_, *x509_text_);
  for (const std::size_t threads : {2ul, 4ul}) {
    obs::RunContext ctx;
    core::RunOptions options;
    options.chunk_bytes = 16 * 1024;
    options.threads = threads;
    const core::StudyReport streamed = pipeline_->run(
        core::StudyInput::sources(core::make_text_source(*ssl_text_),
                                  core::make_text_source(*x509_text_)),
        options, &ctx);
    // Sharded analysis over a streamed fold: report text still byte-equal.
    EXPECT_EQ(render(streamed), ref->text) << threads << " threads";
    EXPECT_EQ(drop_streaming_metrics(ctx.metrics.counters()),
              drop_streaming_metrics(ref->ctx.metrics.counters()))
        << threads << " threads";
  }
}

TEST_F(StreamingDiffTest, ParsedRecordsRunAgreesModuloIngestAccounting) {
  obs::RunContext records_ctx;
  const core::StudyReport from_records =
      pipeline_->run(core::StudyInput::records(*logs_), {}, &records_ctx);
  obs::RunContext streamed_ctx;
  core::RunOptions options;
  options.chunk_bytes = 32 * 1024;
  const core::StudyReport streamed = pipeline_->run(
      core::StudyInput::sources(core::make_text_source(*ssl_text_),
                                core::make_text_source(*x509_text_)),
      options, &streamed_ctx);

  // Records runs have no ingestion accounting; compare the analysis body.
  core::ReportTextOptions text_options;
  text_options.graphs = true;
  text_options.data_quality = false;
  EXPECT_EQ(render_report_text(streamed, text_options),
            render_report_text(from_records, text_options));
  EXPECT_EQ(streamed.unique_chains, from_records.unique_chains);
  EXPECT_EQ(streamed.totals.connections, from_records.totals.connections);
  EXPECT_FALSE(from_records.ingest.populated);
  EXPECT_TRUE(streamed.ingest.populated);
}

TEST_F(StreamingDiffTest, FaultCorruptedCorpusStreamsIdenticallyUnderLenient) {
  const std::string damaged_ssl = corrupt(*ssl_text_, 0xFA01);
  const std::string damaged_x509 = corrupt(*x509_text_, 0xFA02);
  const auto ref = reference_run(damaged_ssl, damaged_x509);
  ASSERT_GT(ref->report.ingest.skipped_total(), 0u);
  ASSERT_FALSE(ref->report.ingest.sample_errors.empty());

  obs::RunContext ctx;
  core::RunOptions options;
  options.chunk_bytes = 4096;
  const core::StudyReport streamed = pipeline_->run(
      core::StudyInput::sources(core::make_text_source(damaged_ssl),
                                core::make_text_source(damaged_x509)),
      options, &ctx);
  expect_matches_reference(*ref, streamed, ctx, "corrupted lenient");
  // Absolute line numbers in the sample errors survive the chunking.
  EXPECT_EQ(streamed.ingest.sample_errors, ref->report.ingest.sample_errors);
}

TEST_F(StreamingDiffTest, StrictModeFailsWithTheIdenticalFirstError) {
  const std::string damaged_ssl = corrupt(*ssl_text_, 0xFA01);
  const std::string damaged_x509 = corrupt(*x509_text_, 0xFA02);
  // The damaged stream is the input: SSL only, X509 only, and both (where
  // the SSL stream's error wins although X509 streams first).
  const struct {
    const char* label;
    const std::string* ssl;
    const std::string* x509;
  } cases[] = {
      {"ssl damaged", &damaged_ssl, x509_text_},
      {"x509 damaged", ssl_text_, &damaged_x509},
      {"both damaged", &damaged_ssl, &damaged_x509},
  };
  for (const auto& damage : cases) {
    std::string text_message;
    for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
      core::RunOptions options;
      options.threads = threads;
      const std::string message = strict_error(
          core::StudyInput::text(*damage.ssl, *damage.x509), options);
      ASSERT_FALSE(message.empty())
          << "strict text run accepted a damaged corpus: " << damage.label
          << ", " << threads << " threads";
      if (text_message.empty()) text_message = message;
      EXPECT_EQ(message, text_message) << damage.label << ", " << threads
                                       << " threads";
    }
    for (const std::size_t threads : {1ul, 4ul}) {
      core::RunOptions options;
      options.chunk_bytes = 2048;
      options.threads = threads;
      EXPECT_EQ(strict_error(core::StudyInput::sources(
                                 core::make_text_source(*damage.ssl),
                                 core::make_text_source(*damage.x509)),
                             options),
                text_message)
          << damage.label << ", streamed at " << threads << " threads";
    }
  }
}

TEST_F(StreamingDiffTest, KilledRunResumesFromCheckpointToTheExactReport) {
  const std::string checkpoint = temp_path("resume.ckpt");
  std::remove(checkpoint.c_str());
  const auto ref = reference_run(*ssl_text_, *x509_text_);

  core::RunOptions options;
  options.chunk_bytes = 8 * 1024;
  options.checkpoint_path = checkpoint;

  // First attempt dies after three SSL chunks; by then the engine has
  // written a checkpoint at each chunk boundary.
  obs::RunContext killed_ctx;
  EXPECT_THROW(
      pipeline_->run(
          core::StudyInput::sources(make_killing_source(ssl_text_, 3),
                                    core::make_text_source(*x509_text_)),
          options, &killed_ctx),
      std::runtime_error);
  EXPECT_GE(killed_ctx.metrics.counter("stream.checkpoint.written"), 1u);
  ASSERT_TRUE(core::read_file_text(checkpoint).has_value());

  // Second attempt (fresh context, same inputs) resumes and completes.
  obs::RunContext ctx;
  const core::StudyReport resumed = pipeline_->run(
      core::StudyInput::sources(core::make_text_source(*ssl_text_),
                                core::make_text_source(*x509_text_)),
      options, &ctx);
  EXPECT_EQ(ctx.metrics.counter("stream.resume.loaded"), 1u);
  EXPECT_EQ(ctx.metrics.counter("stream.resume.rejected"), 0u);
  expect_matches_reference(*ref, resumed, ctx, "killed+resumed");
  // The resumed run skipped the already-folded prefix...
  EXPECT_LT(ctx.metrics.counter("stream.chunk.ssl_bytes"), ssl_text_->size());
  // ...and the checkpoint is gone after the successful fold.
  EXPECT_EQ(ctx.metrics.counter("stream.checkpoint.removed"), 1u);
  EXPECT_FALSE(core::read_file_text(checkpoint).has_value());
}

TEST_F(StreamingDiffTest, KilledRunResumesAcrossThreadCounts) {
  // The checkpoint a pooled fold writes after a chunk is the one-thread
  // fold's, byte for byte, so a run killed at one thread count resumes at
  // another to the exact report.
  const std::string checkpoint = temp_path("resume_threads.ckpt");
  const auto ref = reference_run(*ssl_text_, *x509_text_);
  const auto killed_checkpoint = [&](std::size_t threads) {
    std::remove(checkpoint.c_str());
    core::RunOptions options;
    options.chunk_bytes = 32 * 1024;
    options.checkpoint_path = checkpoint;
    options.threads = threads;
    EXPECT_THROW(
        pipeline_->run(
            core::StudyInput::sources(make_killing_source(ssl_text_, 4),
                                      core::make_text_source(*x509_text_)),
            options),
        std::runtime_error);
    return core::read_file_text(checkpoint).value_or("");
  };

  const std::string serial = killed_checkpoint(1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {2ul, 4ul, 8ul}) {
    EXPECT_EQ(killed_checkpoint(threads), serial) << threads << " threads";
  }

  for (const auto& [killed_at, resumed_at] :
       {std::pair<std::size_t, std::size_t>{4, 1}, {1, 4}}) {
    killed_checkpoint(killed_at);
    obs::RunContext ctx;
    core::RunOptions options;
    options.chunk_bytes = 32 * 1024;
    options.checkpoint_path = checkpoint;
    options.threads = resumed_at;
    const core::StudyReport resumed = pipeline_->run(
        core::StudyInput::sources(core::make_text_source(*ssl_text_),
                                  core::make_text_source(*x509_text_)),
        options, &ctx);
    const std::string label = "killed at " + std::to_string(killed_at) +
                              " threads, resumed at " +
                              std::to_string(resumed_at);
    EXPECT_EQ(ctx.metrics.counter("stream.resume.loaded"), 1u) << label;
    expect_matches_reference(*ref, resumed, ctx, label.c_str());
    EXPECT_LT(ctx.metrics.counter("stream.chunk.ssl_bytes"), ssl_text_->size())
        << label;
  }
  std::remove(checkpoint.c_str());
}

TEST_F(StreamingDiffTest, ResumeReproducesLenientDamageAccountingExactly) {
  const std::string checkpoint = temp_path("resume_damaged.ckpt");
  std::remove(checkpoint.c_str());
  const std::string damaged_ssl = corrupt(*ssl_text_, 0xFA01);
  const std::string damaged_x509 = corrupt(*x509_text_, 0xFA02);
  const auto ref = reference_run(damaged_ssl, damaged_x509);

  core::RunOptions options;
  options.chunk_bytes = 4096;
  options.checkpoint_path = checkpoint;

  obs::RunContext killed_ctx;
  EXPECT_THROW(
      pipeline_->run(
          core::StudyInput::sources(make_killing_source(&damaged_ssl, 5),
                                    core::make_text_source(damaged_x509)),
          options, &killed_ctx),
      std::runtime_error);
  ASSERT_TRUE(core::read_file_text(checkpoint).has_value());

  obs::RunContext ctx;
  const core::StudyReport resumed = pipeline_->run(
      core::StudyInput::sources(core::make_text_source(damaged_ssl),
                                core::make_text_source(damaged_x509)),
      options, &ctx);
  EXPECT_EQ(ctx.metrics.counter("stream.resume.loaded"), 1u);
  expect_matches_reference(*ref, resumed, ctx, "damaged killed+resumed");
  // Malformed-row counts and absolute error line numbers from the prefix
  // were restored from the checkpoint, not re-observed.
  EXPECT_EQ(resumed.ingest.sample_errors, ref->report.ingest.sample_errors);
  EXPECT_EQ(resumed.ingest.ssl.malformed_rows,
            ref->report.ingest.ssl.malformed_rows);
}

TEST_F(StreamingDiffTest, CheckpointAgainstDifferentInputIsRejected) {
  const std::string checkpoint = temp_path("reject.ckpt");
  std::remove(checkpoint.c_str());

  core::RunOptions options;
  options.chunk_bytes = 8 * 1024;
  options.checkpoint_path = checkpoint;

  // Leave a checkpoint behind from a killed run over the pristine corpus.
  obs::RunContext killed_ctx;
  EXPECT_THROW(
      pipeline_->run(
          core::StudyInput::sources(make_killing_source(ssl_text_, 3),
                                    core::make_text_source(*x509_text_)),
          options, &killed_ctx),
      std::runtime_error);
  ASSERT_TRUE(core::read_file_text(checkpoint).has_value());

  // Resuming over a corpus that differs *inside the folded prefix* must
  // reject the checkpoint and restart clean. (Damage beyond the prefix would
  // legitimately resume — the prefix digest only vouches for what was
  // folded.)
  std::string damaged_ssl = *ssl_text_;
  damaged_ssl.insert(damaged_ssl.find('\n') + 1, "garbage\trow\n");
  const auto ref = reference_run(damaged_ssl, *x509_text_);
  obs::RunContext ctx;
  const core::StudyReport report = pipeline_->run(
      core::StudyInput::sources(core::make_text_source(damaged_ssl),
                                core::make_text_source(*x509_text_)),
      options, &ctx);
  EXPECT_EQ(ctx.metrics.counter("stream.resume.rejected"), 1u);
  EXPECT_EQ(ctx.metrics.counter("stream.resume.loaded"), 0u);
  expect_matches_reference(*ref, report, ctx, "rejected resume");
  std::remove(checkpoint.c_str());
}

TEST_F(StreamingDiffTest, AnalyzeOverPrebuiltCorpusMatchesUnifiedRun) {
  // The query-serving path (DESIGN.md §12) folds connections into a live
  // CorpusIndex and re-analyzes it via the public analyze() entry; the
  // result must be indistinguishable from a full run over the same records.
  const core::StudyReport reference =
      pipeline_->run(core::StudyInput::records(logs_->ssl, logs_->x509));
  core::DnPool dn_pool;
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&dn_pool);
  for (const auto& record : logs_->x509) joiner.add(record);
  core::CorpusIndex corpus;
  for (const auto& record : logs_->ssl) corpus.add(joiner.join(record));
  const core::StudyReport analyzed =
      pipeline_->analyze(corpus, nullptr, &dn_pool);
  EXPECT_EQ(render(analyzed), render(reference));
  EXPECT_EQ(analyzed.unique_chains, reference.unique_chains);
}

// --- LogSource units -------------------------------------------------------

TEST(StreamingSources, TextSourceChunksSeeksAndReportsSize) {
  const std::string text = "abcdefghij";
  const auto source = core::make_text_source(text, "ten");
  EXPECT_EQ(source->name(), "ten");
  EXPECT_EQ(source->size_hint(), 10u);

  std::string out;
  EXPECT_EQ(source->read(out, 4), 4u);
  EXPECT_EQ(out, "abcd");
  EXPECT_EQ(source->read(out, 4), 4u);
  EXPECT_EQ(out, "efgh");
  EXPECT_EQ(source->read(out, 4), 2u);
  EXPECT_EQ(out, "ij");
  EXPECT_EQ(source->read(out, 4), 0u);

  ASSERT_TRUE(source->seek(6));
  EXPECT_EQ(source->read(out, 100), 4u);
  EXPECT_EQ(out, "ghij");
  EXPECT_FALSE(source->seek(11));
  ASSERT_TRUE(source->seek(10));  // EOF position is addressable
  EXPECT_EQ(source->read(out, 1), 0u);
}

TEST(StreamingSources, FileSourceRoundTripsAndSeeks) {
  const std::string path = temp_path("source.bin");
  const std::string payload = "0123456789ABCDEF";
  ASSERT_TRUE(write_file(path, payload));
  const auto source = core::open_file_source(path);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->size_hint(), payload.size());

  std::string out, all;
  while (source->read(out, 5) > 0) all += out;
  EXPECT_EQ(all, payload);
  ASSERT_TRUE(source->seek(10));
  EXPECT_EQ(source->read(out, 100), 6u);
  EXPECT_EQ(out, "ABCDEF");
  std::remove(path.c_str());

  EXPECT_EQ(core::open_file_source(temp_path("missing.bin")), nullptr);
}

TEST(StreamingSources, FunctionSourceRewindsToZeroOnly) {
  const std::string text = "stream me";
  std::size_t offset = 0;
  const auto source = core::make_function_source(
      [&text, &offset](std::string& out, std::size_t max_bytes) {
        const std::size_t n = std::min(max_bytes, text.size() - offset);
        out.assign(text, offset, n);
        offset += n;
        return n;
      },
      "cb", [&offset] { offset = 0; });

  std::string out;
  EXPECT_EQ(source->read(out, 6), 6u);
  ASSERT_TRUE(source->seek(0));
  EXPECT_EQ(source->read(out, 100), text.size());
  EXPECT_EQ(out, text);
  EXPECT_FALSE(source->seek(3));  // only a full rewind is supported
}

// --- reader + codec units --------------------------------------------------

TEST(StreamingReaderCheckpoint, RestoredReaderIsIndistinguishable) {
  // A stream with damage, rotation, and a checkpoint boundary that lands
  // mid-line: the restored reader must finish exactly like the original.
  zeek::SslLogWriter writer;
  zeek::SslLogRecord record;
  record.ts = 1600000000;
  record.uid = "Cone";
  record.id_orig_h = "10.0.0.1";
  record.id_resp_h = "198.51.100.1";
  record.id_resp_p = 443;
  record.version = "TLSv12";
  writer.add(record);
  record.uid = "Ctwo";
  writer.add(record);
  std::string text = writer.finish();
  const std::size_t cone = text.find("Cone");
  ASSERT_NE(cone, std::string::npos);
  const std::size_t body = text.rfind('\n', cone) + 1;  // line start
  text.insert(body, "damaged\trow\n");

  const auto collect = [](const std::string& stream,
                          std::size_t split) -> std::pair<std::vector<std::string>,
                                                          zeek::ReaderCheckpoint> {
    std::vector<std::string> uids;
    auto first = zeek::make_streaming_ssl_reader(
        [&uids](zeek::SslLogRecord r) { uids.push_back(r.uid); });
    first.feed(std::string_view(stream).substr(0, split));
    const zeek::ReaderCheckpoint state = first.checkpoint();

    auto second = zeek::make_streaming_ssl_reader(
        [&uids](zeek::SslLogRecord r) { uids.push_back(r.uid); });
    second.restore(state);
    second.feed(std::string_view(stream).substr(split));
    second.finish();
    zeek::ReaderCheckpoint final_state = second.checkpoint();
    final_state.buffer.clear();  // finish() consumed it
    return {uids, final_state};
  };

  // One-shot reference: split at 0 (restore of a fresh checkpoint).
  const auto [ref_uids, ref_state] = collect(text, 0);
  EXPECT_EQ(ref_uids, (std::vector<std::string>{"Cone", "Ctwo"}));
  ASSERT_EQ(ref_state.malformed_rows, 1u);

  for (const std::size_t split : {1ul, body, body + 3, text.size() - 2}) {
    const auto [uids, state] = collect(text, split);
    EXPECT_EQ(uids, ref_uids) << "split at " << split;
    EXPECT_EQ(state.lines_seen, ref_state.lines_seen) << split;
    EXPECT_EQ(state.records_emitted, ref_state.records_emitted) << split;
    EXPECT_EQ(state.malformed_rows, ref_state.malformed_rows) << split;
    EXPECT_EQ(state.rotations_seen, ref_state.rotations_seen) << split;
    ASSERT_EQ(state.errors.size(), ref_state.errors.size()) << split;
    for (std::size_t i = 0; i < state.errors.size(); ++i) {
      EXPECT_EQ(state.errors[i].line_number, ref_state.errors[i].line_number);
      EXPECT_EQ(state.errors[i].message, ref_state.errors[i].message);
    }
  }
}

TEST(StreamingCheckpointCodec, RoundTripsAndRejectsDamage) {
  core::StreamCheckpoint checkpoint;
  checkpoint.mode = core::IngestMode::kStrict;
  checkpoint.x509_digest = util::fnv1a64("x509");
  checkpoint.ssl_digest_state = util::fnv1a64("ssl");
  checkpoint.ssl_offset = 123456789;
  checkpoint.chunks_done = 7;
  checkpoint.ssl_reader.buffer = "partial\tline";
  checkpoint.ssl_reader.in_body = true;
  checkpoint.ssl_reader.line_offset = 42;
  checkpoint.ssl_reader.malformed_rows = 3;
  checkpoint.ssl_reader.errors.push_back({17, "wrong column count"});

  const core::CorpusIndex corpus;  // chains are covered by the resume tests
  const std::string encoded = core::encode_stream_checkpoint(checkpoint, corpus);

  const zeek::CertificateIndex by_fingerprint;
  core::CorpusIndex restored_corpus;
  std::string error;
  const auto decoded = core::decode_stream_checkpoint(encoded, by_fingerprint,
                                                      restored_corpus, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->mode, core::IngestMode::kStrict);
  EXPECT_EQ(decoded->x509_digest, checkpoint.x509_digest);
  EXPECT_EQ(decoded->ssl_digest_state, checkpoint.ssl_digest_state);
  EXPECT_EQ(decoded->ssl_offset, checkpoint.ssl_offset);
  EXPECT_EQ(decoded->chunks_done, checkpoint.chunks_done);
  EXPECT_EQ(decoded->ssl_reader.buffer, "partial\tline");
  EXPECT_TRUE(decoded->ssl_reader.in_body);
  EXPECT_EQ(decoded->ssl_reader.line_offset, 42u);
  EXPECT_EQ(decoded->ssl_reader.malformed_rows, 3u);
  ASSERT_EQ(decoded->ssl_reader.errors.size(), 1u);
  EXPECT_EQ(decoded->ssl_reader.errors[0].line_number, 17u);
  EXPECT_EQ(decoded->ssl_reader.errors[0].message, "wrong column count");

  // Not JSON, wrong schema, and truncation all fail with a reason.
  core::CorpusIndex scratch;
  EXPECT_FALSE(core::decode_stream_checkpoint("not json", by_fingerprint,
                                              scratch, &error));
  EXPECT_FALSE(error.empty());
  std::string wrong_schema = encoded;
  const std::size_t at = wrong_schema.find("certchain.stream.checkpoint");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 9, "elsewhere");
  EXPECT_FALSE(core::decode_stream_checkpoint(wrong_schema, by_fingerprint,
                                              scratch, &error));
  EXPECT_FALSE(core::decode_stream_checkpoint(
      encoded.substr(0, encoded.size() / 2), by_fingerprint, scratch, &error));
}

TEST(StreamingCheckpointCodec, RejectsMalformedNumbers) {
  core::StreamCheckpoint checkpoint;
  checkpoint.ssl_offset = 4096;
  checkpoint.chunks_done = 2;
  checkpoint.ssl_reader.line_offset = 42;
  const core::CorpusIndex corpus;
  const std::string encoded = core::encode_stream_checkpoint(checkpoint, corpus);
  const zeek::CertificateIndex by_fingerprint;
  core::CorpusIndex scratch;
  std::string error;
  ASSERT_TRUE(core::decode_stream_checkpoint(encoded, by_fingerprint, scratch,
                                             &error))
      << error;

  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {R"("ssl_offset":4096)", R"("ssl_offset":4096.5)"},
           {R"("ssl_offset":4096)", R"("ssl_offset":1e999)"},
           {R"("chunks_done":2)", R"("chunks_done":-2)"},
           {R"("chunks_done":2)", R"("chunks_done":2-1)"},
           {R"("line_offset":42)", R"("line_offset":9007199254740994)"},
           {R"("line_offset":42)", R"("line_offset":042)"}}) {
    std::string damaged = encoded;
    const std::size_t at = damaged.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    damaged.replace(at, from.size(), to);
    error.clear();
    EXPECT_FALSE(core::decode_stream_checkpoint(damaged, by_fingerprint, scratch,
                                                &error))
        << to;
    EXPECT_FALSE(error.empty()) << to;
  }
}

TEST(StreamingCheckpointCodec, WriteIsAtomicAndReadableBack) {
  const std::string path = temp_path("atomic.ckpt");
  core::StreamCheckpoint checkpoint;
  checkpoint.ssl_offset = 99;
  const core::CorpusIndex corpus;
  ASSERT_TRUE(core::write_stream_checkpoint(path, checkpoint, corpus));
  const auto text = core::read_file_text(path);
  ASSERT_TRUE(text.has_value());

  const zeek::CertificateIndex by_fingerprint;
  core::CorpusIndex restored;
  std::string error;
  const auto decoded =
      core::decode_stream_checkpoint(*text, by_fingerprint, restored, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->ssl_offset, 99u);
  // No .tmp sibling left behind.
  EXPECT_FALSE(core::read_file_text(path + ".tmp").has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace certchain
