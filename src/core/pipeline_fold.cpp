// The one fold (DESIGN.md §10-11): how a StudyInput becomes a joiner, a
// corpus and an IngestReport, behind StudyPipeline::run and
// svc::ServiceState::load alike.
//
// Every input kind takes the same two steps on the calling thread. X509
// rows go into the joiner first: parsed (for raw text) and interned on the
// run's single DnPool — the only place a run interns DNs. SSL rows then fold
// straight into the run corpus as they parse: raw text as zeek::SslRowView
// views read in place, records as themselves. No record vector and no
// partial corpus is ever built. A worker pool only shards the analysis
// (pipeline.cpp), so the fold is the same at every thread count.
//
// Raw text reaches the readers in RunOptions::chunk_bytes pieces: reads from
// a LogSource, or slices of an in-memory body. A reader parses complete
// lines where they lie and copies only a line split between pieces, so a
// streamed run holds one chunk + the deduplicated corpus + the joiner
// index, never the log bytes. After every SSL chunk its fold state is
// checkpointable (stream_checkpoint.hpp): a killed run re-ingests the small
// X509 stream, validates both stream digests, seeks past the folded SSL
// prefix and continues — producing the byte-identical report an
// uninterrupted run yields. Streamed runs add `stream.*` counters, per-chunk spans and the
// `mem.peak_rss_bytes` gauge on top; everything else is identical at every
// chunk size and thread count (tests/test_streaming.cpp).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/stream_checkpoint.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "util/hash.hpp"
#include "zeek/log_stream.hpp"

namespace certchain::core {

namespace {

/// Feeds `text` to `reader` in `chunk_bytes` slices (the split-line handling
/// a growing log file exercises), then flushes the trailing line.
template <typename Reader>
void feed_slices(Reader& reader, std::string_view text,
                 std::size_t chunk_bytes) {
  for (std::size_t pos = 0; pos < text.size(); pos += chunk_bytes) {
    reader.feed(text.substr(pos, chunk_bytes));
  }
  reader.finish();
}

/// The one accounting helper, over each stream reader's final state. Per
/// stream: publishes the counts as `ingest.<stream>.*` counters and fills its
/// stats back FROM the registry — the single source, so the report's
/// data-quality section and the metrics export cannot disagree — and samples
/// its errors. In strict mode the stream's first damaged line raises
/// IngestError; SSL is accounted first, so its error wins when both streams
/// are damaged.
IngestReport account_streams(const zeek::ReaderCheckpoint& ssl,
                             const zeek::ReaderCheckpoint& x509,
                             IngestMode mode, obs::MetricsRegistry& metrics) {
  IngestReport report;
  report.populated = true;
  report.mode = mode;
  const auto account = [&](const zeek::ReaderCheckpoint& reader,
                           const std::string& stream, IngestStreamStats& stats) {
    const auto publish = [&](const char* leaf, std::size_t value) {
      const std::string name = "ingest." + stream + "." + leaf;
      const std::uint64_t before = metrics.counter(name);
      metrics.count(name, value);
      return static_cast<std::size_t>(metrics.counter(name) - before);
    };
    stats.bytes = publish("bytes_consumed", reader.bytes_consumed);
    stats.lines = publish("lines", reader.lines_seen);
    stats.records = publish("records", reader.records_emitted);
    stats.malformed_rows = publish("rows_malformed", reader.malformed_rows);
    stats.skipped_lines = publish("lines_skipped", reader.lines_skipped);
    stats.rotations = publish("rotations", reader.rotations_seen);
    if (mode == IngestMode::kStrict && !reader.errors.empty()) {
      const zeek::ReaderLineError& first = reader.errors.front();
      throw IngestError(IngestError::Cause::kDamagedLine,
                        stream + " log line " +
                        std::to_string(first.line_number) + ": " +
                        first.message);
    }
    for (const zeek::ReaderLineError& error : reader.errors) {
      if (report.sample_errors.size() >= IngestReport::kMaxSampleErrors) break;
      report.sample_errors.push_back(stream + " line " +
                                     std::to_string(error.line_number) +
                                     ": " + error.message);
    }
  };
  account(ssl, "ssl", report.ssl);
  account(x509, "x509", report.x509);
  return report;
}

/// Re-reads the already-folded SSL prefix and checks its running digest
/// against the checkpoint. On success the source is positioned exactly at
/// `offset`, ready for the next chunk; memory stays O(chunk). Returns false
/// (source position unspecified) on seek failure, premature EOF or mismatch.
bool verify_ssl_prefix(LogSource& source, std::uint64_t offset,
                       std::uint64_t expected_state, std::size_t chunk_bytes,
                       std::string& buffer) {
  if (!source.seek(0)) return false;
  std::uint64_t state = util::fnv1a64({});
  std::uint64_t remaining = offset;
  while (remaining > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_bytes, remaining));
    const std::size_t got = source.read(buffer, want);
    if (got == 0) return false;
    state = util::fnv1a64_continue(state, buffer);
    remaining -= got;
  }
  return state == expected_state;
}

/// Streamed inputs: both streams pulled `chunk_bytes` at a time, the SSL
/// rows folding straight into the run corpus, with checkpoint/resume.
IngestReport fold_sources(LogSource& ssl_source, LogSource& x509_source,
                          const RunOptions& options, std::size_t chunk_bytes,
                          zeek::LogJoiner& joiner, CorpusIndex& corpus,
                          obs::RunContext& ctx) {
  ctx.set_config("stream.ssl_source", ssl_source.name());
  ctx.set_config("stream.x509_source", x509_source.name());
  ctx.set_config("stream.chunk_bytes", static_cast<std::uint64_t>(chunk_bytes));
  const bool checkpointing = !options.checkpoint_path.empty();

  // Reads `source` to its end into `reader`; each chunk extends `digest`
  // (when checkpointing), is counted, gets an `ingest.<stream>.chunk<k>`
  // span, and then runs `after_chunk()`.
  std::string buffer;
  const auto pump = [&](LogSource& source, auto& reader, const std::string& stream,
                        std::uint64_t& digest, std::uint64_t& chunks,
                        const auto& after_chunk) {
    while (true) {
      const obs::Stopwatch watch;
      const std::size_t got = source.read(buffer, chunk_bytes);
      if (got == 0) break;
      if (checkpointing) digest = util::fnv1a64_continue(digest, buffer);
      reader.feed(buffer);
      ctx.metrics.count("stream.chunk." + stream);
      ctx.metrics.count("stream.chunk." + stream + "_bytes", got);
      ctx.trace.attach_closed("ingest." + stream + ".chunk" + std::to_string(chunks++),
                              watch.elapsed_ms());
      after_chunk();
    }
  };

  auto x509_reader = zeek::make_streaming_x509_reader(
      [&joiner](zeek::X509LogRecord record) { joiner.add(std::move(record)); });
  std::uint64_t x509_digest = util::fnv1a64({});
  {
    obs::StageTimer timer(ctx, "join");
    std::uint64_t chunks = 0;
    pump(x509_source, x509_reader, "x509", x509_digest, chunks, [] {});
    x509_reader.finish();
  }

  auto ssl_reader = zeek::make_streaming_ssl_view_reader(
      [&joiner, &corpus](zeek::SslRowView row) { corpus.add(joiner, row); });
  std::uint64_t ssl_digest = util::fnv1a64({});
  std::uint64_t chunks_done = 0;

  // Resume: a checkpoint is accepted only when its mode matches, the
  // re-ingested X509 stream digests to the recorded value, and re-reading
  // the SSL prefix reproduces the recorded running digest (the re-read
  // leaves the source positioned at the resume offset).
  if (checkpointing) {
    if (const std::optional<std::string> text =
            read_file_text(options.checkpoint_path)) {
      std::string error;
      const std::optional<StreamCheckpoint> checkpoint = decode_stream_checkpoint(
          *text, joiner.by_fingerprint(), corpus, &error);
      if (checkpoint && checkpoint->mode == options.ingest.mode &&
          checkpoint->x509_digest == x509_digest &&
          verify_ssl_prefix(ssl_source, checkpoint->ssl_offset,
                            checkpoint->ssl_digest_state, chunk_bytes,
                            buffer)) {
        ssl_reader.restore(checkpoint->ssl_reader);
        ssl_digest = checkpoint->ssl_digest_state;
        chunks_done = checkpoint->chunks_done;
        ctx.metrics.count("stream.resume.loaded");
      } else {
        corpus = CorpusIndex();  // drop any partially restored state
        ctx.metrics.count("stream.resume.rejected");
        if (!ssl_source.seek(0)) {
          throw IngestError(
              IngestError::Cause::kUnreadableSource,
              "stream checkpoint rejected and SSL source cannot rewind: " +
              std::string(ssl_source.name()));
        }
      }
    }
  }

  pump(ssl_source, ssl_reader, "ssl", ssl_digest, chunks_done, [&] {
         if (!checkpointing) return;
         // Every byte read so far went to the reader: its count is the
         // source offset to resume from.
         StreamCheckpoint checkpoint;
         checkpoint.mode = options.ingest.mode;
         checkpoint.x509_digest = x509_digest;
         checkpoint.ssl_digest_state = ssl_digest;
         checkpoint.ssl_offset = ssl_reader.bytes_consumed();
         checkpoint.chunks_done = chunks_done;
         checkpoint.ssl_reader = ssl_reader.checkpoint();
         if (write_stream_checkpoint(options.checkpoint_path, checkpoint,
                                     corpus)) {
           ctx.metrics.count("stream.checkpoint.written");
         }
       });
  // finish() may still emit the trailing unterminated line's record.
  ssl_reader.finish();
  IngestReport ingest =
      account_streams(ssl_reader.checkpoint(), x509_reader.checkpoint(),
                      options.ingest.mode, ctx.metrics);

  // The fold is complete and valid; the checkpoint has served its purpose.
  if (checkpointing && std::remove(options.checkpoint_path.c_str()) == 0) {
    ctx.metrics.count("stream.checkpoint.removed");
  }
  return ingest;
}

}  // namespace

IngestReport fold_input(const StudyInput& input, const RunOptions& options,
                        zeek::LogJoiner& joiner, CorpusIndex& corpus,
                        obs::RunContext& ctx) {
  const std::size_t chunk_bytes = options.chunk_bytes == 0
                                      ? RunOptions::kDefaultChunkBytes
                                      : options.chunk_bytes;
  switch (input.kind()) {
    case StudyInput::Kind::kRecords: {
      {
        obs::StageTimer timer(ctx, "join");
        for (const auto& record : input.x509_records()) joiner.add(record);
      }
      for (const auto& record : input.ssl_records()) corpus.add(joiner, record);
      return {};
    }
    case StudyInput::Kind::kText: {
      auto x509_reader = zeek::make_streaming_x509_reader(
          [&joiner](zeek::X509LogRecord record) { joiner.add(std::move(record)); });
      {
        obs::StageTimer timer(ctx, "join");
        feed_slices(x509_reader, input.x509_text(), chunk_bytes);
      }
      auto ssl_reader = zeek::make_streaming_ssl_view_reader(
          [&joiner, &corpus](zeek::SslRowView row) { corpus.add(joiner, row); });
      feed_slices(ssl_reader, input.ssl_text(), chunk_bytes);
      return account_streams(ssl_reader.checkpoint(), x509_reader.checkpoint(),
                             options.ingest.mode, ctx.metrics);
    }
    case StudyInput::Kind::kSources:
    case StudyInput::Kind::kFiles: {
      const std::shared_ptr<LogSource> ssl = input.open_ssl_source();
      if (ssl == nullptr) {
        throw IngestError(IngestError::Cause::kUnreadableSource,
                          "cannot open SSL log source: " + input.ssl_path());
      }
      const std::shared_ptr<LogSource> x509 = input.open_x509_source();
      if (x509 == nullptr) {
        throw IngestError(IngestError::Cause::kUnreadableSource,
                          "cannot open X509 log source: " + input.x509_path());
      }
      return fold_sources(*ssl, *x509, options, chunk_bytes, joiner, corpus,
                          ctx);
    }
  }
  throw IngestError(IngestError::Cause::kUnreadableSource,
                    "unknown StudyInput kind");
}

}  // namespace certchain::core
