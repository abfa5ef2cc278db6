// The one fold (DESIGN.md §10-11): how a StudyInput becomes a joiner, a
// corpus and an IngestReport, behind StudyPipeline::run and
// svc::ServiceState::load alike.
//
// Every input kind takes the same two steps. X509 rows go into the joiner
// first and are interned on the run's single DnPool — the only place a run
// interns DNs, always on the calling thread. SSL rows then fold into the
// run corpus: raw text as zeek::SslRowView views read in place, records as
// themselves. No record vector is ever built.
//
// Raw text reaches the readers in RunOptions::chunk_bytes pieces: reads from
// a LogSource, or slices of an in-memory body. A reader parses complete
// lines where they lie and copies only a line split between pieces, so a
// streamed run holds one chunk + the deduplicated corpus + the joiner
// index, never the log bytes. What happens to a chunk depends on the pool
// (DESIGN.md §10.2). Without one, rows join and fold as they parse. With
// one, the chunk's lines are cut into one piece per worker: X509 pieces are
// built into sealed certificates on the workers and joined here in row
// order; SSL pieces are parsed and resolved on the workers, and each row is
// routed to the worker that owns its chain, which folds its rows in row
// order into an owner-local corpus. The owners hold disjoint chains and are
// combined into the run corpus once, after the last chunk. Parsed records
// always fold on the calling thread.
//
// After every SSL chunk its fold state is checkpointable
// (stream_checkpoint.hpp): a killed run re-ingests the small X509 stream,
// validates both stream digests, seeks past the folded SSL prefix and
// continues — producing the byte-identical report an uninterrupted run
// yields, whatever either run's thread count. Streamed runs add `stream.*`
// counters, per-chunk spans and the `mem.peak_rss_bytes` gauge on top, and
// pooled runs per-worker spans; everything else is identical at every chunk
// size and thread count (tests/test_streaming.cpp,
// tests/test_parallel_diff.cpp).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/stream_checkpoint.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "par/thread_pool.hpp"
#include "util/hash.hpp"
#include "zeek/log_stream.hpp"

namespace certchain::core {

namespace {

/// Calls `step(slice)` for each `chunk_bytes` slice of `text`, in order.
template <typename Step>
void for_each_slice(std::string_view text, std::size_t chunk_bytes,
                    Step&& step) {
  for (std::size_t pos = 0; pos < text.size(); pos += chunk_bytes) {
    step(text.substr(pos, chunk_bytes));
  }
}

/// Both stream readers and what a chunk of each does to the joiner and the
/// corpus. Without a pool (or with a one-worker pool) a chunk is fed to its
/// reader, whose callback joins or folds each row as it parses. With one,
/// a chunk is cut into one piece per worker, and:
///   X509  workers parse their pieces and build each row's certificate
///         (zeek::CertificateBuilder, one per piece); the joiner files them
///         here, in row order, so the pool assigns the ids a serial fold
///         does.
///   SSL   workers parse their pieces, resolve each fuid cell once per
///         worker (ChainResolver) and route each row to the owner of its
///         chain (CorpusIndex::owner_of); a chainless row only adds to
///         totals, in the worker's own owner index. Then owner s folds its
///         rows from pieces 0, 1, ... in order into owners_[s].
/// Routed rows are views into the chunk or the reader's carried line, both
/// alive until the owners have folded them. ssl_finish() combines the
/// owners into the run corpus. Worker wall time, summed over chunks, lands
/// in `<stage>.shard<k>` spans under the open span.
class StreamFold {
 public:
  StreamFold(par::ThreadPool* pool, zeek::LogJoiner& joiner,
             CorpusIndex& corpus, obs::RunContext& ctx)
      : pool_(pool != nullptr && pool->size() > 1 ? pool : nullptr),
        workers_(pool_ == nullptr ? 1 : pool_->size()),
        joiner_(joiner),
        corpus_(corpus),
        ctx_(ctx),
        x509_reader_(zeek::make_streaming_x509_reader(
            [&joiner](zeek::X509LogRecord record) {
              joiner.add(std::move(record));
            })),
        ssl_reader_(zeek::make_streaming_ssl_view_reader(
            [&joiner, &corpus](zeek::SslRowView row) {
              corpus.add(joiner, row);
            })) {
    if (pool_ == nullptr) return;
    owners_.resize(workers_);
    routes_.assign(workers_, std::vector<std::vector<RoutedRow>>(workers_));
    for (std::size_t k = 0; k < workers_; ++k) resolvers_.emplace_back(joiner);
    for (std::vector<double>* walls : {&build_ms_, &route_ms_, &fold_ms_}) {
      walls->assign(workers_, 0.0);
    }
  }

  zeek::StreamingX509Reader& x509_reader() { return x509_reader_; }
  zeek::StreamingSslViewReader& ssl_reader() { return ssl_reader_; }

  void x509_chunk(std::string_view chunk) {
    if (pool_ == nullptr) {
      x509_reader_.feed(chunk);
    } else {
      x509_pieces(x509_reader_.split(chunk, kX509PiecesPerWorker * workers_));
    }
  }

  void x509_finish() {
    if (pool_ != nullptr) {
      x509_pieces(x509_reader_.split_tail());
      attach("ingest.x509.build", build_ms_);
    }
    x509_reader_.finish();
  }

  void ssl_chunk(std::string_view chunk) {
    if (pool_ == nullptr) {
      ssl_reader_.feed(chunk);
    } else {
      ssl_pieces(ssl_reader_.split(chunk, workers_));
    }
  }

  /// Flushes the trailing line; with a pool, combines the owners into the
  /// run corpus.
  void ssl_finish() {
    if (pool_ != nullptr) ssl_pieces(ssl_reader_.split_tail());
    ssl_reader_.finish();
    if (pool_ == nullptr) return;
    corpus_.combine(owners_);
    // What is left of the per-worker state is freed on the workers.
    run(workers_, fold_ms_, [this](std::size_t k) {
      owners_[k] = CorpusIndex();
      resolvers_[k] = ChainResolver(joiner_);
      routes_[k] = {};
    });
    owners_.clear();
    attach("ingest.ssl.route", route_ms_);
    attach("ingest.ssl.fold", fold_ms_);
  }

  /// The corpus folded so far, as checkpoints store it: the run corpus
  /// plus, with a pool, the owners it has not absorbed yet.
  std::vector<const CorpusIndex*> corpus_parts() const {
    std::vector<const CorpusIndex*> parts{&corpus_};
    for (const CorpusIndex& owner : owners_) parts.push_back(&owner);
    return parts;
  }

  /// After a checkpoint restored the run corpus: with a pool, its chains
  /// move to their owners, which fold their later rows.
  void resumed() {
    if (pool_ != nullptr) corpus_.hand_off(owners_);
  }

 private:
  using X509Pieces = std::vector<zeek::StreamingX509Reader::Piece>;
  using SslPieces = std::vector<zeek::StreamingSslViewReader::Piece>;

  /// Runs `body(task)` for every task in [0, tasks) on the pool, adding
  /// each task's wall time to `walls[task]`.
  void run(std::size_t tasks, std::vector<double>& walls,
           const std::function<void(std::size_t)>& body) {
    par::parallel_for_chunks(
        pool_, tasks, tasks,
        [&body, &walls](std::size_t task, std::size_t, std::size_t) {
          const obs::Stopwatch watch;
          body(task);
          walls[task] += watch.elapsed_ms();
        });
  }

  void attach(const std::string& stage, const std::vector<double>& walls) {
    for (std::size_t k = 0; k < walls.size(); ++k) {
      ctx_.trace.attach_closed(stage + ".shard" + std::to_string(k), walls[k]);
    }
  }

  /// Workers build the pieces' certificates while this thread files each
  /// piece's, in piece order, as soon as it is built: the joiner's serial
  /// share overlaps the building. This thread frees nothing the workers
  /// allocated, which would contend with their allocations.
  void x509_pieces(X509Pieces pieces) {
    built_.resize(pieces.size());
    std::vector<double> piece_ms(pieces.size(), 0.0);
    pool_->run_ordered(
        pieces.size(),
        [&](std::size_t k) {
          const obs::Stopwatch watch;
          Built& built = built_[k];
          x509_reader_.parse(pieces[k], [&built](zeek::X509LogRecord record) {
            built.certificates.push_back(built.builder.prepare(std::move(record)));
          });
          piece_ms[k] = watch.elapsed_ms();
        },
        [&](std::size_t k) {
          for (zeek::PreparedCertificate& certificate : built_[k].certificates) {
            joiner_.add(certificate);
          }
        });
    x509_reader_.commit(pieces);
    // What the joiner left is freed on the workers, off this thread.
    run(pieces.size(), piece_ms, [this](std::size_t k) { built_[k] = {}; });
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      build_ms_[k % workers_] += piece_ms[k];
    }
  }

  void ssl_pieces(SslPieces pieces) {
    run(pieces.size(), route_ms_, [&](std::size_t k) {
      std::vector<std::vector<RoutedRow>>& routes = routes_[k];
      for (std::vector<RoutedRow>& rows : routes) rows.clear();
      ChainResolver& resolver = resolvers_[k];
      CorpusIndex& chainless = owners_[k];
      ssl_reader_.parse(pieces[k], [&](zeek::SslRowView row) {
        ResolvedChain& chain = resolver.resolve(row.cert_chain_fuids);
        const RoutedRow routed = RoutedRow::of(row, &chain);
        if (!chain.certs.empty()) {
          routes[CorpusIndex::owner_of(chain.id, workers_)].push_back(routed);
        } else {
          chainless.add(routed);
        }
      });
    });
    ssl_reader_.commit(pieces);
    run(workers_, fold_ms_, [&](std::size_t owner) {
      for (std::size_t k = 0; k < pieces.size(); ++k) {
        for (const RoutedRow& row : routes_[k][owner]) owners_[owner].add(row);
      }
    });
  }

  par::ThreadPool* pool_;
  std::size_t workers_;
  zeek::LogJoiner& joiner_;
  CorpusIndex& corpus_;
  obs::RunContext& ctx_;
  zeek::StreamingX509Reader x509_reader_;
  zeek::StreamingSslViewReader ssl_reader_;
  /// X509 chunks are cut finer than SSL ones, so the first pieces are
  /// ready to file while the rest still build.
  static constexpr std::size_t kX509PiecesPerWorker = 4;

  /// X509 piece k's builder and the certificates it prepared.
  struct Built {
    zeek::CertificateBuilder builder;
    std::vector<zeek::PreparedCertificate> certificates;
  };

  // Pool only: one slot per X509 piece; and one per worker for SSL piece k's
  // resolver and its rows by owner (routes_[k][owner]) and for owner s's
  // index.
  std::vector<Built> built_;
  std::vector<ChainResolver> resolvers_;
  std::vector<std::vector<std::vector<RoutedRow>>> routes_;
  std::vector<CorpusIndex> owners_;
  std::vector<double> build_ms_;
  std::vector<double> route_ms_;
  std::vector<double> fold_ms_;
};

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

/// Streamed inputs: both streams pulled `chunk_bytes` at a time into
/// `fold`, with checkpoint/resume.
IngestReport fold_sources(LogSource& ssl_source, LogSource& x509_source,
                          const RunOptions& options, std::size_t chunk_bytes,
                          StreamFold& fold, zeek::LogJoiner& joiner,
                          CorpusIndex& corpus, obs::RunContext& ctx) {
  ctx.set_config("stream.ssl_source", ssl_source.name());
  ctx.set_config("stream.x509_source", x509_source.name());
  ctx.set_config("stream.chunk_bytes", static_cast<std::uint64_t>(chunk_bytes));
  const bool checkpointing = !options.checkpoint_path.empty();

  // Reads `source` to its end, handing each chunk to `step`; each chunk
  // extends `digest` (when checkpointing), is counted, gets an
  // `ingest.<stream>.chunk<k>` span, and then runs `after_chunk()`.
  std::string buffer;
  const auto pump = [&](LogSource& source, const auto& step,
                        const std::string& stream, std::uint64_t& digest,
                        std::uint64_t& chunks, const auto& after_chunk) {
    while (true) {
      const obs::Stopwatch watch;
      const std::size_t got = source.read(buffer, chunk_bytes);
      if (got == 0) break;
      if (checkpointing) digest = util::fnv1a64_continue(digest, buffer);
      step(buffer);
      ctx.metrics.count("stream.chunk." + stream);
      ctx.metrics.count("stream.chunk." + stream + "_bytes", got);
      ctx.trace.attach_closed("ingest." + stream + ".chunk" + std::to_string(chunks++),
                              watch.elapsed_ms());
      after_chunk();
    }
  };

  std::uint64_t x509_digest = util::fnv1a64({});
  {
    obs::StageTimer timer(ctx, "join");
    std::uint64_t chunks = 0;
    pump(x509_source, [&fold](std::string_view chunk) { fold.x509_chunk(chunk); },
         "x509", x509_digest, chunks, [] {});
    fold.x509_finish();
  }

  zeek::StreamingSslViewReader& ssl_reader = fold.ssl_reader();
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
        fold.resumed();
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

  pump(ssl_source, [&fold](std::string_view chunk) { fold.ssl_chunk(chunk); },
       "ssl", ssl_digest, chunks_done, [&] {
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
                                     fold.corpus_parts())) {
           ctx.metrics.count("stream.checkpoint.written");
         }
       });
  // The trailing unterminated line may still hold a record.
  fold.ssl_finish();
  IngestReport ingest =
      account_streams(ssl_reader.checkpoint(), fold.x509_reader().checkpoint(),
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
                        obs::RunContext& ctx, par::ThreadPool* pool) {
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
      StreamFold fold(pool, joiner, corpus, ctx);
      {
        obs::StageTimer timer(ctx, "join");
        for_each_slice(input.x509_text(), chunk_bytes,
                       [&fold](std::string_view slice) { fold.x509_chunk(slice); });
        fold.x509_finish();
      }
      for_each_slice(input.ssl_text(), chunk_bytes,
                     [&fold](std::string_view slice) { fold.ssl_chunk(slice); });
      fold.ssl_finish();
      return account_streams(fold.ssl_reader().checkpoint(),
                             fold.x509_reader().checkpoint(),
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
      StreamFold fold(pool, joiner, corpus, ctx);
      return fold_sources(*ssl, *x509, options, chunk_bytes, fold, joiner,
                          corpus, ctx);
    }
  }
  throw IngestError(IngestError::Cause::kUnreadableSource,
                    "unknown StudyInput kind");
}

}  // namespace certchain::core
