// Versioned stream-checkpoint snapshots (DESIGN.md §11).
//
// The streamed fold consumes the SSL stream chunk by chunk; after each chunk
// the complete fold state — the corpus folded so far, SSL reader state,
// ingest frontier, chunk accounting — is a small, serializable value. A
// StreamCheckpoint captures it, obs::json carries it to disk under the
// schema `certchain.stream.checkpoint` v1, and a killed run resumes from the
// last chunk boundary instead of starting over. The X509 phase is never
// checkpointed: X509.log is one row per distinct certificate (orders of
// magnitude smaller than SSL.log), so resume re-ingests it from scratch and
// verifies the stream digest recorded here to reject snapshots taken against
// different inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "core/ingest.hpp"
#include "zeek/log_stream.hpp"

namespace certchain::core {

inline constexpr std::string_view kStreamCheckpointSchema =
    "certchain.stream.checkpoint";
inline constexpr int kStreamCheckpointVersion = 1;

struct StreamCheckpoint {
  IngestMode mode = IngestMode::kLenient;

  /// FNV-1a over every X509 source byte; resume recomputes it from its own
  /// X509 ingest and refuses to continue on mismatch.
  std::uint64_t x509_digest = 0;
  /// Running FNV-1a over the SSL bytes consumed so far (carried forward so
  /// the completed run can report a whole-stream digest).
  std::uint64_t ssl_digest_state = 0;

  /// Byte offset the SSL source resumes reading at.
  std::uint64_t ssl_offset = 0;
  /// Chunks folded so far (continues the `stream.chunk.ssl` counter).
  std::uint64_t chunks_done = 0;

  zeek::ReaderCheckpoint ssl_reader;
};

/// Serializes checkpoint + corpus into the schema-versioned JSON document.
std::string encode_stream_checkpoint(const StreamCheckpoint& checkpoint,
                                     const CorpusIndex& corpus);
/// The same for a corpus held as indexes with disjoint chains (a parallel
/// fold's owners, CorpusIndex::write_snapshot): the bytes their combine
/// would encode.
std::string encode_stream_checkpoint(
    const StreamCheckpoint& checkpoint,
    const std::vector<const CorpusIndex*>& corpus_parts);

/// Parses a checkpoint document and restores the corpus through
/// `by_fingerprint` (see CorpusIndex::restore_snapshot). Returns nullopt
/// with `error` set on schema/version mismatch or malformed content.
std::optional<StreamCheckpoint> decode_stream_checkpoint(
    std::string_view text, const zeek::CertificateIndex& by_fingerprint,
    CorpusIndex& corpus, std::string* error);

/// File helpers. Writes are atomic-enough for the single-writer case (write
/// to `<path>.tmp`, then rename). Returns false on I/O failure.
bool write_stream_checkpoint(const std::string& path,
                             const StreamCheckpoint& checkpoint,
                             const CorpusIndex& corpus);
bool write_stream_checkpoint(
    const std::string& path, const StreamCheckpoint& checkpoint,
    const std::vector<const CorpusIndex*>& corpus_parts);
std::optional<std::string> read_file_text(const std::string& path);

/// Atomic-enough whole-file replace for the single-writer case: writes
/// `<path>.tmp`, fsyncs it, renames over `path`, then fsyncs the containing
/// directory (best-effort). The svc snapshot and WAL compaction reuse this
/// (DESIGN.md §13); a crash — process kill or power loss — leaves either
/// the old file or the complete new one, never a torn mix.
bool write_file_atomic(const std::string& path, std::string_view text);

}  // namespace certchain::core
