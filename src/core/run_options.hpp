// Execution options for StudyPipeline::run.
//
// One options struct covers the whole execution envelope: ingestion policy,
// worker count, the chunk size every raw-text input is fed in, and the
// checkpoint path that only applies when the input is a LogSource. Keeping
// them together lets callers configure a run once instead of choosing among
// overloads (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <string>

#include "core/ingest.hpp"

namespace certchain::core {

struct RunOptions {
  IngestOptions ingest;

  /// Worker count: 1 (default) runs everything on the calling thread; 0
  /// resolves to hardware concurrency; N > 1 runs the raw-text fold and the
  /// analysis stages on N workers: each chunk's lines are parsed N-way, SSL
  /// rows folded by the worker that owns their chain, and the analysis
  /// sharded, all with deterministic merges (DESIGN.md §10). Any value
  /// produces byte-identical reports, corpora, checkpoints and
  /// deterministic metrics — the contract the parallel-diff suite enforces.
  std::size_t threads = 1;

  /// Bytes handed to the log readers at a time, for every raw-text input:
  /// LogSource inputs pull this much per read (each chunk is parsed, joined,
  /// and folded into the corpus before the next is read, so peak residency
  /// is O(chunk) + the deduplicated corpus state, not O(total log bytes)),
  /// and in-memory text is fed in slices of this size (readers parse lines
  /// in place, so a slice is never copied). 0 falls back to the default.
  /// The report is byte-identical at every chunk size.
  std::size_t chunk_bytes = kDefaultChunkBytes;
  static constexpr std::size_t kDefaultChunkBytes = 4 * 1024 * 1024;

  /// When non-empty, streamed runs write a versioned fold snapshot
  /// (certchain.stream.checkpoint) to this path after every chunk and, if
  /// the file already exists and matches the inputs, resume from it instead
  /// of starting over. The file is removed on successful completion. Ignored
  /// for in-memory inputs.
  std::string checkpoint_path;
};

}  // namespace certchain::core
