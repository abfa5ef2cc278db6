// Byte sources for the streaming execution engine.
//
// At production scale the corpus is tens of GB of Zeek logs; requiring it
// resident in one std::string is what PR 4 removes. A LogSource hands the
// pipeline the input in caller-sized chunks — from memory, from a file, or
// from anything a callback can produce — and supports repositioning so a
// checkpointed run can resume at the last chunk boundary. The streamed
// report is byte-identical to the in-memory run no matter which source or
// chunk size delivered the bytes (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace certchain::core {

class LogSource {
 public:
  virtual ~LogSource() = default;

  /// Human-readable origin ("<memory>", a file path) for telemetry/config.
  virtual std::string_view name() const = 0;

  /// Total size in bytes when known, 0 otherwise (telemetry only — the
  /// engine never preallocates from it).
  virtual std::uint64_t size_hint() const { return 0; }

  /// Repositions the next read() at absolute byte `offset` (checkpoint
  /// resume). Returns false when the source cannot seek or the offset is out
  /// of range.
  virtual bool seek(std::uint64_t offset) = 0;

  /// Reads up to `max_bytes` into `out` (replacing its contents). Returns
  /// the number of bytes read; 0 means end of stream.
  virtual std::size_t read(std::string& out, std::size_t max_bytes) = 0;
};

/// In-memory source over a caller-owned buffer (the view must outlive the
/// source). The bridge from the historical string_view entry points.
std::unique_ptr<LogSource> make_text_source(std::string_view text,
                                            std::string name = "<memory>");

/// File-backed source reading in chunks. Returns nullptr when the file
/// cannot be opened.
std::unique_ptr<LogSource> open_file_source(const std::string& path);

/// Pull-callback source: `producer(out, max_bytes)` fills `out` and returns
/// the byte count (0 = EOF). Seeking is unsupported (seek(0) alone succeeds,
/// by re-invoking `rewind` when provided). Used by tests and adapters that
/// generate or transform a stream on the fly.
std::unique_ptr<LogSource> make_function_source(
    std::function<std::size_t(std::string&, std::size_t)> producer,
    std::string name = "<function>", std::function<void()> rewind = nullptr);

}  // namespace certchain::core
