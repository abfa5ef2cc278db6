// Incremental Zeek log consumption.
//
// The paper's logs were "streamed to a secure cluster" (§3.1): consumers see
// the files grow chunk by chunk, lines split across reads, and rotation
// boundaries (#close followed by a fresh header). StreamingSslReader /
// StreamingX509Reader parse that stream incrementally, emitting records via
// callback as soon as their line completes, and survive rotation without
// losing rows. Complete lines are parsed where they lie in the fed chunk;
// only a line split across two feeds is copied, into a buffer that holds
// that one line. StreamingSslViewReader hands its rows over as SslRowView
// (views, no per-row allocation), the form the study fold consumes. Damage
// never throws: malformed body rows are counted (with a capped sample of
// line-level errors) and the stream keeps flowing, which is what the
// pipeline's lenient ingestion mode reports on.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "zeek/log_io.hpp"
#include "zeek/records.hpp"

namespace certchain::zeek {

/// A recorded parse failure ("what went wrong on which line").
struct ReaderLineError {
  std::size_t line_number = 0;  // 1-based within the stream
  std::string message;
};

/// The complete mutable state of a StreamingLogReader at a feed() boundary:
/// the unterminated line tail, the header state, and every counter and
/// recorded error. Serializing this (plus the source byte offset) is all a
/// stream checkpoint needs to resume parsing exactly where a killed run
/// stopped — the restored reader is indistinguishable from one that consumed
/// the whole prefix itself (DESIGN.md §11).
struct ReaderCheckpoint {
  std::string buffer;  // pending partial line
  bool in_body = false;
  std::size_t line_offset = 0;
  std::size_t bytes_consumed = 0;
  std::size_t lines_seen = 0;
  std::size_t records_emitted = 0;
  std::size_t lines_skipped = 0;
  std::size_t malformed_rows = 0;
  std::size_t rotations_seen = 0;
  std::vector<ReaderLineError> errors;
};

/// Incremental line assembler + per-kind row parser. The callback is invoked
/// once per successfully parsed record, in stream order. A view record
/// (SslRowView) points into the fed chunk or the reader's split-line
/// buffer, so it is valid only until the callback returns.
template <typename Record>
class StreamingLogReader {
 public:
  using Callback = std::function<void(Record)>;
  using LineError = ReaderLineError;

  StreamingLogReader(std::string expected_fields, Callback callback)
      : expected_fields_(std::move(expected_fields)),
        callback_(std::move(callback)) {}

  /// Attaches a DN pool: every emitted record gets its subject/issuer
  /// interned (intern_dn_fields) before the callback sees it. Not part of
  /// checkpoint state — a restored reader re-attaches its pool.
  void set_dn_pool(core::DnPool* pool) { dn_pool_ = pool; }

  /// Feeds a chunk of bytes. Complete lines are parsed in place, straight
  /// out of `chunk`; only a line split across feeds is assembled in the
  /// reader's buffer, and the unterminated tail is kept for the next feed.
  void feed(std::string_view chunk) {
    bytes_consumed_ += chunk.size();
    std::size_t start = 0;
    if (!buffer_.empty()) {
      const std::size_t newline = chunk.find('\n');
      if (newline == std::string_view::npos) {
        buffer_.append(chunk);
        return;
      }
      buffer_.append(chunk.substr(0, newline));
      consume_line(buffer_);
      buffer_.clear();
      start = newline + 1;
    }
    while (true) {
      const std::size_t newline = chunk.find('\n', start);
      if (newline == std::string_view::npos) break;
      consume_line(chunk.substr(start, newline - start));
      start = newline + 1;
    }
    buffer_.assign(chunk.substr(start));
  }

  /// Flushes a trailing unterminated line and resets the header state so the
  /// same reader instance can consume a fresh stream afterwards. Counters
  /// and recorded errors accumulate across streams (callers snapshot or
  /// construct a new reader for per-stream accounting).
  void finish() {
    if (!buffer_.empty()) {
      consume_line(buffer_);
      buffer_.clear();
    }
    in_body_ = false;
  }

  std::size_t lines_seen() const { return lines_seen_; }
  /// Total bytes fed into the reader (all chunks, including damage).
  std::size_t bytes_consumed() const { return bytes_consumed_; }
  std::size_t records_emitted() const { return records_emitted_; }
  /// Every line that was dropped: unknown headers, pre-header data, and
  /// malformed body rows.
  std::size_t lines_skipped() const { return lines_skipped_; }
  /// Subset of lines_skipped(): body rows that failed to parse.
  std::size_t malformed_rows() const { return malformed_rows_; }
  std::size_t rotations_seen() const { return rotations_seen_; }

  /// Capped sample of parse failures, in stream order.
  const std::vector<LineError>& errors() const { return errors_; }
  static constexpr std::size_t kMaxRecordedErrors = 32;

  /// Snapshots the reader's full state at a feed() boundary (checkpointing).
  ReaderCheckpoint checkpoint() const {
    ReaderCheckpoint state;
    state.buffer = buffer_;
    state.in_body = in_body_;
    state.line_offset = line_offset_;
    state.bytes_consumed = bytes_consumed_;
    state.lines_seen = lines_seen_;
    state.records_emitted = records_emitted_;
    state.lines_skipped = lines_skipped_;
    state.malformed_rows = malformed_rows_;
    state.rotations_seen = rotations_seen_;
    state.errors = errors_;
    return state;
  }

  /// Restores a checkpoint() snapshot. Call before the first feed(); the
  /// reader then continues the stream as if it had consumed the prefix.
  void restore(const ReaderCheckpoint& state) {
    buffer_ = state.buffer;
    in_body_ = state.in_body;
    line_offset_ = state.line_offset;
    bytes_consumed_ = state.bytes_consumed;
    lines_seen_ = state.lines_seen;
    records_emitted_ = state.records_emitted;
    lines_skipped_ = state.lines_skipped;
    malformed_rows_ = state.malformed_rows;
    rotations_seen_ = state.rotations_seen;
    errors_ = state.errors;
  }

 private:
  void consume_line(std::string_view line) {
    ++lines_seen_;
    if (line.empty()) return;
    if (line.front() == '#') {
      if (line.rfind("#close", 0) == 0) {
        // Rotation boundary: the next file announces its own header.
        ++rotations_seen_;
        in_body_ = false;
      } else if (line.rfind("#fields\t", 0) == 0) {
        in_body_ = (line.substr(8) == expected_fields_);
        if (!in_body_) {
          ++lines_skipped_;
          record_line_error("unknown #fields layout");
        }
      }
      return;
    }
    if (!in_body_) {
      ++lines_skipped_;
      record_line_error("data before a recognized #fields header");
      return;
    }
    std::string error;
    if (auto record = parse_row(line, &error)) {
      ++records_emitted_;
      if constexpr (!std::is_same_v<Record, SslRowView>) {  // views carry no ids
        if (dn_pool_ != nullptr) intern_dn_fields(*record, *dn_pool_);
      }
      callback_(*std::move(record));
    } else {
      ++lines_skipped_;
      ++malformed_rows_;
      record_line_error(error);
    }
  }

  void record_line_error(std::string message) {
    if (errors_.size() >= kMaxRecordedErrors) return;
    errors_.push_back(LineError{line_offset_ + lines_seen_, std::move(message)});
  }

  std::optional<Record> parse_row(std::string_view line, std::string* error);

  std::string expected_fields_;
  Callback callback_;
  core::DnPool* dn_pool_ = nullptr;
  std::string buffer_;
  bool in_body_ = false;
  std::size_t line_offset_ = 0;
  std::size_t bytes_consumed_ = 0;
  std::size_t lines_seen_ = 0;
  std::size_t records_emitted_ = 0;
  std::size_t lines_skipped_ = 0;
  std::size_t malformed_rows_ = 0;
  std::size_t rotations_seen_ = 0;
  std::vector<LineError> errors_;
};

/// Field layouts matching the writers in log_io.cpp.
std::string ssl_log_fields();
std::string x509_log_fields();

using StreamingSslReader = StreamingLogReader<SslLogRecord>;
using StreamingSslViewReader = StreamingLogReader<SslRowView>;
using StreamingX509Reader = StreamingLogReader<X509LogRecord>;

/// Factory helpers wiring the expected field layouts.
StreamingSslReader make_streaming_ssl_reader(StreamingSslReader::Callback callback);
/// The SSL reader the study fold uses: rows reach the callback as views,
/// with no per-row allocation.
StreamingSslViewReader make_streaming_ssl_view_reader(
    StreamingSslViewReader::Callback callback);
StreamingX509Reader make_streaming_x509_reader(StreamingX509Reader::Callback callback);

}  // namespace certchain::zeek
