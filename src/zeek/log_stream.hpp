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

#include <algorithm>
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
///
/// A chunk can also be parsed in pieces, on several threads (DESIGN.md
/// §10.2): split() cuts its complete lines into line-aligned pieces, each
/// primed with the header state its first line sees; parse() runs one piece
/// with piece-local counters and errors; commit() adds the pieces up in
/// order. The reader then stands exactly where feed() of the same bytes
/// would have left it.
template <typename Record>
class StreamingLogReader {
 public:
  using Callback = std::function<void(Record)>;
  using LineError = ReaderLineError;

  /// One line-aligned piece of a fed chunk.
  struct Piece {
    /// Piece 0 only: the line completed across feeds, which comes first.
    std::string_view carried;
    std::string_view lines;  // complete lines, each ending in '\n'
    /// In: the header state at the piece's start. Out: what parsing the
    /// piece saw, with line numbers counted from the piece's start.
    ReaderCheckpoint state;
  };

  StreamingLogReader(std::string expected_fields, Callback callback)
      : expected_fields_(std::move(expected_fields)),
        callback_(std::move(callback)) {}

  /// Attaches a DN pool: every record fed through feed()/finish() gets its
  /// subject/issuer interned (intern_dn_fields) before the callback sees
  /// it. Not part of checkpoint state — a restored reader re-attaches its
  /// pool. parse() never interns.
  void set_dn_pool(core::DnPool* pool) { dn_pool_ = pool; }

  /// Feeds a chunk of bytes. Complete lines are parsed in place, straight
  /// out of `chunk`; only a line split across feeds is assembled in the
  /// reader's buffer, and the unterminated tail is kept for the next feed.
  void feed(std::string_view chunk) {
    state_.bytes_consumed += chunk.size();
    const auto emit = [this](Record record) { deliver(std::move(record)); };
    std::size_t start = 0;
    if (!state_.buffer.empty()) {
      const std::size_t newline = chunk.find('\n');
      if (newline == std::string_view::npos) {
        state_.buffer.append(chunk);
        return;
      }
      state_.buffer.append(chunk.substr(0, newline));
      consume_line(state_, state_.buffer, emit);
      state_.buffer.clear();
      start = newline + 1;
    }
    while (true) {
      const std::size_t newline = chunk.find('\n', start);
      if (newline == std::string_view::npos) break;
      consume_line(state_, chunk.substr(start, newline - start), emit);
      start = newline + 1;
    }
    state_.buffer.assign(chunk.substr(start));
  }

  /// feed()'s first half: takes `chunk` in (its bytes are consumed and its
  /// unterminated tail is kept) and returns its complete lines as at most
  /// `max_pieces` line-aligned pieces, empty ones left out. The carried
  /// line, completed, opens piece 0 and lives in the reader until the next
  /// split; views parsed out of the pieces point into it or into `chunk`.
  std::vector<Piece> split(std::string_view chunk, std::size_t max_pieces) {
    state_.bytes_consumed += chunk.size();
    carried_.clear();
    std::size_t start = 0;
    if (!state_.buffer.empty()) {
      const std::size_t newline = chunk.find('\n');
      if (newline == std::string_view::npos) {
        state_.buffer.append(chunk);
        return {};
      }
      carried_.swap(state_.buffer);
      carried_.append(chunk.substr(0, newline));
      start = newline + 1;
    }
    const std::size_t last = chunk.rfind('\n');
    const std::size_t end =
        last == std::string_view::npos ? start : std::max(start, last + 1);
    const std::string_view body = chunk.substr(start, end - start);
    state_.buffer.assign(chunk.substr(end));

    std::vector<Piece> pieces;
    bool in_body = state_.in_body;
    std::size_t begin = 0;
    for (std::size_t k = 0; k < max_pieces; ++k) {
      std::size_t cut = body.size();
      if (k + 1 < max_pieces) {
        // Even-split target, moved on to the next line start. `body` ends
        // with a newline, so the search always succeeds.
        const std::size_t target = (k + 1) * body.size() / max_pieces;
        cut = target <= begin ? begin : body.find('\n', target - 1) + 1;
      }
      Piece piece;
      if (k == 0) piece.carried = carried_;
      piece.lines = body.substr(begin, cut - begin);
      begin = cut;
      if (piece.carried.empty() && piece.lines.empty()) continue;
      piece.state.in_body = in_body;
      in_body = header_state_after(piece.lines,
                                   header_state_after(piece.carried, in_body));
      pieces.push_back(std::move(piece));
    }
    return pieces;
  }

  /// finish()'s first half: the trailing unterminated line, if any, as the
  /// carried line of a single piece. Call finish() after its commit().
  std::vector<Piece> split_tail() {
    std::vector<Piece> pieces;
    carried_.clear();
    if (state_.buffer.empty()) return pieces;
    carried_.swap(state_.buffer);
    Piece& piece = pieces.emplace_back();
    piece.carried = carried_;
    piece.state.in_body = state_.in_body;
    return pieces;
  }

  /// Parses one split() piece, calling `emit(record)` per record in line
  /// order. Reads only the field layout, so distinct pieces may be parsed
  /// on distinct threads at once.
  template <typename Emit>
  void parse(Piece& piece, Emit&& emit) const {
    if (!piece.carried.empty()) consume_line(piece.state, piece.carried, emit);
    const std::string_view lines = piece.lines;
    for (std::size_t start = 0; start < lines.size();) {
      const std::size_t newline = lines.find('\n', start);
      consume_line(piece.state, lines.substr(start, newline - start), emit);
      start = newline + 1;
    }
  }

  /// Adds parsed pieces, in piece order, to the reader's state: counters,
  /// errors renumbered to stream lines (kept up to the cap, in order), and
  /// the header state the last piece left.
  void commit(const std::vector<Piece>& pieces) {
    for (const Piece& piece : pieces) {
      const ReaderCheckpoint& part = piece.state;
      const std::size_t first_line = state_.line_offset + state_.lines_seen;
      for (const LineError& error : part.errors) {
        if (state_.errors.size() >= kMaxRecordedErrors) break;
        state_.errors.push_back(
            LineError{first_line + error.line_number, error.message});
      }
      state_.lines_seen += part.lines_seen;
      state_.records_emitted += part.records_emitted;
      state_.lines_skipped += part.lines_skipped;
      state_.malformed_rows += part.malformed_rows;
      state_.rotations_seen += part.rotations_seen;
      state_.in_body = part.in_body;
    }
  }

  /// Flushes a trailing unterminated line and resets the header state so the
  /// same reader instance can consume a fresh stream afterwards. Counters
  /// and recorded errors accumulate across streams (callers snapshot or
  /// construct a new reader for per-stream accounting).
  void finish() {
    if (!state_.buffer.empty()) {
      const auto emit = [this](Record record) { deliver(std::move(record)); };
      consume_line(state_, state_.buffer, emit);
      state_.buffer.clear();
    }
    state_.in_body = false;
  }

  std::size_t lines_seen() const { return state_.lines_seen; }
  /// Total bytes fed into the reader (all chunks, including damage).
  std::size_t bytes_consumed() const { return state_.bytes_consumed; }
  std::size_t records_emitted() const { return state_.records_emitted; }
  /// Every line that was dropped: unknown headers, pre-header data, and
  /// malformed body rows.
  std::size_t lines_skipped() const { return state_.lines_skipped; }
  /// Subset of lines_skipped(): body rows that failed to parse.
  std::size_t malformed_rows() const { return state_.malformed_rows; }
  std::size_t rotations_seen() const { return state_.rotations_seen; }

  /// Capped sample of parse failures, in stream order.
  const std::vector<LineError>& errors() const { return state_.errors; }
  static constexpr std::size_t kMaxRecordedErrors = 32;

  /// Snapshots the reader's full state at a feed() boundary (checkpointing).
  ReaderCheckpoint checkpoint() const { return state_; }

  /// Restores a checkpoint() snapshot. Call before the first feed(); the
  /// reader then continues the stream as if it had consumed the prefix.
  void restore(const ReaderCheckpoint& state) { state_ = state; }

 private:
  void deliver(Record record) {
    if constexpr (!std::is_same_v<Record, SslRowView>) {  // views carry no ids
      if (dn_pool_ != nullptr) intern_dn_fields(record, *dn_pool_);
    }
    callback_(std::move(record));
  }

  /// The one line rule: header directives, then body rows. Updates `state`
  /// and hands each parsed record to `emit`.
  template <typename Emit>
  void consume_line(ReaderCheckpoint& state, std::string_view line,
                    Emit& emit) const {
    ++state.lines_seen;
    if (line.empty()) return;
    if (line.front() == '#') {
      if (line.rfind("#close", 0) == 0) {
        // Rotation boundary: the next file announces its own header.
        ++state.rotations_seen;
        state.in_body = false;
      } else if (line.rfind("#fields\t", 0) == 0) {
        state.in_body = (line.substr(8) == expected_fields_);
        if (!state.in_body) {
          ++state.lines_skipped;
          record_line_error(state, "unknown #fields layout");
        }
      }
      return;
    }
    if (!state.in_body) {
      ++state.lines_skipped;
      record_line_error(state, "data before a recognized #fields header");
      return;
    }
    std::string error;
    if (auto record = parse_row(line, &error)) {
      ++state.records_emitted;
      emit(*std::move(record));
    } else {
      ++state.lines_skipped;
      ++state.malformed_rows;
      record_line_error(state, std::move(error));
    }
  }

  /// The header state after `lines` (consume_line's directive rule alone),
  /// starting from `in_body`. Directive lines are rare, so this jumps
  /// between '#' bytes rather than walking every line.
  bool header_state_after(std::string_view lines, bool in_body) const {
    for (std::size_t at = lines.find('#'); at != std::string_view::npos;
         at = lines.find('#', at + 1)) {
      if (at != 0 && lines[at - 1] != '\n') continue;
      const std::string_view line =
          lines.substr(at, lines.find('\n', at) - at);
      if (line.rfind("#close", 0) == 0) {
        in_body = false;
      } else if (line.rfind("#fields\t", 0) == 0) {
        in_body = (line.substr(8) == expected_fields_);
      }
    }
    return in_body;
  }

  static void record_line_error(ReaderCheckpoint& state, std::string message) {
    if (state.errors.size() >= kMaxRecordedErrors) return;
    state.errors.push_back(
        LineError{state.line_offset + state.lines_seen, std::move(message)});
  }

  static std::optional<Record> parse_row(std::string_view line,
                                         std::string* error);

  std::string expected_fields_;
  Callback callback_;
  core::DnPool* dn_pool_ = nullptr;
  ReaderCheckpoint state_;
  std::string carried_;  // the line split() completed, until the next split
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
