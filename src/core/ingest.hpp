// Ingestion quality accounting and degradation policy.
//
// Twelve months of real border-gateway logs do not arrive clean: rows get
// cut at rotation boundaries, disks corrupt bytes, exporters crash
// mid-line. The pipeline therefore ingests in one of two modes. Lenient
// (the measurement-study default) skips damaged lines, keeps exact counts
// of what was dropped, and reports them in the study output — the paper's
// discipline of stating exclusions next to results. Strict surfaces the
// first damaged line as an IngestError instead, for callers that treat any
// damage as a data-collection bug. The engine parses X509 before SSL, but
// accounts SSL first: when both streams are damaged, the SSL stream's first
// error is the one raised, at every thread count and chunk size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace certchain::core {

enum class IngestMode : std::uint8_t {
  kStrict,   // first malformed line aborts ingestion with IngestError
  kLenient,  // malformed lines are counted and skipped
};

std::string_view ingest_mode_name(IngestMode mode);

/// Ingestion policy. How many bytes reach the readers at a time is an
/// execution choice, not a policy one: RunOptions::chunk_bytes.
struct IngestOptions {
  IngestMode mode = IngestMode::kLenient;
};

/// Raised by strict-mode ingestion on the first damaged line.
class IngestError : public std::runtime_error {
 public:
  explicit IngestError(const std::string& message) : std::runtime_error(message) {}
};

/// Per-stream line accounting. The numbers originate in the stream's
/// reader, are published as `ingest.<stream>.*` registry counters, and this
/// struct is then filled back FROM those counters — so the report's
/// data-quality section and the metrics export can never disagree.
struct IngestStreamStats {
  std::size_t bytes = 0;            // raw bytes consumed from the stream
  std::size_t lines = 0;
  std::size_t records = 0;
  std::size_t malformed_rows = 0;   // body rows that failed to parse
  std::size_t skipped_lines = 0;    // malformed rows + header/layout skips
  std::size_t rotations = 0;
};

/// What ingestion saw, kept alongside the analysis results so every report
/// can state the quality of the data it was computed from.
struct IngestReport {
  bool populated = false;  // true for text/sources/files runs (raw input seen)
  IngestMode mode = IngestMode::kLenient;

  IngestStreamStats ssl;
  IngestStreamStats x509;

  /// Capped sample of line-level errors ("ssl line 17: wrong column count").
  std::vector<std::string> sample_errors;
  static constexpr std::size_t kMaxSampleErrors = 16;

  std::size_t skipped_total() const {
    return ssl.skipped_lines + x509.skipped_lines;
  }
  bool clean() const { return skipped_total() == 0; }
};

}  // namespace certchain::core
