// StudyInput: one value describing where a study run's data comes from.
//
// PR 3 left StudyPipeline with six run/run_from_text overloads; this wrapper
// collapses them behind the single entry point
// `StudyPipeline::run(const StudyInput&, const RunOptions&, obs::RunContext*)`
// (DESIGN.md §11). An input is one of:
//
//   records  — already-parsed SSL/X509 rows (or a netsim::GeneratedLogs),
//              held by reference; no ingestion accounting.
//   text     — raw Zeek log text resident in memory; the full
//              parse -> join -> analyze path with ingest accounting.
//   sources  — two LogSource streams consumed chunk by chunk through the
//              bounded-memory streaming engine (checkpointable).
//   files    — paths opened as FileLogSources when folded; a path that
//              cannot be opened raises IngestError from run() (and from
//              svc::ServiceState::load, which folds through the same
//              core::fold_input).
//
// Referenced records/text must outlive the run() call (they are not copied).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/log_source.hpp"
#include "netsim/simulator.hpp"
#include "zeek/records.hpp"

namespace certchain::core {

class StudyInput {
 public:
  enum class Kind { kRecords, kText, kSources, kFiles };

  static StudyInput records(const std::vector<zeek::SslLogRecord>& ssl,
                            const std::vector<zeek::X509LogRecord>& x509) {
    StudyInput input(Kind::kRecords);
    input.ssl_records_ = &ssl;
    input.x509_records_ = &x509;
    return input;
  }

  static StudyInput records(const netsim::GeneratedLogs& logs) {
    return records(logs.ssl, logs.x509);
  }

  static StudyInput text(std::string_view ssl_log_text,
                         std::string_view x509_log_text) {
    StudyInput input(Kind::kText);
    input.ssl_text_ = ssl_log_text;
    input.x509_text_ = x509_log_text;
    return input;
  }

  static StudyInput sources(std::shared_ptr<LogSource> ssl,
                            std::shared_ptr<LogSource> x509) {
    StudyInput input(Kind::kSources);
    input.ssl_source_ = std::move(ssl);
    input.x509_source_ = std::move(x509);
    return input;
  }

  static StudyInput files(std::string ssl_path, std::string x509_path) {
    StudyInput input(Kind::kFiles);
    input.ssl_path_ = std::move(ssl_path);
    input.x509_path_ = std::move(x509_path);
    return input;
  }

  Kind kind() const { return kind_; }
  bool streamed() const {
    return kind_ == Kind::kSources || kind_ == Kind::kFiles;
  }

  // kRecords accessors.
  const std::vector<zeek::SslLogRecord>& ssl_records() const {
    return *ssl_records_;
  }
  const std::vector<zeek::X509LogRecord>& x509_records() const {
    return *x509_records_;
  }

  // kText accessors.
  std::string_view ssl_text() const { return ssl_text_; }
  std::string_view x509_text() const { return x509_text_; }

  // kSources / kFiles: materializes the stream (files are opened here).
  // Returns nullptr when a file path cannot be opened — the fold converts
  // that into an IngestError naming the path.
  std::shared_ptr<LogSource> open_ssl_source() const {
    return open_source(ssl_source_, ssl_path_);
  }
  std::shared_ptr<LogSource> open_x509_source() const {
    return open_source(x509_source_, x509_path_);
  }
  const std::string& ssl_path() const { return ssl_path_; }
  const std::string& x509_path() const { return x509_path_; }

  /// Short description for telemetry config ("records", "text", ...).
  std::string_view describe() const {
    switch (kind_) {
      case Kind::kRecords: return "records";
      case Kind::kText: return "text";
      case Kind::kSources: return "sources";
      case Kind::kFiles: return "files";
    }
    return "unknown";
  }

 private:
  explicit StudyInput(Kind kind) : kind_(kind) {}

  static std::shared_ptr<LogSource> open_source(
      const std::shared_ptr<LogSource>& source, const std::string& path) {
    if (source != nullptr) return source;
    return std::shared_ptr<LogSource>(open_file_source(path));
  }

  Kind kind_;
  const std::vector<zeek::SslLogRecord>* ssl_records_ = nullptr;
  const std::vector<zeek::X509LogRecord>* x509_records_ = nullptr;
  std::string_view ssl_text_;
  std::string_view x509_text_;
  std::shared_ptr<LogSource> ssl_source_;
  std::shared_ptr<LogSource> x509_source_;
  std::string ssl_path_;
  std::string x509_path_;
};

}  // namespace certchain::core
