// The benchmark corpus: one seeded study scenario, its Zeek log pair (in
// memory and on disk), and the reference analysis every correctness gate
// compares against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "datagen/scenario.hpp"

namespace perfbench {

struct Corpus {
  std::uint64_t seed = 0;
  std::string workdir;
  std::unique_ptr<certchain::datagen::Scenario> scenario;
  certchain::netsim::GeneratedLogs logs;
  std::string ssl_text;
  std::string x509_text;
  std::string ssl_path;
  std::string x509_path;
  std::uint64_t rows = 0;  // SSL + X509 body rows
  /// The reference analysis: the parsed-record engine over the same rows,
  /// a different code path from every measured op (which parse text).
  certchain::core::StudyReport reference;
  std::uint64_t reference_digest = 0;

  certchain::core::StudyPipeline pipeline() const;
  std::uint64_t log_bytes() const { return ssl_text.size() + x509_text.size(); }
};

/// Builds the calibrated scenario at its defaults (seed from the command
/// line), writes the log pair under `workdir`, and runs the reference
/// analysis.
std::unique_ptr<Corpus> build_corpus(std::uint64_t seed, const std::string& workdir);

/// The digest every batch op is checked with: the rendered report with
/// graphs, without the data-quality section (which only text-fed engines
/// populate; its numbers are checked exactly instead).
std::uint64_t report_digest(const certchain::core::StudyReport& report);

/// The report_section endpoint's section selection, mirrored from the
/// handler so offline renders can be compared byte for byte.
certchain::core::ReportTextOptions section_options(const std::string& name);

/// Returns freed heap to the OS and resets this process's peak-RSS mark, so
/// a following peak_rss_mb(self) measures only what runs after it.
void reset_peak_rss();

/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double peak_rss_mb(int pid = 0);

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

}  // namespace perfbench
