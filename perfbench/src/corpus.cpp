#include "corpus.hpp"

#include <malloc.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/hash.hpp"
#include "zeek/log_io.hpp"

namespace perfbench {

using namespace certchain;

core::StudyPipeline Corpus::pipeline() const {
  return core::StudyPipeline(scenario->world.stores(), scenario->world.ct_logs(),
                             scenario->vendors, &scenario->world.cross_signs());
}

std::unique_ptr<Corpus> build_corpus(std::uint64_t seed, const std::string& workdir) {
  auto corpus = std::make_unique<Corpus>();
  corpus->seed = seed;
  corpus->workdir = workdir;
  datagen::ScenarioConfig config;
  config.seed = seed;
  corpus->scenario = datagen::build_study_scenario(config);
  corpus->logs = corpus->scenario->generate_logs();

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : corpus->logs.ssl) ssl_writer.add(record);
  corpus->ssl_text = ssl_writer.finish();
  zeek::X509LogWriter x509_writer;
  for (const auto& record : corpus->logs.x509) x509_writer.add(record);
  corpus->x509_text = x509_writer.finish();
  corpus->rows = corpus->logs.ssl.size() + corpus->logs.x509.size();

  corpus->ssl_path = workdir + "/ssl.log";
  corpus->x509_path = workdir + "/x509.log";
  for (const auto& [path, text] :
       {std::pair{corpus->ssl_path, &corpus->ssl_text},
        std::pair{corpus->x509_path, &corpus->x509_text}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << *text;
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  corpus->reference =
      corpus->pipeline().run(core::StudyInput::records(corpus->logs));
  corpus->reference_digest = report_digest(corpus->reference);
  return corpus;
}

std::uint64_t report_digest(const core::StudyReport& report) {
  core::ReportTextOptions options;
  options.graphs = true;
  options.data_quality = false;
  return util::fnv1a64(core::render_report_text(report, options));
}

core::ReportTextOptions section_options(const std::string& name) {
  if (name == "full") return core::ReportTextOptions{};
  core::ReportTextOptions options;
  options.totals = name == "totals";
  options.categories = name == "categories";
  options.interception = name == "interception";
  options.hybrid = name == "hybrid";
  options.non_public = name == "non_public";
  options.ct_compliance = name == "ct";
  options.graphs = name == "graphs";
  options.data_quality = false;
  return options;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
