// certchain_perfbench: one run of one benchmark workload.
//
//   certchain_perfbench --workload <batch-serial|batch-stream|serve-read|live-fleet>
//                       --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints one JSON document on stdout: host and build facts, any failed
// correctness gates, and {"correct","attempted","failed","metrics"} — the
// end-to-end metrics untraced, the per-layer metrics traced. perfbench/run.py
// builds this binary and turns the document into the benchmark's result line.
//
// Exit codes: 0 every gate held, 1 a gate failed, 2 usage or a build that
// must not report numbers (Debug, sanitizers, assertions on).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "corpus.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "server_child.hpp"
#include "svc/wal.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using certchain::obs::json::Writer;

const char* const kWorkloads[] = {"batch-serial", "batch-stream", "serve-read",
                                  "live-fleet"};

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The sanitizers compiled in: -fsanitize= flags in the build's flags plus
/// any the compiler reports ("" for none).
std::string sanitizers() {
  std::string out;
  const auto add = [&out](std::string_view name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  const std::string_view flags = PERFBENCH_CXX_FLAGS;
  const std::string_view flag = "-fsanitize=";
  for (std::size_t at = flags.find(flag); at != std::string_view::npos;
       at = flags.find(flag, at + 1)) {
    const std::string_view rest = flags.substr(at + flag.size());
    add(rest.substr(0, rest.find(' ')));
  }
#if defined(__SANITIZE_ADDRESS__)
  add("address");
#endif
#if defined(__SANITIZE_THREAD__)
  add("thread");
#endif
  return out;
}

/// Numbers from a Debug, assertion-enabled or sanitizer build describe the
/// instrumentation, not the system.
std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") return "build type is " + type + ", not Release";
  if (!sanitizers().empty()) return "sanitizer build (" + sanitizers() + ")";
#ifndef NDEBUG
  return "assertions enabled (NDEBUG not defined)";
#endif
  return "";
}

void write_metrics(Writer& writer, const MetricSet& metrics) {
  writer.begin_object();
  for (const auto& [name, metric] : metrics) {
    writer.key(name);
    writer.begin_object();
    writer.key("value");
    // Full precision: the harness never rounds a measurement.
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", metric.value);
    writer.value_raw(text);
    writer.key("unit");
    writer.value_string(metric.unit);
    writer.end_object();
  }
  writer.end_object();
}

struct Env {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<certchain::datagen::EpochDrifter> drifter;
  ServerHandle server;

  void teardown() {
    if (server.pid > 0) stop_server(server);
    drifter.reset();
    corpus.reset();
  }
};

/// The workload-specific part of setting up: a daemon child for the serving
/// workloads, the drifted fleet populations for live-fleet.
void prepare(Env& env, const std::string& workload, const RunSpec& spec) {
  if (workload == "live-fleet") {
    env.drifter = make_drifter(*env.corpus, fleet_epochs(spec));
    const std::string wal = env.corpus->workdir + "/fleet.wal";
    std::remove(wal.c_str());
    std::remove(certchain::svc::snapshot_path_for(wal).c_str());
    env.server = start_server(*env.corpus, {kServeWorkers, wal});
  } else if (workload == "serve-read") {
    env.server = start_server(*env.corpus, {kServeWorkers, ""});
  }
}

WorkloadResult run_one(Env& env, const std::string& workload, const RunSpec& spec) {
  if (workload == "batch-serial") return run_batch(*env.corpus, spec, false);
  if (workload == "batch-stream") return run_batch(*env.corpus, spec, true);
  if (workload == "serve-read") return run_serve_read(*env.corpus, spec, env.server);
  return run_live_fleet(*env.corpus, spec, *env.drifter, env.server);
}

int usage() {
  std::fprintf(stderr,
               "usage: certchain_perfbench --workload <batch-serial|batch-stream|"
               "serve-read|live-fleet> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string workdir;
  RunSpec spec;
  bool seed_given = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value, nullptr, 10);
      seed_given = true;
    } else if (flag == "--seconds") {
      spec.seconds = std::atof(value);
    } else if (flag == "--trace") {
      spec.trace = std::string(value) == "1";
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || workload == name;
  if (!known || !seed_given || spec.seconds <= 0.0 || workdir.empty()) return usage();
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::fprintf(stderr, "certchain_perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 2;
  }

  WorkloadResult result;
  std::vector<double> setup_s;
  Env env;
  try {
    if (!spec.trace) {
      // Set up three times from scratch; the last environment is measured.
      for (int rep = 0; rep < 3; ++rep) {
        env.teardown();
        const double start = now_s();
        env.corpus = build_corpus(spec.seed, workdir);
        prepare(env, workload, spec);
        setup_s.push_back(now_s() - start);
      }
      result = run_one(env, workload, spec);
      result.e2e["setup_s"] = {median(setup_s), "s"};
    } else {
      // Traced: this workload's own per-layer metrics, the direct layer
      // probes, then short passes of the other workloads for layers this one
      // never touches. live-fleet comes last: its drifter mutates the world.
      env.corpus = build_corpus(spec.seed, workdir);
      MetricSet probes;
      probe_core_layers(*env.corpus, probes);
      probe_codec(*env.corpus, probes);
      probe_ct(*env.corpus, probes);
      probe_wal(*env.corpus, probes);
      MetricSet minis;
      for (const char* name : kWorkloads) {
        RunSpec pass = spec;
        pass.mini = workload != name;
        prepare(env, name, pass);
        WorkloadResult part = run_one(env, name, pass);
        if (env.server.pid > 0) stop_server(env.server);
        result.tally.merge(part.tally);
        result.problems.insert(result.problems.end(), part.problems.begin(),
                               part.problems.end());
        for (auto& [name, values] : part.samples) result.samples[name] = values;
        if (pass.mini) {
          minis.insert(part.layers.begin(), part.layers.end());
        } else {
          result.layers = std::move(part.layers);
        }
      }
      result.layers.insert(probes.begin(), probes.end());
      result.layers.insert(minis.begin(), minis.end());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "certchain_perfbench: %s\n", error.what());
    env.teardown();
    return 1;
  }
  env.teardown();

  const bool correct = result.problems.empty() && result.tally.failed == 0 &&
                       result.tally.attempted > 0;
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "certchain_perfbench: FAILED: %s\n", problem.c_str());
  }

  Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value_string("certchain.perfbench");
  writer.key("version");
  writer.value_uint(1);
  writer.key("host");
  writer.begin_object();
  writer.key("nproc");
  writer.value_uint(std::thread::hardware_concurrency());
  writer.key("cpu_model");
  writer.value_string(cpu_model());
  writer.key("compiler");
  writer.value_string(PERFBENCH_COMPILER);
  writer.key("build_type");
  writer.value_string(PERFBENCH_BUILD_TYPE);
  writer.key("cxx_flags");
  writer.value_string(PERFBENCH_CXX_FLAGS);
  writer.key("sanitizers");
  writer.value_string(sanitizers());
  writer.end_object();
  writer.key("workload");
  writer.value_string(workload);
  writer.key("seed");
  writer.value_uint(spec.seed);
  writer.key("seconds");
  writer.value_number(spec.seconds);
  writer.key("trace");
  writer.value_bool(spec.trace);
  writer.key("setup_runs_s");
  writer.begin_array();
  for (const double s : setup_s) writer.value_number(s);
  writer.end_array();
  writer.key("samples");
  writer.begin_object();
  for (const auto& [name, values] : result.samples) {
    writer.key(name);
    writer.begin_array();
    for (const double value : values) writer.value_number(value);
    writer.end_array();
  }
  writer.end_object();
  writer.key("problems");
  writer.begin_array();
  for (const std::string& problem : result.problems) writer.value_string(problem);
  writer.end_array();
  writer.key("result");
  writer.begin_object();
  writer.key("correct");
  writer.value_bool(correct);
  writer.key("attempted");
  writer.value_uint(result.tally.attempted);
  writer.key("failed");
  writer.value_uint(result.tally.failed);
  writer.key("metrics");
  write_metrics(writer, spec.trace ? result.layers : result.e2e);
  writer.end_object();
  writer.end_object();
  std::printf("%s\n", writer.str().c_str());
  return correct ? 0 : 1;
}
