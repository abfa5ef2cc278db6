// certchain-ctmon: standalone CT monitor/auditor (DESIGN.md §14.3, §14.6).
//
//   certchain-ctmon [options]
//
// Builds one or more deterministic million-entry-class CT logs through the
// bulk datagen population path, arms a ct::Monitor over them, and runs an
// audit loop: poll the tree heads, verify checkpoint->head consistency,
// sample inclusion proofs, append more entries, repeat. The logs keep
// growing between polls, so every round exercises the real consistency-proof
// path rather than the trivial same-head case.
//
// Exit status is the contract: 0 when every poll verified cleanly, 1 when
// the monitor flagged any append-only violation. --inject-violation wraps
// the last log in a client that tampers with the advertised root before the
// final poll — the self-test that the alarm actually fires (CI runs both
// directions). --json prints a certchain.ctmon.status v1 document; the
// default output is a human-readable summary per poll plus the final
// ct.monitor.* counters.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ct/ct_log.hpp"
#include "ct/monitor.hpp"
#include "datagen/ct_population.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "options:\n"
      "  --entries <n>       entries populated per log before the first poll\n"
      "                      (default 200000)\n"
      "  --logs <n>          logs to build and watch (default 2)\n"
      "  --seed <n>          population + sampling seed (default 20200901)\n"
      "  --polls <n>         audit rounds (default 4)\n"
      "  --samples <n>       inclusion proofs sampled per log per poll\n"
      "                      (default 4)\n"
      "  --grow <n>          entries appended to every log between polls\n"
      "                      (default 4096)\n"
      "  --inject-violation  tamper with the last log's advertised root before\n"
      "                      the final poll (self-test: expect exit 1)\n"
      "  --json              print a certchain.ctmon.status v1 JSON document\n",
      argv0);
}

// Delegating LogClient that, once armed, advertises a corrupted root. The
// monitor must flag the mismatch between this head and the honest proofs.
class TamperingClient : public certchain::ct::LogClient {
 public:
  explicit TamperingClient(std::shared_ptr<certchain::ct::LogClient> inner)
      : inner_(std::move(inner)) {}

  void arm() { armed_ = true; }

  std::string log_id() const override { return inner_->log_id(); }
  certchain::ct::TreeHead tree_head() const override {
    certchain::ct::TreeHead head = inner_->tree_head();
    if (armed_) head.root.words[0] ^= 0xdecafbadULL;
    return head;
  }
  std::optional<std::vector<certchain::ct::Digest256>> consistency(
      std::size_t m, std::size_t n) const override {
    return inner_->consistency(m, n);
  }
  std::optional<InclusionAnswer> inclusion(std::size_t index,
                                           std::size_t n) const override {
    return inner_->inclusion(index, n);
  }

 private:
  std::shared_ptr<certchain::ct::LogClient> inner_;
  bool armed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace certchain;

  std::size_t entries = 200000;
  std::size_t log_count = 2;
  std::uint64_t seed = 20200901;
  std::size_t polls = 4;
  std::size_t samples = 4;
  std::size_t grow = 4096;
  bool inject_violation = false;
  bool json_output = false;

  for (int arg = 1; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    if (flag == "--inject-violation") {
      inject_violation = true;
    } else if (flag == "--json") {
      json_output = true;
    } else if (flag == "--entries" || flag == "--logs" || flag == "--seed" ||
               flag == "--polls" || flag == "--samples" || flag == "--grow") {
      if (arg + 1 >= argc) {
        print_usage(argv[0]);
        return 2;
      }
      const std::optional<std::size_t> number =
          util::parse_count<std::size_t>(argv[++arg]);
      if (!number) {
        print_usage(argv[0]);
        return 2;
      }
      if (flag == "--entries") {
        entries = *number;
      } else if (flag == "--logs") {
        log_count = *number;
      } else if (flag == "--seed") {
        seed = *number;
      } else if (flag == "--polls") {
        polls = *number;
      } else if (flag == "--samples") {
        samples = *number;
      } else {
        grow = *number;
      }
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (log_count == 0 || polls == 0) {
    print_usage(argv[0]);
    return 2;
  }

  // Build the watched logs. The vector is reserved up front because
  // CtLogView holds a raw pointer into it.
  std::vector<ct::CtLog> logs;
  logs.reserve(log_count);
  const obs::Stopwatch populate_watch;
  for (std::size_t i = 0; i < log_count; ++i) {
    logs.emplace_back("mon-ct-log-" + std::to_string(i));
    datagen::CtPopulationConfig population;
    population.entries = entries;
    population.seed = seed + i;
    datagen::populate_ct_log(logs.back(), population);
  }
  std::fprintf(stderr, "populated %zu log(s) x %zu entries in %.1f ms\n",
               log_count, entries, populate_watch.elapsed_ms());

  obs::RunContext context;
  ct::MonitorConfig config;
  config.inclusion_samples = samples;
  config.seed = seed;
  ct::Monitor monitor(config, &context.metrics);

  std::shared_ptr<TamperingClient> tamper;
  for (std::size_t i = 0; i < log_count; ++i) {
    auto view = std::make_shared<ct::CtLogView>(logs[i]);
    if (inject_violation && i + 1 == log_count) {
      tamper = std::make_shared<TamperingClient>(std::move(view));
      monitor.watch(tamper);
    } else {
      monitor.watch(std::move(view));
    }
  }

  for (std::size_t round = 0; round < polls; ++round) {
    if (tamper != nullptr && round + 1 == polls) tamper->arm();
    const std::size_t fresh = monitor.poll_once();
    const ct::MonitorStatus status = monitor.status();
    std::fprintf(stderr,
                 "poll %zu/%zu: sth_verified=%llu inclusion_checks=%llu "
                 "new_violations=%zu\n",
                 round + 1, polls,
                 static_cast<unsigned long long>(status.sth_verified),
                 static_cast<unsigned long long>(status.inclusion_checks),
                 fresh);
    if (grow != 0 && round + 1 < polls) {
      for (std::size_t i = 0; i < log_count; ++i) {
        datagen::CtPopulationConfig delta;
        delta.entries = grow;
        delta.seed = seed + i + (round + 1) * 0x9e37;
        datagen::populate_ct_log(logs[i], delta);
      }
    }
  }

  const ct::MonitorStatus status = monitor.status();
  const std::vector<ct::Violation> violations = monitor.violations();

  if (json_output) {
    obs::json::Writer writer;
    writer.begin_object();
    writer.key("schema");
    writer.value_string("certchain.ctmon.status");
    writer.key("version");
    writer.value_uint(1);
    writer.key("polls");
    writer.value_uint(status.polls);
    writer.key("sth_verified");
    writer.value_uint(status.sth_verified);
    writer.key("inclusion_checks");
    writer.value_uint(status.inclusion_checks);
    writer.key("inclusion_failures");
    writer.value_uint(status.inclusion_failures);
    writer.key("violations");
    writer.begin_array();
    for (const ct::Violation& violation : violations) {
      writer.begin_object();
      writer.key("kind");
      writer.value_string(ct::violation_kind_name(violation.kind));
      writer.key("log_id");
      writer.value_string(violation.log_id);
      writer.key("checkpoint_size");
      writer.value_uint(violation.checkpoint_size);
      writer.key("observed_size");
      writer.value_uint(violation.observed_size);
      writer.key("detail");
      writer.value_string(violation.detail);
      writer.end_object();
    }
    writer.end_array();
    writer.key("checkpoints");
    writer.begin_array();
    for (const auto& checkpoint : status.checkpoints) {
      writer.begin_object();
      writer.key("log_id");
      writer.value_string(checkpoint.log_id);
      writer.key("tree_size");
      writer.value_uint(checkpoint.tree_size);
      writer.key("root");
      writer.value_string(checkpoint.root.to_hex());
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
    std::printf("%s\n", std::move(writer).str().c_str());
  } else {
    std::printf(
        "ctmon: polls=%llu sth_verified=%llu inclusion_checks=%llu "
        "inclusion_failures=%llu violations=%zu\n",
        static_cast<unsigned long long>(status.polls),
        static_cast<unsigned long long>(status.sth_verified),
        static_cast<unsigned long long>(status.inclusion_checks),
        static_cast<unsigned long long>(status.inclusion_failures),
        violations.size());
    for (const ct::Violation& violation : violations) {
      std::printf("violation: %s log=%s checkpoint=%zu observed=%zu %s\n",
                  ct::violation_kind_name(violation.kind),
                  violation.log_id.c_str(), violation.checkpoint_size,
                  violation.observed_size, violation.detail.c_str());
    }
  }
  return violations.empty() ? 0 : 1;
}
