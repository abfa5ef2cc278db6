// certchain-serve: the query-serving daemon over a live study corpus
// (DESIGN.md §12).
//
//   certchain-serve [options] <ssl.log> <x509.log>
//   certchain-serve --demo [options]
//
// Loads the corpus once (a file pair streams through the engine's fold, as
// in certchain-analyze, and stderr reports its row counts), keeps the
// analyzed state warm as an immutable RCU
// snapshot (CorpusIndex fold, trust classification, interception verdicts,
// the full StudyReport — republished atomically on every append, DESIGN.md
// §15), then answers certchain.svc.wire queries on a loopback TCP socket:
// classify_issuer, categorize_chain, report_section, ingest_append, metrics,
// ping, shutdown. Reads take no lock — every query answers from one
// generation's snapshot — and all sockets are owned by a single epoll/poll
// event loop, so thousands of connections cost no extra threads. Query
// results are byte-identical to a batch certchain-analyze run over the same
// records — the server folds and analyzes through the very same pipeline
// code.
//
// With --wal the daemon is crash-recoverable: every ingest_append commits to
// a write-ahead log before folding, --snapshot-every bounds replay cost via
// compaction snapshots, and a restart restores snapshot + WAL tail to a
// corpus whose reports are byte-identical to a never-crashed run
// (DESIGN.md §13). --request-deadline-ms / --idle-timeout-ms bound every way
// a slow or stalled peer can pin a server thread.
//
// On success prints exactly one line to stdout:
//
//   listening on 127.0.0.1:<port>
//
// (--port 0, the default, binds an ephemeral port; --port-file additionally
// writes the bare port number to a file so scripts can pick it up). The
// daemon then serves until SIGTERM/SIGINT or a kShutdown request arrives,
// drains gracefully — in-flight requests finish, new ones get a typed
// SHUTTING_DOWN error — and exits 0.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "datagen/scenario.hpp"
#include "netsim/pki_world.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "svc/server.hpp"
#include "util/strings.hpp"

namespace {

// Written by the signal handler, read by the watcher thread (self-pipe: the
// only async-signal-safe way to hand the event to ordinary thread code).
int g_signal_pipe_write = -1;

void handle_stop_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe_write, &byte, 1);
}

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <ssl.log> <x509.log>\n"
      "       %s --demo [options]\n"
      "options:\n"
      "  --port <n>            listen port (default 0 = kernel-assigned)\n"
      "  --port-file <path>    write the bound port number to <path>\n"
      "  --threads <n>         request workers (0 = all hardware threads)\n"
      "  --queue <n>           admission queue capacity (default 64)\n"
      "  --max-connections <n> concurrent connection cap (default 64)\n"
      "  --wal <path>          write-ahead-log every ingest_append; on start,\n"
      "                        recover snapshot + WAL back into the corpus\n"
      "  --snapshot-every <n>  compact the WAL into a snapshot every n appends\n"
      "                        (0 = never; requires --wal)\n"
      "  --applied-ledger-max <n>  remember at most n idempotency keys,\n"
      "                        oldest evicted first (default 65536; 0 = all)\n"
      "  --request-deadline-ms <n>  per-request deadline: stalled frames,\n"
      "                        queued requests and response writes all time\n"
      "                        out with DEADLINE_EXCEEDED (0 = none)\n"
      "  --idle-timeout-ms <n> close idle connections after n ms (0 = never)\n"
      "  --ct-monitor          arm the continuous CT monitor over the served\n"
      "                        logs; ct_monitor_status reports its counters\n"
      "  --ct-poll-ms <n>      monitor poll interval (default 1000; needs\n"
      "                        --ct-monitor)\n"
      "  --demo                serve a synthesized demo corpus\n"
      "  --demo-connections <n> demo corpus size (default 4000)\n",
      argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace certchain;

  svc::ServerOptions server_options;
  svc::DurabilityOptions durability;
  std::string port_file;
  std::size_t demo_connections = 4000;
  bool demo = false;
  bool ct_monitor = false;
  std::uint32_t ct_poll_ms = 1000;
  int arg = 1;
  for (; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    if (flag == "--demo") {
      demo = true;
    } else if (flag == "--ct-monitor") {
      ct_monitor = true;
    } else if (flag == "--port" || flag == "--port-file" ||
               flag == "--threads" || flag == "--queue" ||
               flag == "--max-connections" || flag == "--demo-connections" ||
               flag == "--wal" || flag == "--snapshot-every" ||
               flag == "--applied-ledger-max" ||
               flag == "--request-deadline-ms" || flag == "--idle-timeout-ms" ||
               flag == "--ct-poll-ms") {
      if (arg + 1 >= argc) {
        print_usage(argv[0]);
        return 2;
      }
      const char* value = argv[++arg];
      if (flag == "--port-file") {
        port_file = value;
        continue;
      }
      if (flag == "--wal") {
        durability.wal_path = value;
        continue;
      }
      // Digits only, and each value must fit the field it lands in.
      const auto count = [value] { return util::parse_count<std::size_t>(value); };
      const auto ms = [value] { return util::parse_count<std::uint32_t>(value); };
      bool valid = false;
      if (flag == "--port") {
        valid = util::store(util::parse_count<std::uint16_t>(value),
                            server_options.port);
      } else if (flag == "--threads") {
        valid = util::store(count(), server_options.workers);
      } else if (flag == "--queue") {
        valid = util::store(count(), server_options.queue_capacity);
      } else if (flag == "--max-connections") {
        valid = util::store(count(), server_options.max_connections);
      } else if (flag == "--snapshot-every") {
        valid = util::store(count(), durability.snapshot_every);
      } else if (flag == "--applied-ledger-max") {
        valid = util::store(count(), durability.applied_ledger_max);
      } else if (flag == "--request-deadline-ms") {
        valid = util::store(ms(), server_options.request_deadline_ms);
      } else if (flag == "--idle-timeout-ms") {
        valid = util::store(ms(), server_options.idle_timeout_ms);
      } else if (flag == "--ct-poll-ms") {
        valid = util::store(ms(), ct_poll_ms);
      } else {
        valid = util::store(count(), demo_connections) && demo_connections != 0;
      }
      if (!valid) {
        print_usage(argv[0]);
        return 2;
      }
    } else {
      break;
    }
  }
  if (durability.wal_path.empty() && durability.snapshot_every != 0) {
    std::fprintf(stderr, "certchain-serve: --snapshot-every requires --wal\n");
    return 2;
  }
  if ((demo && argc - arg != 0) || (!demo && argc - arg != 2)) {
    print_usage(argv[0]);
    return 2;
  }

  // The classification universe; same construction as certchain-analyze so
  // the two front-ends answer identically for the same records.
  netsim::PkiWorld world;
  const core::VendorDirectory vendors =
      datagen::interception_vendor_directory(world);
  svc::ServiceState state(world.stores(), world.ct_logs(), vendors,
                          &world.cross_signs());
  if (demo) {
    obs::RunContext scratch;
    const auto scenario = datagen::build_study_scenario(
        datagen::demo_scenario_config(demo_connections), &scratch);
    const netsim::GeneratedLogs logs = scenario->generate_logs(&scratch);
    state.load(core::StudyInput::records(logs));
  } else {
    // The engine's fold streams the pair in chunks, as certchain-analyze does.
    try {
      const core::IngestReport ingest =
          state.load(core::StudyInput::files(argv[arg], argv[arg + 1]));
      std::fprintf(stderr, "loaded %zu SSL rows (%zu skipped), %zu X509 rows (%zu skipped)\n",
                   ingest.ssl.records, ingest.ssl.skipped_lines,
                   ingest.x509.records, ingest.x509.skipped_lines);
    } catch (const core::IngestError& error) {
      std::fprintf(stderr, "certchain-serve: %s\n", error.what());
      return 1;
    }
  }

  svc::SyncTelemetry telemetry;
  telemetry.set_config("tool", "certchain-serve");

  // Crash recovery: restore snapshot + WAL tail before taking traffic, so
  // the first answer already reflects every acknowledged pre-crash append.
  // A failed recovery refuses to serve — silently dropping acknowledged
  // appends would be worse than not starting.
  if (!durability.wal_path.empty()) {
    const obs::Stopwatch recovery_watch;
    svc::RecoveryStats recovery;
    std::string recovery_error;
    if (!state.recover_and_arm(durability, &recovery, &recovery_error)) {
      std::fprintf(stderr, "certchain-serve: recovery failed: %s\n",
                   recovery_error.c_str());
      return 1;
    }
    telemetry.observe_timing("svc.recovery.ms", recovery_watch.elapsed_ms());
    telemetry.set_config("svc.wal", durability.wal_path);
    telemetry.set_config("svc.snapshot_every",
                         std::to_string(durability.snapshot_every));
    // The replay triple reconciles like every other stage: every intact WAL
    // record either folded or was already absorbed (snapshot / duplicate).
    telemetry.count("stage.svc.wal.replay.in", recovery.wal_records_seen);
    telemetry.count("stage.svc.wal.replay.admitted",
                    recovery.wal_records_applied);
    telemetry.count("stage.svc.wal.replay.dropped",
                    recovery.wal_records_skipped);
    if (recovery.torn_bytes > 0) {
      telemetry.count("svc.wal.torn_bytes", recovery.torn_bytes);
    }
    std::fprintf(stderr,
                 "recovery: snapshot=%s wal_records=%llu applied=%llu "
                 "skipped=%llu torn_bytes=%llu generation=%llu\n",
                 recovery.snapshot_loaded ? "yes" : "no",
                 static_cast<unsigned long long>(recovery.wal_records_seen),
                 static_cast<unsigned long long>(recovery.wal_records_applied),
                 static_cast<unsigned long long>(recovery.wal_records_skipped),
                 static_cast<unsigned long long>(recovery.torn_bytes),
                 static_cast<unsigned long long>(recovery.generation));
  }

  std::fprintf(stderr, "corpus ready: %zu unique chains, generation %llu\n",
               state.unique_chains(),
               static_cast<unsigned long long>(state.generation()));

  // Continuous CT auditing (DESIGN.md §14.3): the monitor polls the served
  // logs on its own thread while requests flow. Arm before the server takes
  // traffic so ct_monitor_status never races the unique_ptr install; the
  // Monitor itself is internally locked, and the poll thread folds its
  // per-poll deltas through the thread-safe telemetry facade so the metrics
  // endpoint sees ct.monitor.* move.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor_thread;
  if (ct_monitor) {
    ct::Monitor& monitor = state.arm_ct_monitor();
    telemetry.set_config("svc.ct_monitor", "on");
    telemetry.set_config("svc.ct_poll_ms", std::to_string(ct_poll_ms));
    monitor_thread = std::thread([&monitor, &telemetry, &monitor_stop,
                                  poll_ms = ct_poll_ms] {
      while (!monitor_stop.load(std::memory_order_relaxed)) {
        const std::size_t fresh = monitor.poll_once();
        telemetry.count("ct.monitor.polls");
        if (fresh > 0) telemetry.count("ct.monitor.violations", fresh);
        for (std::uint32_t waited = 0;
             waited < poll_ms && !monitor_stop.load(std::memory_order_relaxed);
             waited += 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<std::uint32_t>(50, poll_ms - waited)));
        }
      }
    });
    std::fprintf(stderr, "ct monitor armed: polling every %u ms\n", ct_poll_ms);
  }

  const auto stop_monitor = [&monitor_stop, &monitor_thread] {
    monitor_stop.store(true, std::memory_order_relaxed);
    if (monitor_thread.joinable()) monitor_thread.join();
  };

  svc::Server server(state, telemetry, server_options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "certchain-serve: %s\n", error.c_str());
    stop_monitor();
    return 1;
  }

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "certchain-serve: cannot write %s\n",
                   port_file.c_str());
      stop_monitor();
      return 1;
    }
  }
  std::printf("listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "event loop: %s backend, %zu request workers, "
               "%zu-connection cap\n",
               svc::Poller::backend(),
               par::resolve_threads(server_options.workers),
               server_options.max_connections);

  // SIGTERM/SIGINT start the same graceful drain a kShutdown request does.
  int signal_pipe[2];
  if (::pipe(signal_pipe) != 0) {
    std::fprintf(stderr, "certchain-serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  g_signal_pipe_write = signal_pipe[1];
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::thread signal_watcher([&server, read_fd = signal_pipe[0]] {
    char byte;
    if (::read(read_fd, &byte, 1) > 0) server.request_stop();
  });

  server.wait();  // returns once the drain (signal- or wire-initiated) is done
  stop_monitor();
  ::close(signal_pipe[1]);  // wakes the watcher if no signal ever arrived
  signal_watcher.join();
  ::close(signal_pipe[0]);
  std::fprintf(stderr, "certchain-serve: drained, exiting\n");
  return 0;
}
