#include "server_child.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service_state.hpp"

namespace perfbench {

using namespace certchain;

namespace {

struct ReadyMessage {
  std::uint16_t port = 0;
  bool ok = false;
};

[[noreturn]] void child_main(const Corpus& corpus, const ServerSpec& spec,
                             int ready_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  ReadyMessage ready;
  int code = 1;
  {
    const auto& world = corpus.scenario->world;
    svc::ServiceState state(world.stores(), world.ct_logs(), corpus.scenario->vendors,
                            &world.cross_signs());
    state.load(corpus.logs.ssl, corpus.logs.x509);
    bool armed = true;
    if (!spec.wal_path.empty()) {
      svc::DurabilityOptions durability;
      durability.wal_path = spec.wal_path;
      std::string error;
      armed = state.recover_and_arm(durability, nullptr, &error);
      if (!armed) std::fprintf(stderr, "perfbench server: %s\n", error.c_str());
    }

    svc::SyncTelemetry telemetry;
    svc::ServerOptions options;
    options.workers = spec.workers;
    options.queue_capacity = 1 << 16;
    options.max_connections = 64;
    svc::Server server(state, telemetry, options);
    std::string error;
    if (armed && server.start(&error)) {
      ready.port = server.port();
      ready.ok = true;
      (void)!write(ready_fd, &ready, sizeof ready);
      close(ready_fd);
      // Serves until a kShutdown request drains the loop.
      while (!server.draining()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      server.wait();
      code = 0;
    } else {
      if (!error.empty()) std::fprintf(stderr, "perfbench server: %s\n", error.c_str());
      (void)!write(ready_fd, &ready, sizeof ready);
      close(ready_fd);
    }
  }
  std::fflush(stderr);
  _exit(code);
}

}  // namespace

ServerHandle start_server(const Corpus& corpus, const ServerSpec& spec) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    child_main(corpus, spec, fds[1]);
  }
  close(fds[1]);
  ServerHandle handle;
  handle.pid = pid;
  ReadyMessage ready;
  pollfd waiter{fds[0], POLLIN, 0};
  const bool readable = poll(&waiter, 1, 120000) == 1;
  const ssize_t got = readable ? read(fds[0], &ready, sizeof ready) : -1;
  close(fds[0]);
  if (got != static_cast<ssize_t>(sizeof ready) || !ready.ok) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    throw std::runtime_error("server child failed to start");
  }
  handle.port = ready.port;
  return handle;
}

bool stop_server(ServerHandle& handle) {
  if (handle.pid <= 0) return true;
  {
    svc::Client client;
    client.set_timeout_ms(10000);
    if (client.connect("127.0.0.1", handle.port)) client.shutdown();
  }
  bool clean = false;
  for (int waited_ms = 0; waited_ms < 20000; waited_ms += 10) {
    int status = 0;
    const pid_t done = waitpid(handle.pid, &status, WNOHANG);
    if (done == handle.pid) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      handle.pid = -1;
      return clean;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(handle.pid, SIGKILL);
  waitpid(handle.pid, nullptr, 0);
  handle.pid = -1;
  return false;
}

}  // namespace perfbench
