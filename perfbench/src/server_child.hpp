// The daemon under test, in a forked child process.
//
// The child loads the corpus into a svc::ServiceState (optionally arming the
// WAL), starts a svc::Server with a fixed worker count, reports its port and
// readiness over a pipe, and serves until a kShutdown request drains it. The
// parent talks to it only over loopback sockets, like any client.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "corpus.hpp"

namespace perfbench {

struct ServerSpec {
  std::size_t workers = 2;
  std::string wal_path;  // empty = no durability
};

struct ServerHandle {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks the server child. Throws std::runtime_error if it never got ready.
/// Call with no other threads running in this process.
ServerHandle start_server(const Corpus& corpus, const ServerSpec& spec);

/// Asks the child to drain and waits for it to exit (SIGKILL after a grace
/// period). Returns true when it exited cleanly.
bool stop_server(ServerHandle& handle);

}  // namespace perfbench
