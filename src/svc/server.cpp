#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

namespace certchain::svc {

namespace {

constexpr int kListenBacklog = 1024;  // high-connection benches ramp fast
constexpr std::size_t kReadChunkBytes = 64 * 1024;
constexpr int kMaxPollerEvents = 256;

using Clock = std::chrono::steady_clock;

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Milliseconds until `deadline`, clamped at 0 (for poller timeouts).
int ms_until(Clock::time_point deadline, Clock::time_point now) {
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  if (remaining <= 0) return 0;
  if (remaining > 3600 * 1000) return 3600 * 1000;
  return static_cast<int>(remaining);
}

}  // namespace

// ---------------------------------------------------------------------------
// Poller

#ifdef __linux__

Poller::Poller() : epoll_fd_(::epoll_create1(0)) {}

Poller::~Poller() { close_if_open(epoll_fd_); }

bool Poller::valid() const { return epoll_fd_ >= 0; }

const char* Poller::backend() { return "epoll"; }

void Poller::add(int fd, std::uint64_t key, bool want_read, bool want_write) {
  epoll_event event{};
  event.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  event.data.u64 = key;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
}

void Poller::modify(int fd, std::uint64_t key, bool want_read,
                    bool want_write) {
  epoll_event event{};
  event.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  event.data.u64 = key;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
}

void Poller::remove(int fd, std::uint64_t key) {
  (void)key;
  epoll_event event{};  // non-null for pre-2.6.9 kernels, unused since
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &event);
}

int Poller::wait(std::vector<Event>& events, int timeout_ms) {
  epoll_event ready[kMaxPollerEvents];
  const int n = ::epoll_wait(epoll_fd_, ready, kMaxPollerEvents, timeout_ms);
  events.clear();
  if (n <= 0) return n;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event event;
    event.key = ready[i].data.u64;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.broken = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events.push_back(event);
  }
  return n;
}

#else  // poll(2) fallback for non-Linux hosts

Poller::Poller() = default;

Poller::~Poller() = default;

bool Poller::valid() const { return true; }

const char* Poller::backend() { return "poll"; }

void Poller::add(int fd, std::uint64_t key, bool want_read, bool want_write) {
  watched_.push_back(Watched{fd, key, want_read, want_write});
}

void Poller::modify(int fd, std::uint64_t key, bool want_read,
                    bool want_write) {
  for (Watched& watched : watched_) {
    if (watched.key == key) {
      watched.fd = fd;
      watched.want_read = want_read;
      watched.want_write = want_write;
      return;
    }
  }
}

void Poller::remove(int fd, std::uint64_t key) {
  (void)fd;
  watched_.erase(std::remove_if(watched_.begin(), watched_.end(),
                                [key](const Watched& watched) {
                                  return watched.key == key;
                                }),
                 watched_.end());
}

int Poller::wait(std::vector<Event>& events, int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(watched_.size());
  for (const Watched& watched : watched_) {
    pollfd pfd{};
    pfd.fd = watched.fd;
    pfd.events = static_cast<short>((watched.want_read ? POLLIN : 0) |
                                    (watched.want_write ? POLLOUT : 0));
    fds.push_back(pfd);
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  events.clear();
  if (n <= 0) return n;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    Event event;
    event.key = watched_[i].key;
    event.readable = (fds[i].revents & POLLIN) != 0;
    event.writable = (fds[i].revents & POLLOUT) != 0;
    event.broken = (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events.push_back(event);
  }
  return n;
}

#endif

// ---------------------------------------------------------------------------
// Server

Server::Server(ServiceState& state, SyncTelemetry& telemetry,
               ServerOptions options)
    : state_(&state),
      telemetry_(&telemetry),
      options_(std::move(options)),
      handlers_(state, telemetry) {
  // Route snapshot lifecycle events (svc.snapshot.published / .live) into
  // the serving registry for as long as this server exists; wait() detaches
  // before the telemetry object can be destroyed underneath late releases.
  state_->attach_telemetry(telemetry_);
}

Server::~Server() {
  request_stop();
  wait();
  // Covers the never-started server too: wait() returns immediately then,
  // without running the teardown's detach.
  state_->attach_telemetry(nullptr);
}

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    close_if_open(listen_fd_);
    close_if_open(wake_pipe_[0]);
    close_if_open(wake_pipe_[1]);
    return false;
  };

  if (!poller_.valid()) return fail("poller");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (!set_nonblocking(listen_fd_)) return fail("fcntl(listen)");

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    return fail("inet_pton(" + options_.host + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) != 0) return fail("pipe");
  if (!set_nonblocking(wake_pipe_[0]) || !set_nonblocking(wake_pipe_[1])) {
    return fail("fcntl(pipe)");
  }

  poller_.add(listen_fd_, kListenKey, /*want_read=*/true, /*want_write=*/false);
  poller_.add(wake_pipe_[0], kWakeKey, /*want_read=*/true,
              /*want_write=*/false);

  const std::size_t workers = par::resolve_threads(options_.workers);
  telemetry_->set_config("svc.host", options_.host);
  telemetry_->set_config("svc.port", std::to_string(port_));
  telemetry_->set_config("svc.workers", std::to_string(workers));
  telemetry_->set_config("svc.queue_capacity",
                         std::to_string(options_.queue_capacity));
  telemetry_->set_config("svc.max_connections",
                         std::to_string(options_.max_connections));
  telemetry_->set_config("svc.wire_version", std::to_string(kWireVersion));
  telemetry_->set_config("svc.request_deadline_ms",
                         std::to_string(options_.request_deadline_ms));
  telemetry_->set_config("svc.idle_timeout_ms",
                         std::to_string(options_.idle_timeout_ms));
  telemetry_->set_config("svc.eventloop.backend", Poller::backend());
  telemetry_->set_gauge("svc.connections.active", 0.0);

  pool_ = std::make_unique<par::ThreadPool>(workers);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    live_workers_ = workers;
  }
  for (std::size_t i = 0; i < workers; ++i) {
    pool_->submit([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { loop(); });
  started_ = true;
  return true;
}

void Server::request_stop() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the loop's poller; the byte's value is irrelevant.
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  drain_cv_.notify_all();
}

void Server::wait() {
  if (!started_) return;
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return draining(); });
    if (stopped_) return;
    if (teardown_in_progress_) {
      drain_cv_.wait(lock, [this] { return stopped_; });
      return;
    }
    teardown_in_progress_ = true;
  }

  // 1. Tell the loop to finish: stop reading everywhere, flush every
  //    response already claimed (workers still run, so everything admitted
  //    completes and writes), then close. The loop exits once no
  //    connections remain.
  teardown_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  telemetry_->set_gauge("svc.connections.active", 0.0);

  // 2. The queue is empty by now (every admitted request completed before
  //    its connection could flush and close): release the workers.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    workers_stop_ = true;
    queue_cv_.notify_all();
    workers_done_cv_.wait(lock, [this] { return live_workers_ == 0; });
  }
  pool_.reset();
  state_->attach_telemetry(nullptr);

  close_if_open(listen_fd_);
  close_if_open(wake_pipe_[0]);
  close_if_open(wake_pipe_[1]);
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    stopped_ = true;
  }
  drain_cv_.notify_all();
}

void Server::loop() {
  std::vector<Poller::Event> events;
  bool teardown_applied = false;

  for (;;) {
    // Drain transition: stop accepting the moment a drain begins.
    if (accepting_ && draining()) {
      poller_.remove(listen_fd_, kListenKey);
      accepting_ = false;
    }
    // Teardown transition (wait() ran): no more reads anywhere, every
    // connection closes as soon as its claimed responses flush.
    if (!teardown_applied && teardown_.load(std::memory_order_acquire)) {
      teardown_applied = true;
      std::vector<std::uint64_t> ids;
      ids.reserve(connections_.size());
      for (const auto& [id, connection] : connections_) ids.push_back(id);
      for (const std::uint64_t id : ids) {
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        Connection& connection = it->second;
        if (!connection.read_closed) {
          connection.read_closed = true;
          poller_.modify(connection.fd, id, /*want_read=*/false,
                         connection.want_write);
        }
        connection.close_after_flush = true;
        pump_output(it->second, id);  // may close + erase
      }
    }
    if (teardown_applied && connections_.empty()) break;

    const Clock::time_point now = Clock::now();
    enforce_deadlines(now);
    if (teardown_applied && connections_.empty()) break;

    const int timeout_ms = next_timeout_ms(Clock::now());
    const int ready = poller_.wait(events, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poller broke: nothing sane left to serve
    }
    if (ready == 0) continue;  // a deadline matured — the loop head acts
    telemetry_->count("svc.eventloop.wakeups");

    for (const Poller::Event& event : events) {
      if (event.key == kWakeKey) {
        char scratch[256];
        while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
        }
        drain_completions();
        continue;
      }
      if (event.key == kListenKey) {
        if (accepting_) accept_ready();
        continue;
      }
      // A connection event. The id may already be gone (closed earlier in
      // this same batch) — that is the point of keying by id, not fd.
      auto it = connections_.find(event.key);
      if (it == connections_.end()) continue;
      if (event.broken) {
        close_connection(event.key);
        continue;
      }
      if (event.writable) {
        if (!pump_output(it->second, event.key)) continue;
        it = connections_.find(event.key);
        if (it == connections_.end()) continue;
      }
      if (event.readable) read_ready(event.key);
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept error: poll again
    }
    if (!set_nonblocking(client)) {
      ::close(client);
      continue;
    }
    // A response is one frame written at once; Nagle would hold its tail
    // back until the client's delayed ACK.
    const int no_delay = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof no_delay);
    if (connections_.size() >= options_.max_connections) {
      telemetry_->count("svc.connections.rejected");
      ::close(client);
      continue;
    }
    telemetry_->count("svc.connections.accepted");
    const std::uint64_t id = next_connection_id_++;
    Connection& connection = connections_[id];
    connection.fd = client;
    connection.last_activity = Clock::now();
    poller_.add(client, id, /*want_read=*/true, /*want_write=*/false);
    telemetry_->set_gauge("svc.connections.active",
                          static_cast<double>(connections_.size()));
  }
}

void Server::read_ready(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& connection = it->second;
  if (connection.read_closed) return;

  char buffer[kReadChunkBytes];
  bool saw_bytes = false;
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      connection.reader.feed(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      saw_bytes = true;
      continue;
    }
    if (n == 0) {
      // EOF: the peer is done talking. Responses still owed (claimed slots,
      // queued bytes) flush first; the close happens when they have.
      connection.read_closed = true;
      poller_.modify(connection.fd, id, /*want_read=*/false,
                     connection.want_write);
      connection.close_after_flush = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(id);  // hard socket error: the conversation is over
    return;
  }
  if (saw_bytes) connection.last_activity = Clock::now();
  decode_buffered(connection, id);
  // decode_buffered may have emitted + flushed; the connection can be gone.
  it = connections_.find(id);
  if (it != connections_.end() && it->second.close_after_flush) {
    pump_output(it->second, id);
  }
}

void Server::decode_buffered(Connection& connection, std::uint64_t id) {
  bool completed_frame = false;
  while (!connection.close_after_flush) {
    DecodeResult decoded = connection.reader.next();
    if (decoded.status == DecodeResult::Status::kNeedMore) break;
    completed_frame = true;
    if (decoded.status == DecodeResult::Status::kError) {
      telemetry_->count("svc.frames.malformed");
      if (!decoded.recoverable) {
        // Framing lost — hang up, but only after the error (and everything
        // claimed before it) reaches the peer.
        connection.read_closed = true;
        poller_.modify(connection.fd, id, /*want_read=*/false,
                       connection.want_write);
        connection.close_after_flush = true;
      }
      if (!emit(connection, id, encode_error(decoded.error, decoded.message))) {
        return;  // closed underneath — `connection` is gone
      }
      continue;
    }
    if (!serve_frame(connection, id, std::move(decoded.frame))) return;
  }
  if (connection.close_after_flush) return;  // no deadlines on a closing conn
  // Re-arm: each frame gets a fresh deadline, stamped when its first bytes
  // are buffered and cleared once the buffer drains.
  if (connection.reader.buffered_bytes() == 0) {
    connection.frame_deadline_armed = false;
    connection.last_activity = Clock::now();
  } else if (!connection.frame_deadline_armed || completed_frame) {
    connection.frame_deadline_armed = options_.request_deadline_ms > 0;
    connection.frame_deadline =
        Clock::now() + std::chrono::milliseconds(options_.request_deadline_ms);
  }
}

bool Server::serve_frame(Connection& connection, std::uint64_t id,
                         Frame frame) {
  telemetry_->count("stage.svc.requests.in");
  if (draining()) {
    telemetry_->count("stage.svc.requests.dropped");
    return emit(connection, id,
                encode_error(ErrorCode::kShuttingDown,
                             "server is draining; no new work accepted"));
  }

  // Fast path: read-only requests run inline on the loop thread. An RCU
  // read is microseconds of work — cheaper than the two scheduler hops of
  // a worker round-trip — so ping/classify/report/metrics/CT queries are
  // answered right here. Mutating or unbounded work (ingest_append
  // re-analyzes the corpus, categorize_chain parses an arbitrary PEM
  // bundle, shutdown drains) still goes to the workers. Accounting is
  // identical either way (the request counts admitted), and a
  // zero-capacity queue still rejects everything: capacity zero means
  // "serve nothing", not "serve only the cheap stuff".
  const bool read_only = frame.type == MessageType::kPing ||
                         frame.type == MessageType::kClassifyIssuer ||
                         frame.type == MessageType::kReportSection ||
                         frame.type == MessageType::kMetrics ||
                         frame.type == MessageType::kCtSth ||
                         frame.type == MessageType::kCtProveInclusion ||
                         frame.type == MessageType::kCtMonitorStatus ||
                         frame.type == MessageType::kFleetStatus ||
                         frame.type == MessageType::kEpochDelta;
  if (read_only && options_.queue_capacity > 0) {
    telemetry_->count("stage.svc.requests.admitted");
    bool shutdown_requested = false;  // read-only handlers never set it
    std::string response = handlers_.handle(frame, &shutdown_requested);
    return emit(connection, id, std::move(response));
  }

  PendingRequest request;
  request.connection_id = id;
  request.seq = connection.next_seq;  // claimed below, after admission
  request.frame = std::move(frame);
  if (options_.request_deadline_ms > 0) {
    request.has_deadline = true;
    request.deadline =
        Clock::now() + std::chrono::milliseconds(options_.request_deadline_ms);
  }
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() < options_.queue_capacity) {
      telemetry_->count("stage.svc.requests.admitted");
      ++connection.next_seq;  // the worker's completion fills this slot
      queue_.push_back(std::move(request));
      admitted = true;
    }
  }
  if (!admitted) {
    telemetry_->count("stage.svc.requests.dropped");
    return emit(connection, id,
                encode_error(ErrorCode::kOverloaded,
                             "admission queue full; retry later"));
  }
  queue_cv_.notify_one();
  return true;
}

bool Server::emit(Connection& connection, std::uint64_t id, std::string bytes) {
  const std::uint64_t seq = connection.next_seq++;
  connection.ready.emplace(seq, std::move(bytes));
  return pump_output(connection, id);
}

bool Server::pump_output(Connection& connection, std::uint64_t id) {
  auto it = connection.ready.begin();
  while (it != connection.ready.end() &&
         it->first == connection.next_write_seq) {
    connection.outbox += it->second;
    it = connection.ready.erase(it);
    ++connection.next_write_seq;
  }
  if (!flush_outbox(connection, id)) return false;
  if (connection.close_after_flush && fully_flushed(connection)) {
    close_connection(id);
    return false;
  }
  return true;
}

bool Server::flush_outbox(Connection& connection, std::uint64_t id) {
  bool progressed = false;
  while (connection.outbox_offset < connection.outbox.size()) {
    const ssize_t n = ::send(
        connection.fd, connection.outbox.data() + connection.outbox_offset,
        connection.outbox.size() - connection.outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      connection.outbox_offset += static_cast<std::size_t>(n);
      progressed = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(id);  // peer went away; nothing sensible left to do
    return false;
  }

  if (connection.outbox_offset >= connection.outbox.size()) {
    connection.outbox.clear();
    connection.outbox_offset = 0;
    connection.write_deadline_armed = false;
    if (connection.want_write) {
      connection.want_write = false;
      poller_.modify(connection.fd, id, !connection.read_closed, false);
    }
    if (progressed) connection.last_activity = Clock::now();
    return true;
  }

  // The socket would block with bytes still queued: wait for EPOLLOUT and
  // start (or refresh, if we advanced at all) the write-progress deadline.
  telemetry_->count("svc.eventloop.partial_writes");
  if (!connection.want_write) {
    connection.want_write = true;
    poller_.modify(connection.fd, id, !connection.read_closed, true);
  }
  if (options_.request_deadline_ms > 0 &&
      (progressed || !connection.write_deadline_armed)) {
    connection.write_deadline_armed = true;
    connection.write_deadline =
        Clock::now() + std::chrono::milliseconds(options_.request_deadline_ms);
  }
  if (progressed) connection.last_activity = Clock::now();
  return true;
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    telemetry_->count("svc.eventloop.completions");
    // A kShutdown drains the whole server even if its own connection died
    // before the response could route.
    if (completion.shutdown_requested) request_stop();
    auto it = connections_.find(completion.connection_id);
    if (it == connections_.end()) continue;  // closed while the worker ran
    Connection& connection = it->second;
    connection.ready.emplace(completion.seq, std::move(completion.response));
    if (completion.shutdown_requested) {
      // Response written, then EOF: the peer sees the ack and a clean close.
      if (!connection.read_closed) {
        connection.read_closed = true;
        poller_.modify(connection.fd, completion.connection_id,
                       /*want_read=*/false, connection.want_write);
      }
      connection.close_after_flush = true;
    }
    pump_output(connection, completion.connection_id);
  }
}

void Server::enforce_deadlines(Clock::time_point now) {
  // Frame and write deadlines arm only when request_deadline_ms > 0, so
  // with both options off nothing can ever expire — skip the O(connections)
  // scan that would otherwise run on every loop iteration.
  if (options_.request_deadline_ms == 0 && options_.idle_timeout_ms == 0) {
    return;
  }
  enum class Expiry { kFrameStall, kIdle, kWriteStall };
  std::vector<std::pair<std::uint64_t, Expiry>> expired;
  for (const auto& [id, connection] : connections_) {
    if (connection.write_deadline_armed && now >= connection.write_deadline) {
      expired.emplace_back(id, Expiry::kWriteStall);
      continue;
    }
    if (connection.frame_deadline_armed && now >= connection.frame_deadline) {
      expired.emplace_back(id, Expiry::kFrameStall);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && !connection.read_closed &&
        !connection.close_after_flush &&
        connection.reader.buffered_bytes() == 0 &&
        fully_flushed(connection) &&
        now >= connection.last_activity +
                   std::chrono::milliseconds(options_.idle_timeout_ms)) {
      expired.emplace_back(id, Expiry::kIdle);
    }
  }
  for (const auto& [id, expiry] : expired) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection& connection = it->second;
    switch (expiry) {
      case Expiry::kWriteStall:
        // No outbound progress for a whole deadline: the peer stopped
        // reading. Nothing more can reach it — close hard.
        telemetry_->count("svc.connections.stalled_closed");
        close_connection(id);
        break;
      case Expiry::kFrameStall:
        telemetry_->count("svc.connections.stalled_closed");
        connection.frame_deadline_armed = false;
        connection.read_closed = true;
        poller_.modify(connection.fd, id, /*want_read=*/false,
                       connection.want_write);
        connection.close_after_flush = true;
        emit(connection, id,
             encode_error(ErrorCode::kDeadlineExceeded,
                          "frame did not finish arriving within the "
                          "request deadline"));
        break;
      case Expiry::kIdle:
        telemetry_->count("svc.connections.idle_closed");
        close_connection(id);  // quiet close: an idle peer did nothing wrong
        break;
    }
  }
}

int Server::next_timeout_ms(Clock::time_point now) const {
  if (options_.request_deadline_ms == 0 && options_.idle_timeout_ms == 0) {
    return -1;  // nothing can arm a deadline: wait for socket events only
  }
  bool armed = false;
  Clock::time_point nearest{};
  const auto consider = [&](Clock::time_point deadline) {
    if (!armed || deadline < nearest) {
      nearest = deadline;
      armed = true;
    }
  };
  for (const auto& [id, connection] : connections_) {
    (void)id;
    if (connection.frame_deadline_armed) consider(connection.frame_deadline);
    if (connection.write_deadline_armed) consider(connection.write_deadline);
    if (options_.idle_timeout_ms > 0 && !connection.read_closed &&
        !connection.close_after_flush &&
        connection.reader.buffered_bytes() == 0 && fully_flushed(connection)) {
      consider(connection.last_activity +
               std::chrono::milliseconds(options_.idle_timeout_ms));
    }
  }
  return armed ? ms_until(nearest, now) : -1;
}

void Server::close_connection(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  poller_.remove(it->second.fd, id);
  close_if_open(it->second.fd);
  connections_.erase(it);
  telemetry_->count("svc.connections.closed");
  telemetry_->set_gauge("svc.connections.active",
                        static_cast<double>(connections_.size()));
}

void Server::worker_loop() {
  for (;;) {
    PendingRequest request;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // workers_stop_ and nothing left to drain.
        --live_workers_;
        if (live_workers_ == 0) workers_done_cv_.notify_all();
        return;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    Completion completion;
    completion.connection_id = request.connection_id;
    completion.seq = request.seq;
    // A request that waited out its deadline in the queue is answered with
    // the typed error instead of running the handler: the client has most
    // likely given up, and burning a worker on it only starves fresher work.
    // It stays an admitted request — the triple reconciles either way.
    if (request.has_deadline && Clock::now() > request.deadline) {
      telemetry_->count("svc.requests.deadline_exceeded");
      completion.response =
          encode_error(ErrorCode::kDeadlineExceeded,
                       "request waited past its deadline in the admission "
                       "queue");
    } else {
      completion.response =
          handlers_.handle(request.frame, &completion.shutdown_requested);
    }
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      was_empty = completions_.empty();
      completions_.push_back(std::move(completion));
    }
    // Wake the loop only when this completion is the first in the batch: a
    // non-empty vector means a wake byte is already in flight, and the
    // loop drains the whole vector per wake regardless of byte counts.
    if (was_empty) {
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    }
  }
}

}  // namespace certchain::svc
