#include "svc/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace certchain::svc {

namespace {

using obs::json::Writer;

}  // namespace

bool Client::connect(const std::string& host, std::uint16_t port,
                     std::string* error) {
  close();
  host_ = host;
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  apply_timeout();
  // Each request is one frame written at once; Nagle would delay its tail.
  const int no_delay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof no_delay);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    if (error != nullptr) *error = "inet_pton(" + host + ") failed";
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    if (error != nullptr) *error = std::string("connect: ") + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
}

bool Client::reconnect() {
  return !host_.empty() && connect(host_, port_, nullptr);
}

void Client::set_timeout_ms(std::uint32_t timeout_ms) {
  timeout_ms_ = timeout_ms;
  apply_timeout();
}

void Client::set_retry(const RetryOptions& options) {
  retry_ = options;
  rng_ = util::Rng(options.jitter_seed);
}

void Client::apply_timeout() {
  if (fd_ < 0 || timeout_ms_ == 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = static_cast<long>(timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void Client::backoff_sleep(std::size_t retry_index) {
  std::uint64_t backoff = retry_.base_backoff_ms;
  for (std::size_t i = 0;
       i < retry_index && backoff < retry_.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(backoff, retry_.max_backoff_ms));
  // Half-to-full jitter: retries spread out instead of synchronizing, and
  // the seeded stream keeps the schedule reproducible in tests.
  const std::uint64_t low = backoff / 2;
  const std::uint64_t jittered = low + rng_.next_below(backoff - low + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

bool Client::send_raw(std::string_view bytes) {
  if (fd_ < 0) return false;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // timeout (EAGAIN under SO_SNDTIMEO) or dead peer
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Frame> Client::read_frame() {
  if (fd_ < 0) return std::nullopt;
  char buffer[64 * 1024];
  for (;;) {
    DecodeResult decoded = reader_.next();
    if (decoded.status == DecodeResult::Status::kFrame) {
      return std::move(decoded.frame);
    }
    if (decoded.status == DecodeResult::Status::kError) {
      // A client that cannot trust its inbound framing must hang up,
      // recoverable or not — there is no one to send a typed error to.
      close();
      return std::nullopt;
    }
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK = SO_RCVTIMEO expired: same treatment as a dead
      // connection, because a half-read response cannot be resynchronized.
      close();
      return std::nullopt;
    }
    reader_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

std::optional<Response> Client::call(MessageType request,
                                     std::string_view payload) {
  if (!send_raw(encode_frame(request, payload))) {
    // A half-written request cannot be resumed; drop the connection so a
    // retry dials a fresh one instead of re-sending into a dead socket.
    close();
    return std::nullopt;
  }
  std::optional<Frame> frame = read_frame();
  if (!frame.has_value()) return std::nullopt;

  Response response;
  response.frame = std::move(*frame);
  if (!response.frame.payload.empty()) {
    if (auto parsed = obs::json::parse(response.frame.payload)) {
      response.payload = std::move(*parsed);
    }
  }
  if (response.frame.type == MessageType::kError) {
    if (const obs::json::Value* code = response.payload.find("code")) {
      for (const ErrorCode candidate :
           {ErrorCode::kBadMagic, ErrorCode::kBadVersion, ErrorCode::kBadType,
            ErrorCode::kOversized, ErrorCode::kBadPayload,
            ErrorCode::kOverloaded, ErrorCode::kShuttingDown,
            ErrorCode::kInternal, ErrorCode::kDeadlineExceeded,
            ErrorCode::kNotFound}) {
        if (code->string == error_code_name(candidate)) {
          response.error = candidate;
          break;
        }
      }
    }
    if (const obs::json::Value* message = response.payload.find("message")) {
      response.error_message = message->string;
    }
  } else {
    response.ok = response.frame.type == response_for(request);
  }
  return response;
}

std::optional<Response> Client::call_with_retry(MessageType request,
                                                std::string_view payload,
                                                bool idempotent) {
  const std::size_t attempts = std::max<std::size_t>(1, retry_.max_attempts);
  std::optional<Response> last;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_performed_;
      backoff_sleep(attempt - 1);
    }
    if (fd_ < 0 && !reconnect()) {
      // Connecting sent nothing, so another attempt is always safe.
      last = std::nullopt;
      continue;
    }
    last = call(request, payload);
    if (!last.has_value()) {
      // Transport failure mid-exchange: the server may or may not have
      // executed the request. Only an idempotent request may go again.
      if (!idempotent) return std::nullopt;
      continue;
    }
    const bool overloaded = last->frame.type == MessageType::kError &&
                            last->error == ErrorCode::kOverloaded;
    // OVERLOADED is rejected at admission, before execution — retrying is
    // safe for every request type. Any other answer is final.
    if (!overloaded) return last;
  }
  return last;
}

std::optional<Response> Client::ping() {
  return call_with_retry(MessageType::kPing, "", /*idempotent=*/true);
}

std::optional<Response> Client::classify_issuer(std::string_view issuer_dn) {
  Writer writer;
  writer.begin_object();
  writer.key("issuer");
  writer.value_string(issuer_dn);
  writer.end_object();
  return call_with_retry(MessageType::kClassifyIssuer, std::move(writer).str(),
                         /*idempotent=*/true);
}

std::optional<Response> Client::categorize_chain_pem(
    std::string_view pem_bundle) {
  Writer writer;
  writer.begin_object();
  writer.key("pem");
  writer.value_string(pem_bundle);
  writer.end_object();
  return call_with_retry(MessageType::kCategorizeChain, std::move(writer).str(),
                         /*idempotent=*/true);
}

std::optional<Response> Client::categorize_chain_rows(
    const std::vector<std::string>& x509_rows) {
  Writer writer;
  writer.begin_object();
  writer.key("x509_rows");
  writer.begin_array();
  for (const std::string& row : x509_rows) writer.value_string(row);
  writer.end_array();
  writer.end_object();
  return call_with_retry(MessageType::kCategorizeChain, std::move(writer).str(),
                         /*idempotent=*/true);
}

std::optional<Response> Client::report_section(std::string_view section) {
  Writer writer;
  writer.begin_object();
  writer.key("section");
  writer.value_string(section);
  writer.end_object();
  return call_with_retry(MessageType::kReportSection, std::move(writer).str(),
                         /*idempotent=*/true);
}

std::optional<Response> Client::ingest_append(
    const std::vector<std::string>& ssl_rows,
    const std::vector<std::string>& x509_rows,
    std::string_view idempotency_key) {
  Writer writer;
  writer.begin_object();
  writer.key("ssl_rows");
  writer.begin_array();
  for (const std::string& row : ssl_rows) writer.value_string(row);
  writer.end_array();
  writer.key("x509_rows");
  writer.begin_array();
  for (const std::string& row : x509_rows) writer.value_string(row);
  writer.end_array();
  if (!idempotency_key.empty()) {
    writer.key("idempotency_key");
    writer.value_string(idempotency_key);
  }
  writer.end_object();
  // Without a key a replayed append would double-fold; with one the server's
  // WAL-backed ledger makes the retry exact-once.
  return call_with_retry(MessageType::kIngestAppend, std::move(writer).str(),
                         /*idempotent=*/!idempotency_key.empty());
}

std::optional<Response> Client::ingest_append_epoch(
    const std::vector<std::string>& ssl_rows,
    const std::vector<std::string>& x509_rows,
    std::string_view idempotency_key, std::string_view fleet_epoch_json) {
  Writer writer;
  writer.begin_object();
  writer.key("ssl_rows");
  writer.begin_array();
  for (const std::string& row : ssl_rows) writer.value_string(row);
  writer.end_array();
  writer.key("x509_rows");
  writer.begin_array();
  for (const std::string& row : x509_rows) writer.value_string(row);
  writer.end_array();
  if (!idempotency_key.empty()) {
    writer.key("idempotency_key");
    writer.value_string(idempotency_key);
  }
  writer.key("fleet_epoch");
  writer.value_raw(fleet_epoch_json);
  writer.end_object();
  return call_with_retry(MessageType::kIngestAppend, std::move(writer).str(),
                         /*idempotent=*/!idempotency_key.empty());
}

std::optional<Response> Client::metrics() {
  return call_with_retry(MessageType::kMetrics, "", /*idempotent=*/true);
}

std::optional<Response> Client::ct_sth() {
  return call_with_retry(MessageType::kCtSth, "", /*idempotent=*/true);
}

std::optional<Response> Client::ct_prove_inclusion(std::string_view fingerprint,
                                                   std::string_view log_id) {
  Writer writer;
  writer.begin_object();
  writer.key("fingerprint");
  writer.value_string(fingerprint);
  if (!log_id.empty()) {
    writer.key("log_id");
    writer.value_string(log_id);
  }
  writer.end_object();
  return call_with_retry(MessageType::kCtProveInclusion,
                         std::move(writer).str(), /*idempotent=*/true);
}

std::optional<Response> Client::ct_monitor_status() {
  return call_with_retry(MessageType::kCtMonitorStatus, "", /*idempotent=*/true);
}

std::optional<Response> Client::fleet_status() {
  return call_with_retry(MessageType::kFleetStatus, "", /*idempotent=*/true);
}

std::optional<Response> Client::epoch_delta(std::optional<std::size_t> epoch) {
  std::string payload;
  if (epoch.has_value()) {
    Writer writer;
    writer.begin_object();
    writer.key("epoch");
    writer.value_uint(*epoch);
    writer.end_object();
    payload = std::move(writer).str();
  }
  return call_with_retry(MessageType::kEpochDelta, std::move(payload),
                         /*idempotent=*/true);
}

std::optional<Response> Client::shutdown() {
  // Never auto-retried: the expected aftermath of a successful shutdown is a
  // dead connection, which a retry would misread as failure.
  return call(MessageType::kShutdown, "");
}

}  // namespace certchain::svc
