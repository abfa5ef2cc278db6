#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <map>
#include <set>

#include "chain/categorizer.hpp"
#include "ct/merkle.hpp"
#include "obs/json.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace perfbench {

using namespace certchain;
using obs::json::Writer;

namespace {

constexpr std::size_t kPoolPerClass = 256;

svc::MessageType request_type(int endpoint) {
  switch (endpoint) {
    case kClassifyIssuer: return svc::MessageType::kClassifyIssuer;
    case kCategorizeChain: return svc::MessageType::kCategorizeChain;
    case kReportSection: return svc::MessageType::kReportSection;
    case kCtProveInclusion: return svc::MessageType::kCtProveInclusion;
    default: return svc::MessageType::kPing;
  }
}

std::string one_field(std::string_view key, std::string_view value) {
  Writer writer;
  writer.begin_object();
  writer.key(key);
  writer.value_string(value);
  writer.end_object();
  return std::move(writer).str();
}

std::vector<double> cdf(const std::vector<double>& weights) {
  std::vector<double> out;
  double sum = 0.0;
  for (const double w : weights) out.push_back(sum += w);
  for (double& v : out) v /= sum;
  return out;
}

std::size_t draw(const std::vector<double>& cdf, util::Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

}  // namespace

const char* endpoint_name(int endpoint) {
  switch (endpoint) {
    case kPing: return "ping";
    case kClassifyIssuer: return "classify_issuer";
    case kCategorizeChain: return "categorize_chain";
    case kReportSection: return "report_section";
    case kCtProveInclusion: return "ct_prove_inclusion";
  }
  return "unknown";
}

RequestPool::RequestPool(const Corpus& corpus) {
  const auto& stores = corpus.scenario->world.stores();
  const auto& ct_logs = corpus.scenario->world.ct_logs();
  const core::StudyReport& reference = corpus.reference;
  util::Rng rng(corpus.seed ^ 0x9E7B00C5ULL);
  const auto add = [this](Class cls, int endpoint, std::string payload) -> PoolRequest& {
    PoolRequest& request = classes_[cls].emplace_back();
    request.endpoint = endpoint;
    request.wire = svc::encode_frame(request_type(endpoint), payload);
    return request;
  };

  {
    Writer writer;
    writer.begin_object();
    writer.key("ok");
    writer.value_bool(true);
    writer.key("schema");
    writer.value_string(svc::kWireSchemaName);
    writer.key("version");
    writer.value_uint(svc::kWireVersion);
    writer.key("generation");
    writer.value_uint(0);
    writer.key("unique_chains");
    writer.value_uint(reference.unique_chains);
    writer.end_object();
    add(kPingClass, kPing, "").exact_payload = std::move(writer).str();
  }

  // classify_issuer: corpus issuers (the first kPoolPerClass in first-seen
  // order), each picked as often as the x509 log carries it, so the skew is
  // the corpus's own; plus DNs no log ever carried.
  const auto add_issuer = [&](Class cls, const std::string& text) {
    const auto name = x509::DistinguishedName::parse(text);
    if (!name.has_value()) return false;
    Writer writer;
    writer.begin_object();
    writer.key("issuer");
    writer.value_string(name->to_string());
    writer.key("canonical");
    writer.value_string(name->canonical());
    writer.key("class");
    writer.value_string(truststore::issuer_class_name(stores.classify_issuer(*name)));
    writer.end_object();
    add(cls, kClassifyIssuer, one_field("issuer", text)).exact_payload =
        std::move(writer).str();
    return true;
  };
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::map<std::string_view, std::size_t> issuer_slot;  // log text -> pool index
  std::vector<double> issuer_rows;
  for (const auto& record : corpus.logs.x509) {
    const auto [slot, fresh] = issuer_slot.try_emplace(record.issuer, kNoSlot);
    if (fresh && classes_[kIssuerSeen].size() < kPoolPerClass &&
        add_issuer(kIssuerSeen, record.issuer)) {
      slot->second = issuer_rows.size();
      issuer_rows.push_back(0.0);
    }
    if (slot->second != kNoSlot) issuer_rows[slot->second] += 1.0;
  }
  seen_issuer_cdf_ = cdf(issuer_rows);
  for (std::size_t i = 0; i < 64; ++i) {
    add_issuer(kIssuerUnseen,
               "CN=Perfbench Unseen CA " + rng.hex_string(8) + ",O=Perfbench Labs,C=ZZ");
  }

  // categorize_chain: distinct corpus chains of ordinary length, submitted
  // as their X509.log rows.
  std::map<std::string_view, const zeek::X509LogRecord*> by_fuid;
  for (const auto& record : corpus.logs.x509) by_fuid.emplace(record.fuid, &record);
  const chain::InterceptionIssuerSet interception = reference.interception.issuer_set();
  std::set<std::vector<std::string>> seen_chains;
  for (const auto& ssl : corpus.logs.ssl) {
    if (classes_[kChain].size() >= kPoolPerClass) break;
    const auto& fuids = ssl.cert_chain_fuids;
    if (fuids.empty() || fuids.size() > 10 || !seen_chains.insert(fuids).second) continue;
    chain::CertificateChain chain;
    Writer writer;
    writer.begin_object();
    writer.key("x509_rows");
    writer.begin_array();
    bool complete = true;
    for (const std::string& fuid : fuids) {
      const auto it = by_fuid.find(fuid);
      if (it == by_fuid.end()) {
        complete = false;
        break;
      }
      writer.value_string(zeek::render_x509_row(*it->second));
      chain.push_back(zeek::certificate_from_record(*it->second));
    }
    if (!complete) continue;
    writer.end_array();
    writer.end_object();
    PoolRequest& request = add(kChain, kCategorizeChain, std::move(writer).str());
    request.category = chain::chain_category_name(
        chain::categorize_chain(chain, stores, interception));
    request.length = chain.length();
  }

  // report_section: small sections and the full report, byte-equal to the
  // offline render of the reference analysis.
  for (const char* section : {"totals", "categories", "ct", "full"}) {
    Writer writer;
    writer.begin_object();
    writer.key("section");
    writer.value_string(section);
    writer.key("generation");
    writer.value_uint(0);
    writer.key("text");
    writer.value_string(core::render_report_text(reference, section_options(section)));
    writer.end_object();
    add(std::string_view(section) == "full" ? kReportFull : kReportSmall,
        kReportSection, one_field("section", section))
        .exact_payload = std::move(writer).str();
  }

  // ct_prove_inclusion: logged fingerprints (the daemon answers from the
  // first log holding each) plus fingerprints no log holds.
  std::size_t total_entries = 0;
  for (std::size_t i = 0; i < ct_logs.log_count(); ++i) {
    total_entries += ct_logs.log(i).size();
  }
  const std::size_t stride = std::max<std::size_t>(1, total_entries / kPoolPerClass);
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < ct_logs.log_count(); ++i) {
    for (const auto& entry : ct_logs.log(i).entries()) {
      if (ordinal++ % stride != 0) continue;
      const std::string& fingerprint = entry.certificate_fingerprint;
      for (std::size_t j = 0; j < ct_logs.log_count(); ++j) {
        const ct::CtLog& log = ct_logs.log(j);
        const auto index = log.entry_index_for(fingerprint);
        if (!index) continue;
        PoolRequest& request =
            add(kCtLogged, kCtProveInclusion, one_field("fingerprint", fingerprint));
        request.log_id = log.log_id();
        request.index = *index;
        request.tree_size = log.size();
        request.root = log.root_hash();
        request.leaf = log.leaf_hash_at(*index);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < 64; ++i) {
    add(kCtUnknown, kCtProveInclusion, one_field("fingerprint", rng.hex_string(64)))
        .expect_not_found = true;
  }

  // Each of the five endpoints gets a fifth of the requests, split evenly
  // between its kinds. No production traffic was measured, so the mix makes
  // no claim to realism: it exercises every read path alike.
  std::vector<double> weights(kClassCount, 1.0);
  weights[kPingClass] = 2.0;
  weights[kChain] = 2.0;
  for (int cls = 0; cls < kClassCount; ++cls) {
    if (classes_[cls].empty()) weights[cls] = 0.0;
  }
  class_cdf_ = cdf(weights);
}

const PoolRequest& RequestPool::pick(util::Rng& rng) const {
  const std::size_t cls = draw(class_cdf_, rng);
  const auto& requests = classes_[cls];
  if (cls == kIssuerSeen) return requests[draw(seen_issuer_cdf_, rng)];
  return requests[rng.next_below(requests.size())];
}

bool RequestPool::check(const PoolRequest& request, const svc::Frame& frame,
                        bool strict) {
  if (request.expect_not_found) {
    if (frame.type != svc::MessageType::kError) return false;
    const auto payload = obs::json::parse(frame.payload);
    const obs::json::Value* code = payload ? payload->find("code") : nullptr;
    return code != nullptr && code->is_string() &&
           code->string == svc::error_code_name(svc::ErrorCode::kNotFound);
  }
  if (frame.type != svc::response_for(request_type(request.endpoint))) return false;
  // classify_issuer answers depend only on the immutable trust stores.
  if (!request.exact_payload.empty() &&
      (strict || request.endpoint == kClassifyIssuer)) {
    return frame.payload == request.exact_payload;
  }
  if (request.endpoint == kCategorizeChain) {
    const auto payload = obs::json::parse(frame.payload);
    if (!payload) return false;
    const obs::json::Value* category = payload->find("category");
    const obs::json::Value* length = payload->find("length");
    if (length == nullptr || !length->is_number() ||
        length->num != static_cast<double>(request.length)) {
      return false;
    }
    return !strict ||
           (category != nullptr && category->is_string() &&
            category->string == request.category);
  }
  if (request.endpoint == kCtProveInclusion) {
    const auto payload = obs::json::parse(frame.payload);
    if (!payload) return false;
    const auto* log_id = payload->find("log_id");
    const auto* index = payload->find("index");
    const auto* tree_size = payload->find("tree_size");
    const auto* root = payload->find("root");
    const auto* proof = payload->find("proof");
    if (log_id == nullptr || index == nullptr || tree_size == nullptr ||
        root == nullptr || proof == nullptr || !proof->is_array() ||
        log_id->string != request.log_id ||
        index->num != static_cast<double>(request.index) ||
        tree_size->num != static_cast<double>(request.tree_size) ||
        root->string != request.root.to_hex()) {
      return false;
    }
    std::vector<util::Digest256> path;
    for (const auto& node : proof->array) {
      util::Digest256 digest;
      if (!node.is_string() || !util::Digest256::from_hex(node.string, digest)) {
        return false;
      }
      path.push_back(digest);
    }
    return ct::verify_inclusion_hash(request.leaf, request.index, request.tree_size,
                                     path, request.root);
  }
  return true;
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
}

bool LoadGen::connect(std::uint16_t port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd);
      return false;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    conns_.emplace_back().fd = fd;
  }
  return true;
}

void LoadGen::fail_connection(Conn& conn, PhaseResult& result) {
  for (const InFlight& lost : conn.inflight) {
    result.latency_ms.push_back(kFailedLatencyMs);
    result.endpoint_ms[lost.request->endpoint].push_back(kFailedLatencyMs);
    result.tally.record(false);
  }
  conn.inflight.clear();
  if (conn.fd >= 0) close(conn.fd);
  conn.fd = -1;
}

PhaseResult LoadGen::run(const Phase& phase) {
  PhaseResult result;
  result.offered_rps = phase.rate;
  const double t0 = now_s();
  const double window_end = t0 + phase.seconds;
  double closed_at = 0.0;
  double drain_deadline = 0.0;
  bool window_open = true;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  double last_answer = t0;
  double next_due = t0;
  std::vector<pollfd> fds(conns_.size());
  std::vector<char> buffer(256 * 1024);

  const auto inflight_total = [this] {
    std::size_t total = 0;
    for (const Conn& conn : conns_) total += conn.inflight.size();
    return total;
  };

  while (true) {
    double now = now_s();
    if (window_open) {
      const bool stopped =
          phase.stop != nullptr && phase.stop->load(std::memory_order_acquire);
      while (!stopped && next_due <= now && next_due < window_end) {
        const PoolRequest& request = pool_->pick(rng_);
        Conn& conn = conns_[issued % conns_.size()];
        if (conn.fd >= 0) {
          conn.outbox += request.wire;
          conn.inflight.push_back({&request, next_due});
          ++sent_;
        } else {
          result.latency_ms.push_back(kFailedLatencyMs);
          result.endpoint_ms[request.endpoint].push_back(kFailedLatencyMs);
          result.tally.record(false);
        }
        result.late_ms.push_back((now - next_due) * 1000.0);
        ++issued;
        next_due = t0 + static_cast<double>(issued) / phase.rate;
      }
      if (stopped || next_due >= window_end) {
        window_open = false;
        closed_at = std::min(now, window_end);
        drain_deadline = now + phase.drain_s;
        result.outstanding_at_window_end = inflight_total();
      }
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      while (conn.fd >= 0 && conn.offset < conn.outbox.size()) {
        const ssize_t put = send(conn.fd, conn.outbox.data() + conn.offset,
                                 conn.outbox.size() - conn.offset, MSG_NOSIGNAL);
        if (put > 0) {
          conn.offset += static_cast<std::size_t>(put);
        } else if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (put < 0 && errno == EINTR) {
          continue;
        } else {
          fail_connection(conn, result);
        }
      }
      if (conn.offset == conn.outbox.size()) {
        conn.outbox.clear();
        conn.offset = 0;
      }
    }

    if (!window_open) {
      if (inflight_total() == 0) break;
      if (now > drain_deadline) {
        for (Conn& conn : conns_) fail_connection(conn, result);
        break;
      }
    }

    const double wait_s = std::clamp(
        (window_open ? next_due : drain_deadline) - now, 0.0, 0.05);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].offset < conns_[i].outbox.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (conn.fd < 0 || (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      // Every answer in this read arrived now; checking them (JSON parses,
      // proof verification) must not count as the daemon's latency.
      const double received = now_s();
      while (true) {
        const ssize_t got = recv(conn.fd, buffer.data(), buffer.size(), 0);
        if (got > 0) {
          conn.reader.feed(std::string_view(buffer.data(), static_cast<std::size_t>(got)));
          // ACK every answer at once. The daemon's sockets keep Nagle on, so
          // with the kernel's adaptive delayed ACK its pipelined answers
          // would wait for our next request or the 40 ms ACK timer, turning
          // read latency into a bimodal function of kernel heuristics.
          const int one = 1;
          setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_connection(conn, result);  // closed or broken
        break;
      }
      while (true) {
        svc::DecodeResult decoded = conn.reader.next();
        if (decoded.status == svc::DecodeResult::Status::kNeedMore) break;
        if (decoded.status == svc::DecodeResult::Status::kError ||
            conn.inflight.empty()) {
          fail_connection(conn, result);
          break;
        }
        const InFlight done = conn.inflight.front();
        conn.inflight.pop_front();
        const bool ok = RequestPool::check(*done.request, decoded.frame, phase.strict);
        last_answer = received;
        const double latency = ok ? (received - done.due_s) * 1000.0 : kFailedLatencyMs;
        result.latency_ms.push_back(latency);
        result.endpoint_ms[done.request->endpoint].push_back(latency);
        result.tally.record(ok);
        ++answered;
      }
    }
  }
  result.window_s = std::max(1e-9, closed_at - t0);
  // Answers drained after the window stretch the denominator, so a backlog
  // never reads as extra throughput.
  result.achieved_rps = static_cast<double>(answered) /
                        std::max(result.window_s, last_answer - t0);
  return result;
}

}  // namespace perfbench
