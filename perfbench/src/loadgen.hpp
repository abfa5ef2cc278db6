// Open-loop read traffic for the serving workloads.
//
// RequestPool pre-encodes a seeded mix of read requests over the corpus,
// each paired with the answer the offline analysis says the daemon must
// give. LoadGen drives them from one thread over a few non-blocking
// connections at a fixed offered rate: request i is *due* at t0 + i/rate and
// its latency is measured from that due time, not from when the generator
// got round to sending it, so a generator that falls behind cannot hide
// server queueing (no coordinated omission). How late the generator itself
// was is recorded separately; a phase whose generator missed its own bound
// is invalid, not fast. The generator ACKs every answer immediately
// (TCP_QUICKACK): the daemon leaves Nagle on, and a delayed-ACK client would
// see its pipelined answers held for the next request (about
// connections/rate) or the 40 ms ACK timer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "stats.hpp"
#include "svc/protocol.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum Endpoint : int {
  kPing,
  kClassifyIssuer,
  kCategorizeChain,
  kReportSection,
  kCtProveInclusion,
  kEndpointCount
};

/// Wire name of an endpoint (matches svc::message_type_name).
const char* endpoint_name(int endpoint);

/// Latency recorded for a refused or wrong answer: it misses every limit.
inline constexpr double kFailedLatencyMs = 1e6;

/// The generator's own bound: a phase whose send lateness p99 exceeds this
/// measured the generator, not the daemon.
inline constexpr double kGeneratorLateBoundMs = 10.0;

struct PoolRequest {
  int endpoint = kPing;
  std::string wire;  // encoded request frame
  /// Expected response payload bytes, when the answer is fully determined
  /// by the static corpus (checked in strict mode).
  std::string exact_payload;
  // categorize_chain expectations.
  std::string category;
  std::uint64_t length = 0;
  // ct_prove_inclusion expectations.
  bool expect_not_found = false;
  std::string log_id;
  std::uint64_t index = 0;
  std::uint64_t tree_size = 0;
  certchain::util::Digest256 root;
  certchain::util::Digest256 leaf;
};

class RequestPool {
 public:
  /// The serving mix over `corpus`; expected answers come from its
  /// reference analysis and its (immutable) trust stores and CT logs.
  explicit RequestPool(const Corpus& corpus);

  const PoolRequest& pick(certchain::util::Rng& rng) const;

  /// Checks one response. Strict mode compares against the static corpus
  /// byte for byte; live mode (the corpus grows underneath) checks only what
  /// appends cannot change.
  static bool check(const PoolRequest& request, const certchain::svc::Frame& frame,
                    bool strict);

 private:
  enum Class : int {
    kPingClass,
    kIssuerSeen,
    kIssuerUnseen,
    kChain,
    kReportSmall,
    kReportFull,
    kCtLogged,
    kCtUnknown,
    kClassCount
  };
  std::array<std::vector<PoolRequest>, kClassCount> classes_;
  std::vector<double> class_cdf_;
  std::vector<double> seen_issuer_cdf_;  // by x509 rows per issuer
};

struct Phase {
  double rate = 1000.0;     // offered requests per second
  double seconds = 1.0;     // offered window
  bool strict = true;
  const std::atomic<bool>* stop = nullptr;  // ends the window early when set
  double drain_s = 3.0;     // how long to wait for answers after the window
};

struct PhaseResult {
  double offered_rps = 0.0;
  double window_s = 0.0;
  double achieved_rps = 0.0;  // answered / (window + drain to the last answer)
  std::vector<double> latency_ms;  // every request; failures at kFailedLatencyMs
  std::array<std::vector<double>, kEndpointCount> endpoint_ms;
  std::vector<double> late_ms;     // send time minus due time
  std::uint64_t outstanding_at_window_end = 0;
  OpTally tally;

  double late_p99_ms() const { return percentile(late_ms, 0.99); }
  bool generator_valid() const { return late_p99_ms() <= kGeneratorLateBoundMs; }
};

class LoadGen {
 public:
  LoadGen(const RequestPool& pool, std::uint64_t seed) : pool_(&pool), rng_(seed) {}
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool connect(std::uint16_t port, std::size_t connections);
  PhaseResult run(const Phase& phase);
  /// Requests written to the daemon so far (for the admission triple).
  std::uint64_t sent() const { return sent_; }

 private:
  struct InFlight {
    const PoolRequest* request;
    double due_s;
  };
  struct Conn {
    int fd = -1;
    certchain::svc::FrameReader reader;
    std::string outbox;
    std::size_t offset = 0;
    std::deque<InFlight> inflight;
  };

  void fail_connection(Conn& conn, PhaseResult& result);

  const RequestPool* pool_;
  certchain::util::Rng rng_;
  std::vector<Conn> conns_;
  std::uint64_t sent_ = 0;
};

}  // namespace perfbench
