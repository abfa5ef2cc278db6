// Thread-safe telemetry facade for the service layer.
//
// obs::RunContext and MetricsRegistry are deliberately single-threaded (the
// batch pipeline records only on its coordinating thread, after each
// sharded stage's barrier, instead of locking, DESIGN.md §10). A server has no barriers — the event loop and
// request workers record concurrently — so the svc layer funnels every
// update through this small mutex-guarded wrapper. Request handling is
// milliseconds of work per lock acquisition; the lock is not a bottleneck
// at the queue depths the admission control allows.
//
// Serving metric families recorded through this facade (DESIGN.md §15):
//
//   stage.svc.requests.{in,admitted,dropped}  admission triple (reconciles)
//   svc.endpoint.<name>.{requests,errors,ms}  per-endpoint outcomes/latency
//   svc.connections.{accepted,rejected,closed,stalled_closed,idle_closed}
//   svc.connections.active                    gauge
//   svc.snapshot.published                    RCU generations published
//   svc.snapshot.live                         gauge: snapshots not yet freed
//                                             (1 when quiescent; >1 while
//                                             readers pin old generations)
//   svc.eventloop.wakeups                     poller returns with ready events
//   svc.eventloop.completions                 worker responses routed back
//   svc.eventloop.partial_writes              flushes that left bytes queued
//                                             (peer socket buffer full)
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/export.hpp"
#include "obs/run_context.hpp"

namespace certchain::svc {

class SyncTelemetry {
 public:
  void count(std::string_view name, std::uint64_t delta = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    context_.metrics.count(name, delta);
  }

  void set_gauge(std::string_view name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    context_.metrics.set_gauge(name, value);
  }

  void observe_timing(std::string_view name, double ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    context_.metrics.observe_timing(name, ms);
  }

  void set_config(std::string_view key, std::string_view value) {
    std::lock_guard<std::mutex> lock(mutex_);
    context_.set_config(key, value);
  }

  std::uint64_t counter(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return context_.metrics.counter(name);
  }

  double gauge(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return context_.metrics.gauge(name);
  }

  /// The schema-versioned certchain.obs.metrics JSON document (the payload
  /// of the metrics endpoint).
  std::string export_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return obs::export_metrics_json(context_);
  }

 private:
  mutable std::mutex mutex_;
  obs::RunContext context_;
};

}  // namespace certchain::svc
