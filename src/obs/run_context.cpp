#include "obs/run_context.hpp"

namespace certchain::obs {

StageTimer::StageTimer(RunContext& context, std::string name)
    : metrics_(&context.metrics),
      metric_name_("time." + name + ".ms"),
      span_(context.trace.span(std::move(name))) {}

void StageTimer::stop() {
  if (stopped_) return;
  stopped_ = true;
  const double ms = span_.elapsed_ms();
  span_.stop();
  metrics_->observe_timing(metric_name_, ms);
}

}  // namespace certchain::obs
