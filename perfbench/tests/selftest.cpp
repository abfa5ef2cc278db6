// Unit tests for the benchmark's own arithmetic (src/stats.*): the tail
// percentile rule, span self time, and the digest gate. Plain asserts so the
// benchmark package needs no test framework:
//
//   .bench_build/perfbench/perfbench_selftest    (exit 0 = all passed)
#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/run_context.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

void percentile_rule() {
  using perfbench::percentile;
  // 1000 samples: p99 has exactly 10 samples beyond it and is reported as is.
  expect(near(percentile(one_to(1000), 0.99), 990.0), "p99 of 1..1000 is 990");
  // 200 samples: p99 would have 2 beyond it; the rule lowers it to p95,
  // which leaves 10.
  expect(near(perfbench::effective_quantile(200, 0.99), 0.95), "200 samples -> p95");
  expect(near(percentile(one_to(200), 0.99), 190.0), "p99 of 1..200 reports p95 = 190");
  // Too few samples for any tail: never below the median.
  expect(near(perfbench::effective_quantile(12, 0.99), 0.5), "12 samples -> median");
  expect(near(percentile(one_to(12), 0.99), 6.0), "p99 of 1..12 reports the median");
  // The median itself is nearest-rank and untouched by the rule.
  expect(near(percentile(one_to(101), 0.5), 51.0), "median of 1..101");
  expect(near(perfbench::median({3.0}), 3.0), "median of one sample");
  expect(percentile({}, 0.99) == 0.0, "empty set reports 0");
  // Windowed: a stall confined to one of three windows does not move the
  // median window's tail.
  std::vector<double> stalled(1000, 1.0);  // a fast window
  for (const double v : one_to(1000)) stalled.push_back(v);  // p99 = 990
  for (const double v : one_to(1000)) stalled.push_back(v > 900 ? 1e6 : v);  // a stall
  expect(near(perfbench::windowed_percentile(stalled, 0.99, 1000), 990.0),
         "windowed p99 reports the median window");
  expect(near(perfbench::windowed_percentile(one_to(1000), 0.99, 5000), 990.0),
         "fewer samples than a window is one window");
}

void self_time() {
  using certchain::obs::Trace;
  Trace::Node parent;
  parent.name = "pipeline";
  parent.wall_ms = 100.0;
  const auto add = [&parent](const char* name, double ms) {
    auto child = std::make_unique<Trace::Node>();
    child->name = name;
    child->wall_ms = ms;
    parent.children.push_back(std::move(child));
  };
  add("enrich", 20.0);
  add("categorize", 30.0);
  expect(near(perfbench::self_ms(parent), 50.0), "self = span - sequential children");
  // Concurrent shard spans cover only their longest member.
  add("ct_compliance.shard0", 10.0);
  add("ct_compliance.shard1", 15.0);
  add("ct_compliance.shard2", 5.0);
  expect(near(perfbench::covered_child_ms(parent), 65.0), "shards cover their max");
  expect(near(perfbench::self_ms(parent), 35.0), "self with shard children");
  // Children can never cover more than the parent.
  add("graphs", 80.0);
  expect(near(perfbench::self_ms(parent), 0.0), "coverage capped at the span");
  expect(perfbench::find_span(parent, "graphs") != nullptr, "find_span hit");
  expect(perfbench::find_span(parent, "absent") == nullptr, "find_span miss");
  expect(perfbench::child_walls(parent, "ct_compliance.").size() == 3, "child_walls");
  expect(near(perfbench::skew({10.0, 15.0, 5.0}), 1.5), "skew = max/mean");
}

void digest_gate() {
  const auto all_good = perfbench::tally_digests({7, 7, 7}, 7);
  expect(all_good.attempted == 3 && all_good.failed == 0, "matching digests pass");
  const auto one_wrong = perfbench::tally_digests({7, 8, 7}, 7);
  expect(one_wrong.attempted == 3 && one_wrong.failed == 1,
         "a wrong digest counts as a failed op");
}

void slope_fit() {
  expect(near(perfbench::slope({1, 2, 3, 4}, {3, 5, 7, 9}), 2.0), "slope of a line");
  expect(near(perfbench::slope({2, 2}, {1, 5}), 0.0), "no x spread -> 0");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  digest_gate();
  slope_fit();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
