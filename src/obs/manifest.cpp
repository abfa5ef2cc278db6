#include "obs/manifest.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>

namespace certchain::obs {

namespace {

constexpr std::string_view kStagePrefix = "stage.";

void sum_matching_nodes(const Trace::Node& node, std::string_view name,
                        double& wall_ms, bool& found) {
  for (const auto& child : node.children) {
    if (child->name == name) {
      wall_ms += child->wall_ms;
      found = true;
    }
    sum_matching_nodes(*child, name, wall_ms, found);
  }
}

/// First-appearance order of every span name. `seen` keeps this linear: a
/// streamed run attaches one uniquely named span per chunk, tens of
/// thousands at small chunk sizes.
void collect_trace_order(const Trace::Node& node,
                         std::vector<std::string>& order,
                         std::unordered_set<std::string_view>& seen) {
  for (const auto& child : node.children) {
    if (seen.insert(child->name).second) order.push_back(child->name);
    collect_trace_order(*child, order, seen);
  }
}

}  // namespace

const StageManifest* RunManifest::stage(std::string_view name) const {
  for (const StageManifest& entry : stages) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

bool RunManifest::reconciles() const {
  return std::all_of(stages.begin(), stages.end(),
                     [](const StageManifest& s) { return s.reconciles(); });
}

RunManifest build_run_manifest(const RunContext& context) {
  RunManifest manifest;
  manifest.config = context.config;
  manifest.total_wall_ms = context.trace.total_ms();

  // Discover stages from the reserved counter triple. Counters are stored in
  // an ordered map, so this pass is deterministic.
  std::map<std::string, StageManifest> by_name;
  for (const auto& [name, value] : context.metrics.counters()) {
    if (name.rfind(kStagePrefix, 0) != 0) continue;
    const std::string_view rest =
        std::string_view(name).substr(kStagePrefix.size());
    const std::size_t dot = rest.rfind('.');
    if (dot == std::string_view::npos) continue;
    const std::string_view stage_name = rest.substr(0, dot);
    const std::string_view field = rest.substr(dot + 1);
    StageManifest& stage = by_name[std::string(stage_name)];
    stage.name = std::string(stage_name);
    if (field == "in") stage.records_in = value;
    else if (field == "admitted") stage.admitted = value;
    else if (field == "dropped") stage.dropped = value;
  }

  // Wall time: sum every trace node carrying the stage's name (a stage can
  // run once per input stream, e.g. "ingest" for ssl + x509).
  for (auto& [name, stage] : by_name) {
    sum_matching_nodes(context.trace.root(), name, stage.wall_ms, stage.timed);
  }

  // Order stages by first appearance in the trace (pipeline order); stages
  // that never opened a span follow alphabetically.
  std::vector<std::string> trace_order;
  std::unordered_set<std::string_view> seen;
  collect_trace_order(context.trace.root(), trace_order, seen);
  for (const std::string& name : trace_order) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) continue;
    manifest.stages.push_back(std::move(it->second));
    by_name.erase(it);
  }
  for (auto& [name, stage] : by_name) manifest.stages.push_back(std::move(stage));
  return manifest;
}

}  // namespace certchain::obs
