#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace amrio::obs {
namespace {

constexpr double kEps = 1e-9;

// Total order used to break ties when choosing the next chain span: prefer
// the latest-ending, then latest-starting, then lowest id (deterministic).
bool better_candidate(const Span& a, const Span& b) {
  if (a.end != b.end) return a.end > b.end;
  if (a.start != b.start) return a.start > b.start;
  return a.id < b.id;
}

}  // namespace

CriticalPathReport critical_path(const std::vector<Span>& spans,
                                 const std::vector<SpanEdge>& edges) {
  CriticalPathReport report;
  if (spans.empty()) return report;
  const std::size_t n = spans.size();

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(n);
  for (std::size_t i = 0; i < n; ++i) by_id.emplace(spans[i].id, i);

  std::vector<std::vector<std::size_t>> incoming(n);
  for (const SpanEdge& e : edges) {
    auto from = by_id.find(e.from);
    auto to = by_id.find(e.to);
    if (from != by_id.end() && to != by_id.end())
      incoming[to->second].push_back(from->second);
  }

  // Every span in chain-preference order: the walk starts at order[0], and
  // the time-adjacency fallback is always the first unvisited entry of the
  // suffix ending at or before the coverage frontier.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return better_candidate(spans[a], spans[b]);
                   });

  report.t0 = spans.front().start;
  report.t1 = spans.front().end;
  for (const Span& s : spans) {
    report.t0 = std::min(report.t0, s.start);
    report.t1 = std::max(report.t1, s.end);
  }
  report.makespan = report.t1 - report.t0;

  std::map<std::string, double> stage_seconds;
  std::map<std::string, double> resource_wait;
  std::vector<char> visited(n, 0);
  double upper = report.t1;  // everything in [upper, t1] is attributed
  // `upper` never increases, so the spans ending at or before it form a
  // shrinking suffix of `order`; every entry before `cursor` is visited or
  // ends too late, and stays so for the rest of the walk.
  auto cursor = order.cbegin();
  const Span* cur = &spans[order.front()];

  while (cur != nullptr) {
    const auto at = static_cast<std::size_t>(cur - spans.data());
    visited[at] = 1;
    report.chain.push_back(cur->id);
    const double seg_end = std::min(cur->end, upper);
    const double seg_start = std::min(cur->start, seg_end);
    if (seg_end > seg_start) stage_seconds[cur->stage] += seg_end - seg_start;
    if (cur->wait > 0 && !cur->resource.empty())
      resource_wait[cur->resource] += cur->wait;
    upper = std::min(upper, seg_start);

    // Predecessor: the latest-ending unvisited source of an incoming
    // happens-before edge, else the latest-ending unvisited span that ends
    // at or before the current coverage frontier (time adjacency).
    const Span* pred = nullptr;
    for (std::size_t src : incoming[at]) {
      if (visited[src]) continue;
      if (pred == nullptr || better_candidate(spans[src], *pred))
        pred = &spans[src];
    }
    if (pred == nullptr) {
      const double limit = upper + kEps;
      cursor = std::partition_point(
          cursor, order.cend(),
          [&](std::size_t i) { return spans[i].end > limit; });
      while (cursor != order.cend() && visited[*cursor]) ++cursor;
      if (cursor != order.cend()) pred = &spans[*cursor];
    }
    if (pred != nullptr) {
      const double gap = upper - pred->end;
      if (gap > kEps) {
        stage_seconds["compute"] += gap;
        upper = pred->end;
      }
    } else {
      const double gap = upper - report.t0;
      if (gap > kEps) stage_seconds["compute"] += gap;
    }
    cur = pred;
  }
  std::reverse(report.chain.begin(), report.chain.end());

  for (const auto& [stage, seconds] : stage_seconds) {
    StageShare share;
    share.stage = stage;
    share.seconds = seconds;
    share.frac = report.makespan > 0 ? seconds / report.makespan : 0.0;
    report.stages.push_back(std::move(share));
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageShare& a, const StageShare& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.stage < b.stage;
            });
  if (!report.stages.empty()) {
    report.critical_stage = report.stages.front().stage;
    report.critical_frac = report.stages.front().frac;
  }

  double best_wait = 0.0;
  for (const auto& [resource, wait] : resource_wait) {
    if (report.binding_resource.empty() || wait > best_wait) {
      report.binding_resource = resource;
      best_wait = wait;
    }
  }
  if (report.binding_resource.empty())
    report.binding_resource = report.critical_stage;

  return report;
}

std::string summarize(const CriticalPathReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s %.1f%% (binding: %s)",
                report.critical_stage.c_str(), 100.0 * report.critical_frac,
                report.binding_resource.c_str());
  return buf;
}

}  // namespace amrio::obs
