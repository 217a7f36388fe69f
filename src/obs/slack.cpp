#include "obs/slack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace amrio::obs {
namespace {

constexpr double kEps = 1e-9;
constexpr int kMaxPasses = 128;  // >= longest out-of-order dependency chain

}  // namespace

SpanDag build_span_dag(const std::vector<Span>& spans,
                       const std::vector<SpanEdge>& edges) {
  const std::size_t n = spans.size();
  SpanDag dag;
  dag.edge_preds.assign(n, {});
  dag.po_pred.assign(n, -1);
  dag.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) dag.order[i] = i;
  std::sort(dag.order.begin(), dag.order.end(),
            [&](std::size_t a, std::size_t b) {
              return span_less(spans[a], spans[b]);
            });

  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) by_id.emplace(spans[i].id, i);
  dag.children.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent == 0) continue;
    auto it = by_id.find(spans[i].parent);
    if (it != by_id.end() && it->second != i)
      dag.children[it->second].push_back(i);
  }
  for (const SpanEdge& e : edges) {
    auto from = by_id.find(e.from);
    auto to = by_id.find(e.to);
    if (from == by_id.end() || to == by_id.end()) continue;
    if (from->second == to->second) continue;
    dag.edge_preds[to->second].push_back(from->second);
  }

  // Program-order predecessor: per rank, spans sorted by end; for each span
  // without edge predecessors, the latest-ending earlier span whose end is
  // at or before this span's start. "Earlier" is the global order — this
  // keeps the relation acyclic even among zero-duration spans sharing a
  // timestamp.
  std::map<int, std::vector<std::size_t>> by_rank;
  for (std::size_t i = 0; i < n; ++i) by_rank[spans[i].rank].push_back(i);
  for (auto& [rank, idx] : by_rank) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].end != spans[b].end) return spans[a].end < spans[b].end;
      return span_less(spans[a], spans[b]);
    });
    for (std::size_t i : idx) {
      if (!dag.edge_preds[i].empty()) continue;
      const double release = spans[i].start + kEps;
      // Last end-sorted entry with end <= release that precedes i globally.
      auto it = std::upper_bound(idx.begin(), idx.end(), release,
                                 [&](double t, std::size_t j) {
                                   return t < spans[j].end;
                                 });
      while (it != idx.begin()) {
        --it;
        if (*it != i && span_less(spans[*it], spans[i])) {
          dag.po_pred[i] = static_cast<std::ptrdiff_t>(*it);
          break;
        }
      }
    }
  }
  return dag;
}

SlackReport slack_analysis(const std::vector<Span>& spans,
                           const std::vector<SpanEdge>& edges,
                           std::size_t top_k) {
  return slack_analysis(spans, build_span_dag(spans, edges), top_k);
}

SlackReport slack_analysis(const std::vector<Span>& spans, const SpanDag& dag,
                           std::size_t top_k) {
  SlackReport rep;
  const std::size_t n = spans.size();
  if (n == 0) return rep;

  rep.t0 = spans[0].start;
  rep.t1 = spans[0].end;
  for (const Span& s : spans) {
    rep.t0 = std::min(rep.t0, s.start);
    rep.t1 = std::max(rep.t1, s.end);
  }
  rep.makespan = rep.t1 - rep.t0;

  // Forward: dependency-only earliest start — resource-induced lags (edge
  // gaps, program-order release offsets) are dropped, so `start -
  // earliest_start` measures how much delay contention injected.
  std::vector<double> es(n), ee(n);
  for (std::size_t i = 0; i < n; ++i) {
    es[i] = spans[i].start;
    ee[i] = spans[i].end;
  }
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (std::size_t i : dag.order) {
      double t = spans[i].start;
      if (!dag.edge_preds[i].empty()) {
        t = -std::numeric_limits<double>::infinity();
        for (std::size_t p : dag.edge_preds[i])
          t = std::max(t, ee[p] + std::min(0.0, spans[i].start - spans[p].end));
      } else if (dag.po_pred[i] >= 0) {
        t = ee[static_cast<std::size_t>(dag.po_pred[i])];
      }
      t = std::min(t, spans[i].start);  // earliest can only move left
      const double e = t + (spans[i].end - spans[i].start);
      if (std::abs(t - es[i]) > 1e-15) changed = true;
      es[i] = t;
      ee[i] = e;
    }
    if (!changed) break;
  }

  // Successor constraints for the backward pass, with the what-if replay's
  // lag semantics: edges carry lag min(0, gap) (gaps are compressible),
  // program-order links keep their recorded lag (fixed release offsets).
  struct Succ {
    std::size_t to;
    double lag;
  };
  std::vector<std::vector<Succ>> succs(n);
  std::vector<bool> has_succ(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (!dag.edge_preds[i].empty()) {
      for (std::size_t p : dag.edge_preds[i]) {
        succs[p].push_back({i, std::min(0.0, spans[i].start - spans[p].end)});
        has_succ[p] = true;
      }
    } else if (dag.po_pred[i] >= 0) {
      const std::size_t p = static_cast<std::size_t>(dag.po_pred[i]);
      succs[p].push_back({i, spans[i].start - spans[p].end});
      has_succ[p] = true;
    }
  }

  // Backward: latest end that keeps every successor (and ultimately t1)
  // where it is. Terminal spans may drift to t1 itself.
  std::vector<double> lf(n, rep.t1);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
      const std::size_t i = *it;
      double t = rep.t1;
      for (const Succ& sc : succs[i]) {
        const double ls =
            lf[sc.to] - (spans[sc.to].end - spans[sc.to].start) - sc.lag;
        t = std::min(t, ls);
      }
      if (std::abs(t - lf[i]) > 1e-15) changed = true;
      lf[i] = t;
    }
    if (!changed) break;
  }

  rep.spans.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    rep.spans[i].id = spans[i].id;
    rep.spans[i].earliest_start = es[i];
    rep.spans[i].latest_end = lf[i];
    rep.spans[i].slack = lf[i] - spans[i].end;
  }

  // Top-k near-critical chains: the k terminal spans with the least slack,
  // each walked back through its minimum-slack predecessor.
  std::vector<std::size_t> terminals;
  for (std::size_t i = 0; i < n; ++i)
    if (!has_succ[i]) terminals.push_back(i);
  std::sort(terminals.begin(), terminals.end(),
            [&](std::size_t a, std::size_t b) {
              const double sa = rep.spans[a].slack;
              const double sb = rep.spans[b].slack;
              if (std::abs(sa - sb) > kEps) return sa < sb;
              if (spans[a].end != spans[b].end)
                return spans[a].end > spans[b].end;
              return spans[a].id < spans[b].id;
            });
  if (terminals.size() > top_k) terminals.resize(top_k);
  for (std::size_t t : terminals) {
    SlackPath path;
    path.slack = rep.spans[t].slack;
    std::size_t cur = t;
    for (;;) {
      path.chain.push_back(cur);
      std::ptrdiff_t best = -1;
      auto consider = [&](std::size_t p) {
        if (best < 0) {
          best = static_cast<std::ptrdiff_t>(p);
          return;
        }
        const std::size_t b = static_cast<std::size_t>(best);
        const double sp = rep.spans[p].slack;
        const double sb = rep.spans[b].slack;
        if (std::abs(sp - sb) > kEps) {
          if (sp < sb) best = static_cast<std::ptrdiff_t>(p);
          return;
        }
        if (spans[p].end != spans[b].end) {
          if (spans[p].end > spans[b].end)
            best = static_cast<std::ptrdiff_t>(p);
          return;
        }
        if (spans[p].id < spans[b].id) best = static_cast<std::ptrdiff_t>(p);
      };
      if (!dag.edge_preds[cur].empty()) {
        for (std::size_t p : dag.edge_preds[cur]) consider(p);
      } else if (dag.po_pred[cur] >= 0) {
        consider(static_cast<std::size_t>(dag.po_pred[cur]));
      }
      if (best < 0) break;
      cur = static_cast<std::size_t>(best);
    }
    std::reverse(path.chain.begin(), path.chain.end());
    rep.near_critical.push_back(std::move(path));
  }
  return rep;
}

}  // namespace amrio::obs
