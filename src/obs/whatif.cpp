#include "obs/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/critical_path.hpp"
#include "util/json.hpp"

namespace amrio::obs {
namespace {

constexpr int kMaxPasses = 128;

double effective_scale(double bind_a, double bind_b, double factor) {
  // Service is bytes / min(a, b); relieving `a` by `factor` scales it by
  // min(a, b) / min(factor*a, b). Unknown rates (0) degrade to 1/factor.
  if (bind_a <= 0.0 || bind_b <= 0.0) return 1.0 / factor;
  return std::min(bind_a, bind_b) / std::min(factor * bind_a, bind_b);
}

}  // namespace

bool group_serves(const std::string& group, const std::string& res) {
  if (res.empty()) return false;
  if (group == "ost") return res.starts_with("ost[");
  if (group == "bb_drain")
    return res.starts_with("bb[") && res.ends_with(".drain");
  if (group == "agg_link") return res == "agg_link";
  if (group == "codec_cpu") return res == "codec_cpu";
  return false;
}

bool group_queues(const std::string& group, const std::string& resource) {
  if (resource.empty()) return false;
  if (group == "ost") return resource == "ost_queue";
  if (group == "bb_drain") return resource == "drain_stream";
  if (group == "agg_link") return resource == "agg_link";
  if (group == "codec_cpu") return resource == "codec_cpu";
  return false;
}

std::vector<Scenario> standard_scenarios(double factor,
                                         const ReliefKnobs& knobs) {
  std::vector<Scenario> out;
  {
    Scenario sc;
    sc.resource = "ost";
    sc.factor = factor;
    sc.service_scale =
        effective_scale(knobs.ost_bandwidth, knobs.client_bandwidth, factor);
    sc.wait_scale = sc.service_scale;
    out.push_back(std::move(sc));
  }
  {
    Scenario sc;
    sc.resource = "bb_drain";
    sc.factor = factor;
    sc.service_scale =
        effective_scale(knobs.drain_bandwidth, knobs.ost_bandwidth, factor);
    sc.wait_scale = sc.service_scale;
    out.push_back(std::move(sc));
  }
  {
    Scenario sc;
    sc.resource = "agg_link";
    sc.factor = factor;
    sc.service_scale = 1.0 / factor;
    sc.wait_scale = sc.service_scale;
    out.push_back(std::move(sc));
  }
  {
    Scenario sc;
    sc.resource = "codec_cpu";
    sc.factor = factor;
    sc.service_scale = 1.0 / factor;
    sc.wait_scale = sc.service_scale;
    out.push_back(std::move(sc));
  }
  return out;
}

WhatIfResult what_if(const std::vector<Span>& spans,
                     const std::vector<SpanEdge>& edges, const Scenario& sc) {
  return what_if(spans, build_span_dag(spans, edges), sc);
}

WhatIfResult what_if(const std::vector<Span>& spans, const SpanDag& dag,
                     const Scenario& sc) {
  WhatIfResult res;
  res.scenario = sc;
  const std::size_t n = spans.size();
  if (n == 0) return res;

  // Scaled durations: the fixed part (neither queued nor served — mds
  // latency, per-message link latency, interference outside the group's
  // pools) never shrinks. A span's wait+service can exceed its interval
  // when it aggregates concurrent work (the --trace_sample per-stage
  // envelopes sum wait/service over every rank); normalize both down to
  // the interval so the replay scales the whole span at the aggregate
  // wait:service ratio instead of exploding past the recorded timeline.
  std::vector<double> dur(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    res.baseline_makespan = std::max(res.baseline_makespan, s.end);
    const double recorded = s.end - s.start;
    double s_wait = s.wait;
    double s_service = s.service;
    if (s_wait + s_service > recorded && s_wait + s_service > 0.0) {
      const double shrink = recorded / (s_wait + s_service);
      s_wait *= shrink;
      s_service *= shrink;
    }
    const double fixed = std::max(0.0, recorded - s_wait - s_service);
    const double service =
        s_service *
        (group_serves(sc.resource, s.res) ? sc.service_scale : 1.0);
    const double wait =
        s_wait * (group_queues(sc.resource, s.resource) ? sc.wait_scale : 1.0);
    dur[i] = fixed + wait + service;
  }

  // Container spans (spans with children — the driver's dump/restart phase
  // spans, absorb spans with a nested stall) summarize their children's
  // work: their recorded duration is the children's time, not their own, so
  // treating it as incompressible would floor every prediction at the
  // recorded phase end. Their replayed end is derived from the children
  // instead, keeping any recorded tail past the last child.
  std::vector<double> tail(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (dag.children[i].empty()) continue;
    double last_child = -std::numeric_limits<double>::infinity();
    for (std::size_t c : dag.children[i])
      last_child = std::max(last_child, spans[c].end);
    tail[i] = std::max(0.0, spans[i].end - last_child);
  }

  // Forward schedule under the DAG's release rules. Iterative relaxation in
  // recorded order until a fixed point: overlap-preserving edges (prefetch
  // -> bb_read) can point "backward" in that order, so one sweep is not
  // always enough; the DAG is acyclic, so this converges.
  std::vector<double> ns(n), ne(n);
  for (std::size_t i = 0; i < n; ++i) {
    ns[i] = spans[i].start;
    ne[i] = ns[i] + dur[i];
  }
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (std::size_t i : dag.order) {
      double t;
      if (!dag.edge_preds[i].empty()) {
        t = -std::numeric_limits<double>::infinity();
        for (std::size_t p : dag.edge_preds[i])
          t = std::max(t, ne[p] + std::min(0.0, spans[i].start - spans[p].end));
      } else if (dag.po_pred[i] >= 0) {
        const std::size_t p = static_cast<std::size_t>(dag.po_pred[i]);
        t = ne[p] + (spans[i].start - spans[p].end);
      } else {
        t = spans[i].start;
      }
      double e;
      if (!dag.children[i].empty()) {
        double last_child = -std::numeric_limits<double>::infinity();
        for (std::size_t c : dag.children[i])
          last_child = std::max(last_child, ne[c]);
        e = std::max(t, last_child + tail[i]);
      } else {
        e = t + dur[i];
      }
      if (std::abs(t - ns[i]) > 1e-15 || std::abs(e - ne[i]) > 1e-15)
        changed = true;
      ns[i] = t;
      ne[i] = e;
    }
    if (!changed) break;
  }
  for (std::size_t i = 0; i < n; ++i)
    res.predicted_makespan = std::max(res.predicted_makespan, ne[i]);
  return res;
}

ExplainReport explain(const std::vector<Span>& spans,
                      const std::vector<SpanEdge>& edges,
                      const UtilizationReport& util,
                      const ReliefKnobs& knobs) {
  ExplainReport rep;
  const CriticalPathReport cp = critical_path(spans, edges);
  rep.makespan = cp.t1 - cp.t0;
  rep.critical_stage = cp.critical_stage;
  rep.critical_frac = cp.critical_frac;
  rep.binding_resource = cp.binding_resource;
  if (spans.empty()) return rep;

  const SpanDag dag = build_span_dag(spans, edges);
  const SlackReport slack = slack_analysis(spans, dag);
  const std::vector<Scenario> at15 = standard_scenarios(1.5, knobs);
  const std::vector<Scenario> at20 = standard_scenarios(2.0, knobs);

  for (std::size_t g = 0; g < at20.size(); ++g) {
    ResourceOutlook row;
    row.resource = at20[g].resource;
    for (const ResourceUtilization& u : util.resources)
      if (group_serves(row.resource, u.name))
        row.utilization = std::max(row.utilization, u.busy_frac);
    // Slack-weighted exposure: seconds this group is serving or being
    // queued for, discounted by how far off the critical frontier the
    // span sits — busy seconds with no slack are fully exposed, busy
    // seconds a full makespan away from binding count for nothing.
    for (std::size_t i = 0; i < spans.size(); ++i) {
      double sec = 0.0;
      if (group_serves(row.resource, spans[i].res)) sec += spans[i].service;
      if (group_queues(row.resource, spans[i].resource)) sec += spans[i].wait;
      if (sec <= 0.0) continue;
      const double w =
          slack.makespan > 0.0
              ? std::max(0.0, 1.0 - slack.spans[i].slack / slack.makespan)
              : 1.0;
      row.exposure += sec * w;
    }
    row.predicted_15 = what_if(spans, dag, at15[g]).predicted_makespan;
    row.predicted_20 = what_if(spans, dag, at20[g]).predicted_makespan;
    // Shadow price: secant slope of makespan vs capacity through the 2x
    // point — seconds saved per one additional unit of current capacity.
    // Relief cannot hurt, so clamp the fixpoint's epsilon overshoot at zero.
    row.shadow_price =
        std::max(0.0, (rep.makespan - row.predicted_20) / (2.0 - 1.0));
    rep.resources.push_back(std::move(row));
  }
  std::sort(rep.resources.begin(), rep.resources.end(),
            [](const ResourceOutlook& a, const ResourceOutlook& b) {
              if (a.shadow_price != b.shadow_price)
                return a.shadow_price > b.shadow_price;
              return a.resource < b.resource;
            });
  return rep;
}

std::string explain_table(const ExplainReport& rep) {
  std::ostringstream os;
  char line[192];
  std::snprintf(line, sizeof(line), "makespan %.6f s, critical %s (%.1f%%)%s%s\n",
                rep.makespan, rep.critical_stage.c_str(),
                rep.critical_frac * 100.0,
                rep.binding_resource.empty() ? "" : ", binding: ",
                rep.binding_resource.c_str());
  os << line;
  std::snprintf(line, sizeof(line), "%-10s %6s %12s %14s %14s %12s\n",
                "resource", "util", "exposure_s", "makespan@1.5x",
                "makespan@2x", "shadow_s/x");
  os << line;
  for (const ResourceOutlook& r : rep.resources) {
    std::snprintf(line, sizeof(line),
                  "%-10s %5.1f%% %12.6f %14.6f %14.6f %12.6f\n",
                  r.resource.c_str(), r.utilization * 100.0, r.exposure,
                  r.predicted_15, r.predicted_20, r.shadow_price);
    os << line;
  }
  return os.str();
}

void write_explain_json(std::ostream& os, const ExplainReport& rep) {
  // Key order is part of the schema (schema_version first, fixed row keys,
  // rows ranked by shadow price) so the file diffs byte-stably across runs.
  // Bump `schema_version` on any layout change.
  util::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.key("schema_version").value(1);
  w.key("makespan").value(rep.makespan);
  w.key("critical_stage").value(rep.critical_stage);
  w.key("critical_frac").value(rep.critical_frac);
  w.key("binding_resource").value(rep.binding_resource);
  w.key("resources").begin_array();
  for (const ResourceOutlook& r : rep.resources) {
    w.begin_object();
    w.key("resource").value(r.resource);
    w.key("utilization").value(r.utilization);
    w.key("exposure_s").value(r.exposure);
    w.key("predicted_makespan_1_5x").value(r.predicted_15);
    w.key("predicted_makespan_2x").value(r.predicted_20);
    w.key("shadow_price_s").value(r.shadow_price);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

void export_explain(const std::string& path, const ExplainReport& rep) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("obs: cannot open " + path);
  write_explain_json(out, rep);
}

}  // namespace amrio::obs
