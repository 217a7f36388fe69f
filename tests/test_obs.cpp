/// Tests for the observability layer (src/obs): span tracer determinism and
/// id scheme, concurrent recording into one tracer, the metrics registry
/// (counters / gauges / log-bucketed histograms / series), critical-path
/// attribution, the Chrome-trace and metrics exporters, and the
/// span-nesting/edge invariants on a full 32-rank agg+bb dump+restart
/// pipeline run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "obs/slack.hpp"
#include "obs/span.hpp"
#include "obs/stream.hpp"
#include "obs/whatif.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "util/rng.hpp"

namespace obs = amrio::obs;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;

namespace {

obs::Span make_span(int rank, const std::string& stage, double start,
                    double end, double wait = 0.0,
                    const std::string& resource = {}) {
  obs::Span s;
  s.rank = rank;
  s.stage = stage;
  s.start = start;
  s.end = end;
  s.wait = wait;
  s.resource = resource;
  return s;
}

}  // namespace

// --------------------------------------------------------------- tracer

TEST(Tracer, DeterministicIdsAndMergedOrder) {
  auto build = [] {
    obs::Tracer t;
    const auto a = t.record(make_span(0, "write", 0.0, 1.0));
    const auto b = t.record(make_span(1, "write", 0.5, 2.0));
    const auto c = t.record(make_span(0, "drain", 1.0, 3.0));
    t.edge(a, c);
    t.edge(b, c);
    return std::tuple{t.spans(), t.edges(), a, b, c};
  };
  const auto [spans1, edges1, a, b, c] = build();
  const auto [spans2, edges2, a2, b2, c2] = build();

  // id scheme: (rank+1) << 32 | per-rank seq, seq from 1 in program order
  EXPECT_EQ(a, (std::uint64_t{1} << 32) | 1);
  EXPECT_EQ(b, (std::uint64_t{2} << 32) | 1);
  EXPECT_EQ(c, (std::uint64_t{1} << 32) | 2);
  EXPECT_EQ(std::tuple(a, b, c), std::tuple(a2, b2, c2));

  // merged snapshot: ordered by (start, rank, id), identical across runs
  ASSERT_EQ(spans1.size(), 3u);
  EXPECT_EQ(spans1[0].id, a);
  EXPECT_EQ(spans1[1].id, b);
  EXPECT_EQ(spans1[2].id, c);
  ASSERT_EQ(edges1.size(), 2u);
  EXPECT_EQ(edges1[0].from, a);
  EXPECT_EQ(edges1[1].from, b);
  for (std::size_t i = 0; i < spans1.size(); ++i) {
    EXPECT_EQ(spans1[i].id, spans2[i].id);
    EXPECT_EQ(spans1[i].stage, spans2[i].stage);
  }
}

TEST(Tracer, ConcurrentRanksMergeToOneDeterministicStream) {
  // Per-rank program order is what matters: concurrent ranks recording into
  // one tracer must yield the same snapshot as a serial pass.
  auto build = [](bool threaded) {
    obs::Tracer t;
    auto body = [&t](int rank) {
      for (int i = 0; i < 50; ++i)
        t.record(make_span(rank, "s", i, i + 0.5));
    };
    if (threaded) {
      std::vector<std::thread> workers;
      for (int rank = 0; rank < 16; ++rank) workers.emplace_back(body, rank);
      for (auto& w : workers) w.join();
    } else {
      for (int rank = 0; rank < 16; ++rank) body(rank);
    }
    return t.spans();
  };
  const auto serial = build(false);
  const auto threaded = build(true);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].id, threaded[i].id);
    EXPECT_EQ(serial[i].rank, threaded[i].rank);
    EXPECT_DOUBLE_EQ(serial[i].start, threaded[i].start);
  }
}

// -------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesHistogramsSeries) {
  obs::MetricsRegistry m;
  m.add("bytes", 10);
  m.add("bytes", 32);
  m.gauge_max("peak", 5.0);
  m.gauge_max("peak", 4.0);  // max wins
  m.observe("lat", 3e-9, 1e-9);  // 3 units -> bucket 1 ([2,4))
  m.observe("lat", 0.0, 1e-9);   // zero units -> bucket -1
  m.observe("lat", 9e-9, 1e-9);  // 9 units -> bucket 3 ([8,16))
  m.sample("occ", 1.0, 100.0);
  m.sample("occ", 2.0, 50.0);

  const obs::MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.counters.at("bytes"), 42);
  EXPECT_DOUBLE_EQ(snap.gauges.at("peak"), 5.0);
  const auto& h = snap.histograms.at("lat");
  EXPECT_EQ(h.count, 3);
  EXPECT_EQ(h.sum_units, 12);
  EXPECT_DOUBLE_EQ(h.sum(), 12e-9);
  EXPECT_DOUBLE_EQ(h.mean(), 4e-9);
  EXPECT_EQ(h.buckets.at(-1), 1);
  EXPECT_EQ(h.buckets.at(1), 1);
  EXPECT_EQ(h.buckets.at(3), 1);
  const auto& ts = snap.series.at("occ").samples;
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[0].second, 100.0);
  EXPECT_DOUBLE_EQ(ts[1].second, 50.0);
}

TEST(Metrics, ConcurrentAddsCommute) {
  obs::MetricsRegistry m;
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w)
    workers.emplace_back([&m] {
      for (int i = 0; i < 1000; ++i) {
        m.add("n", 1);
        m.gauge_max("peak", static_cast<double>(i));
        m.observe("h", 2.5e-9, 1e-9);
      }
    });
  for (auto& w : workers) w.join();
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.counters.at("n"), 8000);
  EXPECT_DOUBLE_EQ(snap.gauges.at("peak"), 999.0);
  EXPECT_EQ(snap.histograms.at("h").count, 8000);
  EXPECT_EQ(snap.histograms.at("h").sum_units, 8000 * 3);  // llround(2.5) = 3
}

// -------------------------------------------------------- critical path

TEST(CriticalPath, EdgeWalkAttributesStagesAndBindingResource) {
  obs::Tracer t;
  const auto a = t.record(make_span(0, "write", 0.0, 2.0, 1.5, "ost_queue"));
  const auto b =
      t.record(make_span(1, "drain", 2.0, 5.0, 0.5, "drain_stream"));
  t.record(make_span(2, "write", 0.0, 1.0));  // off the path
  t.edge(a, b);

  const obs::CriticalPathReport cp = obs::critical_path(t.spans(), t.edges());
  EXPECT_DOUBLE_EQ(cp.makespan, 5.0);
  EXPECT_EQ(cp.critical_stage, "drain");
  EXPECT_DOUBLE_EQ(cp.critical_frac, 0.6);
  EXPECT_EQ(cp.binding_resource, "ost_queue");  // 1.5s > 0.5s of wait
  ASSERT_EQ(cp.chain.size(), 2u);
  EXPECT_EQ(cp.chain[0], a);
  EXPECT_EQ(cp.chain[1], b);
  double total = 0.0;
  for (const auto& s : cp.stages) total += s.seconds;
  EXPECT_DOUBLE_EQ(total, cp.makespan);  // attribution is exhaustive
}

TEST(CriticalPath, GapsBecomeCompute) {
  obs::Tracer t;
  t.record(make_span(0, "dump", 0.0, 1.0));
  t.record(make_span(0, "dump", 3.0, 5.0));  // 2s idle gap in between

  const obs::CriticalPathReport cp = obs::critical_path(t.spans(), t.edges());
  EXPECT_DOUBLE_EQ(cp.makespan, 5.0);
  double dump = 0.0, compute = 0.0;
  for (const auto& s : cp.stages) {
    if (s.stage == "dump") dump = s.seconds;
    if (s.stage == "compute") compute = s.seconds;
  }
  EXPECT_DOUBLE_EQ(dump, 3.0);
  EXPECT_DOUBLE_EQ(compute, 2.0);
  EXPECT_EQ(cp.critical_stage, "dump");
}

TEST(CriticalPath, EmptyStreamYieldsZeroReport) {
  const obs::CriticalPathReport cp = obs::critical_path({}, {});
  EXPECT_DOUBLE_EQ(cp.makespan, 0.0);
  EXPECT_TRUE(cp.stages.empty());
}

namespace {

// The original backward walk, kept verbatim as the oracle for the sorted
// fallback: each step without an unvisited edge predecessor rescans every
// span for the best one ending at or before the coverage frontier.
bool reference_better(const obs::Span& a, const obs::Span& b) {
  if (a.end != b.end) return a.end > b.end;
  if (a.start != b.start) return a.start > b.start;
  return a.id < b.id;
}

obs::CriticalPathReport reference_critical_path(
    const std::vector<obs::Span>& spans,
    const std::vector<obs::SpanEdge>& edges) {
  constexpr double kEps = 1e-9;
  obs::CriticalPathReport report;
  if (spans.empty()) return report;

  std::unordered_map<std::uint64_t, const obs::Span*> by_id;
  for (const obs::Span& s : spans) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t, std::vector<const obs::Span*>> incoming;
  for (const obs::SpanEdge& e : edges) {
    auto it = by_id.find(e.from);
    if (it != by_id.end()) incoming[e.to].push_back(it->second);
  }

  report.t0 = spans.front().start;
  report.t1 = spans.front().end;
  const obs::Span* cur = &spans.front();
  for (const obs::Span& s : spans) {
    report.t0 = std::min(report.t0, s.start);
    report.t1 = std::max(report.t1, s.end);
    if (reference_better(s, *cur)) cur = &s;
  }
  report.makespan = report.t1 - report.t0;

  std::map<std::string, double> stage_seconds;
  std::map<std::string, double> resource_wait;
  std::unordered_set<std::uint64_t> visited;
  double upper = report.t1;
  while (cur != nullptr) {
    visited.insert(cur->id);
    report.chain.push_back(cur->id);
    const double seg_end = std::min(cur->end, upper);
    const double seg_start = std::min(cur->start, seg_end);
    if (seg_end > seg_start) stage_seconds[cur->stage] += seg_end - seg_start;
    if (cur->wait > 0 && !cur->resource.empty())
      resource_wait[cur->resource] += cur->wait;
    upper = std::min(upper, seg_start);

    const obs::Span* pred = nullptr;
    auto in_it = incoming.find(cur->id);
    if (in_it != incoming.end()) {
      for (const obs::Span* src : in_it->second) {
        if (visited.count(src->id)) continue;
        if (pred == nullptr || reference_better(*src, *pred)) pred = src;
      }
    }
    if (pred == nullptr) {
      for (const obs::Span& s : spans) {
        if (s.end > upper + kEps || visited.count(s.id)) continue;
        if (pred == nullptr || reference_better(s, *pred)) pred = &s;
      }
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
    obs::StageShare share;
    share.stage = stage;
    share.seconds = seconds;
    share.frac = report.makespan > 0 ? seconds / report.makespan : 0.0;
    report.stages.push_back(std::move(share));
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const obs::StageShare& a, const obs::StageShare& b) {
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

// One seeded random stream built to hit every tie the walk breaks: times on
// a coarse grid (ties in end and start, zero-duration spans) nudged by
// sub-kEps and near-kEps offsets (ends within 1e-9 of each other and of the
// frontier), unique ids shuffled against the time order, and edges that
// overlap their target, point back in time (a source already on the chain),
// loop onto themselves, or name no span at all.
struct RandomStream {
  std::vector<obs::Span> spans;
  std::vector<obs::SpanEdge> edges;
};

RandomStream random_stream(std::uint64_t seed) {
  static const char* const kStages[] = {"write", "drain", "prefetch",
                                        "bb_read", "open"};
  static const char* const kResources[] = {"ost[0]", "ost[1]", "bb[0]",
                                           "drain_stream"};
  static const double kNudge[] = {0.0, 0.0, 0.0, 4e-10, -4e-10,
                                  1e-9, -1e-9, 1.5e-9, -1.5e-9};
  std::mt19937_64 rng(seed);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto grid = [&] {
    return 0.25 * static_cast<double>(pick(24)) + kNudge[pick(9)];
  };

  RandomStream out;
  const std::size_t n = 1 + pick(seed % 8 == 0 ? 400 : 48);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i)
    ids[i] = (static_cast<std::uint64_t>(pick(8)) + 1) << 32 | (i + 1);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = grid();
    const double b = pick(4) == 0 ? a : grid();  // zero-duration spans
    obs::Span s = make_span(static_cast<int>(ids[i] >> 32) - 1,
                            kStages[pick(5)], std::min(a, b), std::max(a, b));
    s.id = ids[i];
    if (pick(3) == 0) {
      s.wait = 0.125 * static_cast<double>(1 + pick(8));
      s.resource = kResources[pick(4)];
    }
    out.spans.push_back(std::move(s));
  }

  const std::size_t n_edges = pick(2 * n + 1);
  for (std::size_t k = 0; k < n_edges; ++k) {
    const obs::Span& to = out.spans[pick(n)];
    const obs::Span& from = out.spans[pick(n)];
    switch (pick(8)) {
      case 0:  // self-loop
        out.edges.push_back({to.id, to.id});
        break;
      case 1:  // dangling source or target
        out.edges.push_back({pick(2) ? 0xdeadull : from.id,
                             pick(2) ? to.id : 0xbeefull});
        break;
      default:  // any direction: overlapping, forward, or back in time
        out.edges.push_back({from.id, to.id});
    }
  }
  return out;
}

}  // namespace

TEST(CriticalPath, SortedFallbackMatchesTheQuadraticWalk) {
  std::size_t long_chains = 0, edge_steps = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const RandomStream st = random_stream(seed);
    const obs::CriticalPathReport want =
        reference_critical_path(st.spans, st.edges);
    const obs::CriticalPathReport got = obs::critical_path(st.spans, st.edges);
    ASSERT_EQ(got.chain, want.chain) << "seed " << seed;
    ASSERT_EQ(got.stages.size(), want.stages.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.stages.size(); ++i) {
      EXPECT_EQ(got.stages[i].stage, want.stages[i].stage) << "seed " << seed;
      EXPECT_EQ(std::memcmp(&got.stages[i].seconds, &want.stages[i].seconds,
                            sizeof(double)),
                0)
          << "seed " << seed << " stage " << want.stages[i].stage;
    }
    EXPECT_EQ(got.binding_resource, want.binding_resource) << "seed " << seed;
    EXPECT_EQ(got.critical_stage, want.critical_stage) << "seed " << seed;
    EXPECT_EQ(got.makespan, want.makespan) << "seed " << seed;

    if (want.chain.size() >= 8) ++long_chains;
    std::set<std::pair<std::uint64_t, std::uint64_t>> edge_set;
    for (const obs::SpanEdge& e : st.edges) edge_set.insert({e.from, e.to});
    for (std::size_t i = 1; i < want.chain.size(); ++i)
      if (edge_set.count({want.chain[i - 1], want.chain[i]})) ++edge_steps;
  }
  // The draws exercise both predecessor rules, over chains of real length.
  EXPECT_GT(long_chains, 100u);
  EXPECT_GT(edge_steps, 100u);
}

// ------------------------------------------------------------ exporters

TEST(Exporters, ChromeTraceSchemaAndDeterminism) {
  auto render = [] {
    obs::Tracer t;
    const auto a = t.record(make_span(-1, "dump", 0.0, 2.0));
    const auto b = t.record(make_span(3, "encode", 0.0, 1.0, 0.25, "cpu"));
    t.edge(b, a);
    std::ostringstream os;
    obs::write_chrome_trace(os, t.spans(), t.edges());
    return os.str();
  };
  const std::string json = render();
  EXPECT_EQ(json, render());  // byte-identical
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"driver\""), std::string::npos);  // tid 0
  EXPECT_NE(json.find("\"name\":\"rank 3\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow edge
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"wait_s\""), std::string::npos);
  EXPECT_NE(json.find("\"resource\":\"cpu\""), std::string::npos);
}

TEST(Exporters, MetricsJsonAndCsv) {
  obs::MetricsRegistry m;
  m.add("requests", 7);
  m.gauge_max("peak", 3.5);
  m.observe("lat", 4e-9, 1e-9);
  m.observe("lat", 0.0, 1e-9);
  m.sample("occ", 0.5, 10.0);
  const auto snap = m.snapshot();

  std::ostringstream js;
  obs::write_metrics_json(js, snap);
  const std::string json = js.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  // Histogram buckets carry explicit [lo, hi) boundaries: 4e-9 at quantum
  // 1e-9 is 4 units -> log2 bucket 2 spanning [4*quantum, 8*quantum); the
  // exact-zero observation lands in the sentinel bucket -1 with lo == hi
  // == 0. A consumer never has to re-derive the log2 layout.
  EXPECT_NE(json.find("\"bucket\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"bucket\": -1"), std::string::npos);
  EXPECT_NE(json.find("\"lo\": 0"), std::string::npos);
  const std::size_t b2 = json.find("\"bucket\": 2");
  const std::size_t lo2 = json.find("\"lo\"", b2);
  const std::size_t hi2 = json.find("\"hi\"", b2);
  ASSERT_NE(lo2, std::string::npos);
  ASSERT_NE(hi2, std::string::npos);
  EXPECT_DOUBLE_EQ(std::stod(json.substr(lo2 + 6)), 4e-9);
  EXPECT_DOUBLE_EQ(std::stod(json.substr(hi2 + 6)), 8e-9);

  std::ostringstream cs;
  obs::write_metrics_csv(cs, snap);
  const std::string csv = cs.str();
  EXPECT_EQ(csv.find("kind,name,key,value\n"), 0u);
  EXPECT_NE(csv.find("counter,requests,,7"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,count,2"), std::string::npos);
  EXPECT_NE(csv.find("sample,occ,"), std::string::npos);
}

namespace {

// Renders the Chrome trace, metrics JSON and metrics CSV of a small fixed
// span/metric stream whose strings need escaping and whose doubles need all
// 17 digits or an exponent.
struct PinnedExports {
  std::string trace, trace_file, metrics_json, metrics_csv;
};

PinnedExports render_pinned_exports() {
  obs::Tracer t;
  obs::Span dump;
  dump.rank = -1;
  dump.stage = "dump";
  dump.detail = "dump \"0\"";
  dump.start = 0.0;
  dump.end = 1.0 / 3.0;
  const auto root = t.record(dump);
  obs::Span enc;
  enc.rank = 0;
  enc.parent = root;
  enc.stage = "encode";
  enc.detail = std::string("dir\\file\nline\x01") + "z";
  enc.start = 1e-7;
  enc.end = 0.25;
  enc.wait = 1.0 / 3.0;
  enc.resource = "cpu \"core\"";
  enc.service = 1e-7;
  enc.res = "codec_cpu";
  const auto a = t.record(enc);
  obs::Span ship;
  ship.rank = 1;
  ship.stage = "ship";
  ship.start = 0.25;
  ship.end = 1e21;
  const auto b = t.record(ship);
  t.edge(a, b);
  std::ostringstream trace;
  obs::write_chrome_trace(trace, t.spans(), t.edges());
  // export_trace emits straight from the tracer's merged order.
  const std::string path = ::testing::TempDir() + "pinned_trace.json";
  obs::export_trace(path, t);
  std::ifstream in(path, std::ios::binary);
  const std::string trace_file((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  obs::MetricsRegistry m;
  m.add("requests", 7);
  m.gauge_max("ratio", 1.0 / 3.0);
  m.gauge_max("tiny", 1e-7);
  m.gauge_max("huge", 1e21);
  m.observe("lat", 4e-9, 1e-9);
  m.observe("lat", 0.0, 1e-9);
  m.observe("lat", 1.0 / 3.0, 1e-9);
  m.sample("occ, \"q\"", 1.0 / 3.0, 1e21);
  m.sample("occ, \"q\"", 1e-7, 0.1);
  const auto snap = m.snapshot();
  std::ostringstream js, cs;
  obs::write_metrics_json(js, snap);
  obs::write_metrics_csv(cs, snap);
  return {trace.str(), trace_file, js.str(), cs.str()};
}

}  // namespace

// The exporters' bytes, captured once and pinned: escaping (quote,
// backslash, newline, a raw control byte), 17-digit and exponent doubles,
// a flow edge, a histogram and CSV quoting. The engine-vs-engine and
// stream-vs-buffered byte tests compare two paths that change together;
// this one catches a change of the shared writer itself.
TEST(Exporters, ChromeTraceAndMetricsBytesArePinned) {
  const PinnedExports got = render_pinned_exports();
  EXPECT_EQ(got.trace_file, got.trace);
  EXPECT_EQ(got.trace,
            R"pin({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":0,)pin"
            R"pin("tid":0,"name":"thread_name","args":{"name":"driver"}},)pin"
            R"pin({"ph":"M","pid":0,"tid":1,"name":"thread_name",)pin"
            R"pin("args":{"name":"rank 0"}},{"ph":"M","pid":0,"tid":2,)pin"
            R"pin("name":"thread_name","args":{"name":"rank 1"}},{"ph":"X",)pin"
            R"pin("pid":0,"tid":0,"name":"dump","cat":"pipeline","ts":0,)pin"
            R"pin("dur":333333.33333333331,"args":{"id":1,)pin"
            R"pin("detail":"dump \"0\""}},{"ph":"X","pid":0,"tid":1,)pin"
            R"pin("name":"encode","cat":"pipeline","ts":0.099999999999999992,)pin"
            R"pin("dur":249999.89999999999,"args":{"id":4294967297,"parent":1,)pin"
            R"pin("detail":"dir\\file\nline\u0001z",)pin"
            R"pin("wait_s":0.33333333333333331,"resource":"cpu \"core\"",)pin"
            R"pin("service_s":9.9999999999999995e-08,"res":"codec_cpu"}},)pin"
            R"pin({"ph":"X","pid":0,"tid":2,"name":"ship","cat":"pipeline",)pin"
            R"pin("ts":250000,"dur":1e+27,"args":{"id":8589934593}},{"ph":"s",)pin"
            R"pin("pid":0,"tid":1,"name":"dep","cat":"edge","id":1,"ts":250000},)pin"
            R"pin({"ph":"f","bp":"e","pid":0,"tid":2,"name":"dep","cat":"edge",)pin"
            R"pin("id":1,"ts":250000}]}
)pin");
  EXPECT_EQ(got.metrics_json, R"pin({
  "counters": {
    "requests": 7
  },
  "gauges": {
    "huge": 1e+21,
    "ratio": 0.33333333333333331,
    "tiny": 9.9999999999999995e-08
  },
  "histograms": {
    "lat": {
      "quantum": 1.0000000000000001e-09,
      "count": 3,
      "sum": 0.33333333700000001,
      "mean": 0.11111111233333333,
      "buckets": [
        {
          "bucket": -1,
          "lo": 0,
          "hi": 0,
          "count": 1
        },
        {
          "bucket": 2,
          "lo": 4.0000000000000002e-09,
          "hi": 8.0000000000000005e-09,
          "count": 1
        },
        {
          "bucket": 28,
          "lo": 0.26843545600000002,
          "hi": 0.53687091200000003,
          "count": 1
        }
      ]
    }
  },
  "series": {
    "occ, \"q\"": [
      [
        0.33333333333333331,
        1e+21
      ],
      [
        9.9999999999999995e-08,
        0.10000000000000001
      ]
    ]
  }
}
)pin");
  EXPECT_EQ(got.metrics_csv, R"pin(kind,name,key,value
counter,requests,,7
gauge,huge,,1e+21
gauge,ratio,,0.33333333333333331
gauge,tiny,,9.9999999999999995e-08
histogram,lat,count,3
histogram,lat,sum,0.33333333700000001
histogram_bucket,lat,-1,1
histogram_bucket,lat,2,1
histogram_bucket,lat,28,1
sample,"occ, ""q""",0.33333333333333331,1e+21
sample,"occ, ""q""",9.9999999999999995e-08,0.10000000000000001
)pin");
}

// ------------------------------- full-pipeline span invariants (32 ranks)

namespace {

mc::Params pipeline_params() {
  mc::Params params;
  params.nprocs = 32;
  params.num_dumps = 2;
  params.part_size = 1500;
  params.avg_num_parts = 1.25;
  params.dataset_growth = 1.05;
  params.meta_size = 16;
  params.aggregators = 8;
  params.stage_to_bb = true;
  params.restart = true;
  params.restart_from_bb = true;
  params.codec = "ebl";
  params.validate();
  return params;
}

/// Runs the 32-rank agg+bb+ebl dump+restart pipeline against whatever sinks
/// `probe` carries: driver spans plus a BB-tier SimFs replay of each request
/// stream, replays adjacent to their driver phase (as macsio_proxy orders
/// them) so the dump and restart timelines land in separate ledger epochs.
void run_pipeline(amrio::exec::Engine& engine, const obs::Probe& probe) {
  const mc::Params params = pipeline_params();
  p::MemoryBackend backend(true);
  p::SimFsConfig cfg;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 2;
  cfg.bb.ranks_per_node = 16;
  cfg.bb.capacity = 1 << 20;
  p::SimFs fs(cfg);

  const auto dump = mc::run_macsio(engine, params, backend, probe);
  (void)fs.run(dump.requests, probe);
  if (probe.ledger != nullptr) probe.ledger->begin_epoch();
  const auto restart = mc::run_restart(engine, params, backend, probe);
  (void)fs.run(restart.requests, probe);
}

/// One observed 32-rank agg+bb+ebl dump+restart pipeline over the serial
/// engine, buffered into a tracer.
struct PipelineObs {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  PipelineObs() {
    amrio::exec::SerialEngine engine(32);
    run_pipeline(engine, obs::Probe{&tracer, &metrics});
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(SpanInvariants, NoOrphansAndChildrenNestWithinParents) {
  PipelineObs run;
  const auto spans = run.tracer.spans();
  ASSERT_GT(spans.size(), 100u);  // every stage emitted something

  std::unordered_map<std::uint64_t, const obs::Span*> by_id;
  for (const auto& s : spans) {
    EXPECT_TRUE(by_id.emplace(s.id, &s).second) << "duplicate id " << s.id;
    EXPECT_GE(s.end, s.start);
  }
  constexpr double kEps = 1e-9;
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << "orphan span " << s.stage << " id " << s.id;
    const obs::Span& parent = *it->second;
    EXPECT_GE(s.start, parent.start - kEps)
        << s.stage << " starts before parent " << parent.stage;
    EXPECT_LE(s.end, parent.end + kEps)
        << s.stage << " ends after parent " << parent.stage;
  }
  for (const auto& e : run.tracer.edges()) {
    const auto from = by_id.find(e.from);
    const auto to = by_id.find(e.to);
    ASSERT_NE(from, by_id.end()) << "edge from unknown span";
    ASSERT_NE(to, by_id.end()) << "edge to unknown span";
    // happens-before: the source cannot end after the destination ends
    EXPECT_LE(from->second->end, to->second->end + kEps)
        << from->second->stage << " -> " << to->second->stage;
  }

  // The full taxonomy showed up: write-side, ship, restart-side, BB tier.
  // No pfs_write here — with --staging bb every dump write is BB-tier; the
  // pfs_read spans come from the always-cold metadata read-back.
  std::set<std::string> stages;
  for (const auto& s : spans) stages.insert(s.stage);
  for (const char* expect :
       {"dump", "encode", "ship", "restart", "scatter", "decode", "bb_absorb",
        "bb_drain", "bb_prefetch", "bb_read", "pfs_read"})
    EXPECT_TRUE(stages.count(expect)) << "missing stage " << expect;
}

TEST(SpanInvariants, CriticalPathCoversTheMakespan) {
  PipelineObs run;
  const auto cp = obs::critical_path(run.tracer.spans(), run.tracer.edges());
  ASSERT_GT(cp.makespan, 0.0);
  double total = 0.0;
  for (const auto& s : cp.stages) total += s.seconds;
  // the acceptance bar is >= 95%; the construction gives exactly 100%
  EXPECT_GE(total, 0.95 * cp.makespan);
  EXPECT_LE(total, cp.makespan + 1e-9);
  EXPECT_FALSE(cp.critical_stage.empty());
  EXPECT_FALSE(cp.binding_resource.empty());
}

TEST(SpanInvariants, PipelineMetricsAreCoherent) {
  PipelineObs run;
  const auto snap = run.metrics.snapshot();
  // write side: every gatherv ship counted, bytes flowed through the tier
  EXPECT_GT(snap.counters.at("exec.gatherv.calls"), 0);
  EXPECT_GT(snap.counters.at("exec.scatterv.calls"), 0);
  EXPECT_GT(snap.counters.at("macsio.dumps"), 0);
  EXPECT_GT(snap.counters.at("macsio.restarts"), 0);
  EXPECT_GT(snap.counters.at("simfs.bb.absorb_bytes"), 0);
  EXPECT_GT(snap.counters.at("simfs.bb.drain_bytes"), 0);
  EXPECT_GT(snap.counters.at("simfs.bb.prefetch_bytes"), 0);
  EXPECT_GT(snap.counters.at("simfs.bb.read_bytes"), 0);
  // tier occupancy series exists and returns to zero after the drains
  const auto& occ = snap.series.at("bb.occupancy_bytes").samples;
  ASSERT_FALSE(occ.empty());
  EXPECT_DOUBLE_EQ(occ.back().second, 0.0);
  EXPECT_GT(snap.gauges.at("simfs.bb.peak_occupancy_bytes"), 0.0);
}

// ------------------------------------------------------------- sampling

TEST(TraceSample, SampleSetIsPureEvenlySpacedAndClamped) {
  const auto s1 = obs::TraceSample::sample_set(131072, 64);
  const auto s2 = obs::TraceSample::sample_set(131072, 64);
  EXPECT_EQ(s1, s2);  // pure function of (nranks, n)
  ASSERT_EQ(s1.size(), 64u);
  EXPECT_EQ(s1.front(), 0);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i],
              static_cast<int>(static_cast<std::int64_t>(i) * 131072 / 64));
    if (i > 0) {
      EXPECT_GT(s1[i], s1[i - 1]);
    }
  }
  EXPECT_LT(s1.back(), 131072);

  // n >= nranks degenerates to "every rank"
  const auto all = obs::TraceSample::sample_set(8, 100);
  ASSERT_EQ(all.size(), 8u);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
  EXPECT_TRUE(obs::TraceSample::sample_set(0, 4).empty());
  EXPECT_TRUE(obs::TraceSample::sample_set(16, 0).empty());
}

TEST(TraceSample, KeepsDriverSampledAndExtraRanks) {
  obs::TraceSample off;  // default: disabled, keeps everything
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.keep(1234));

  obs::TraceSample s;
  s.nranks = 100;
  s.sample = 4;  // sample set {0, 25, 50, 75}
  s.keep_extra = {37};
  s.seal();
  EXPECT_TRUE(s.enabled());
  EXPECT_TRUE(s.keep(-1));  // driver track is always kept
  EXPECT_TRUE(s.keep(0));
  EXPECT_TRUE(s.keep(75));
  EXPECT_TRUE(s.keep(37));  // caller-pinned (e.g. an aggregator)
  EXPECT_FALSE(s.keep(1));
  EXPECT_FALSE(s.keep(99));
}

// ------------------------------------------------------ streaming export

TEST(TraceStream, UnsampledStreamMatchesBufferedExportByteForByte) {
  // Buffered reference: the whole pipeline in memory, then one render.
  obs::Tracer tracer;
  obs::MetricsRegistry m1;
  {
    amrio::exec::SerialEngine engine(32);
    run_pipeline(engine, obs::Probe{&tracer, &m1});
  }
  std::ostringstream expect;
  obs::write_chrome_trace(expect, tracer.spans(), tracer.edges());

  // Streamed: a tiny buffer forces many spill runs, so the k-way merge
  // path (not just the in-memory remainder) produces the bytes.
  const std::string path = testing::TempDir() + "obs_stream_unsampled.json";
  obs::TraceStream::Options opt;
  opt.path = path;
  opt.capacity = 16;
  obs::TraceStream stream(opt);
  obs::MetricsRegistry m2;
  {
    obs::Probe probe;
    probe.tracer = &stream;
    probe.metrics = &m2;
    amrio::exec::SerialEngine engine(32);
    run_pipeline(engine, probe);
  }
  ASSERT_GT(stream.spans_recorded(), 100u);
  EXPECT_EQ(stream.spans_recorded(), stream.spans_kept());  // no sampling
  stream.finish();
  EXPECT_EQ(read_file(path), expect.str());
  std::remove(path.c_str());
  EXPECT_FALSE(std::ifstream(path + ".spill").is_open())
      << "spill file survived finish()";
}

TEST(TraceStream, MergeWindowsShareTheCapacity) {
  // Many spill runs against a small capacity: finish() spills the remainder
  // and reads each run through a window of max(1, capacity / runs) spans,
  // so the spans held at once stay within max(capacity, runs) through the
  // merge — within capacity while runs <= capacity — and the bytes still
  // match the buffered export.
  constexpr std::size_t kSpans = 400;
  for (const std::size_t capacity : {std::size_t{64}, std::size_t{4}}) {
    obs::Tracer tracer;
    obs::TraceStream::Options opt;
    opt.path = testing::TempDir() + "obs_stream_windows.json";
    opt.capacity = capacity;
    obs::TraceStream stream(opt);
    amrio::util::Xoshiro256 rng(11);
    for (std::size_t i = 0; i < kSpans; ++i) {
      obs::Span s;
      s.rank = static_cast<int>(i % 7);
      s.stage = i % 3 == 0 ? "write" : "encode";
      s.start = rng.uniform();
      s.end = s.start + 0.25 * rng.uniform();
      (void)tracer.record(s);
      (void)stream.record(s);
    }
    stream.finish();
    const std::size_t runs = (kSpans + capacity - 1) / capacity;
    EXPECT_LE(stream.peak_buffered_spans(), std::max(capacity, runs))
        << "capacity " << capacity;
    if (runs <= capacity) {
      EXPECT_LE(stream.peak_buffered_spans(), capacity);
    }
    std::ostringstream expect;
    obs::write_chrome_trace(expect, tracer.spans(), tracer.edges());
    EXPECT_EQ(read_file(opt.path), expect.str()) << "capacity " << capacity;
    std::remove(opt.path.c_str());
  }
}

TEST(TraceStream, SampledStreamIsDeterministicAcrossEnginesAndRuns) {
  auto render = [](amrio::exec::Engine& engine, const std::string& path) {
    obs::TraceStream::Options opt;
    opt.path = path;
    opt.sample.nranks = 32;
    opt.sample.sample = 4;
    opt.sample.keep_extra = {0, 4, 8, 12, 16, 20, 24, 28};  // aggregators
    opt.capacity = 32;
    obs::TraceStream stream(opt);
    obs::MetricsRegistry metrics;
    obs::Probe probe;
    probe.tracer = &stream;
    probe.metrics = &metrics;
    run_pipeline(engine, probe);
    EXPECT_LT(stream.spans_kept(), stream.spans_recorded());
    stream.finish();
    const std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
  };
  const std::string base = testing::TempDir();
  amrio::exec::SerialEngine s1(32), s2(32);
  amrio::exec::EventEngine ev(32);
  const std::string a = render(s1, base + "obs_samp_a.json");
  const std::string b = render(s2, base + "obs_samp_b.json");
  const std::string c = render(ev, base + "obs_samp_c.json");
  EXPECT_EQ(a, b);  // run-to-run
  EXPECT_EQ(a, c);  // serial vs discrete-event engine
  // Dropped ranks folded into per-stage envelopes on the synthetic track.
  EXPECT_NE(a.find("\"aggregated\""), std::string::npos);
  EXPECT_NE(a.find("spans,"), std::string::npos);  // envelope detail text
}

// ------------------------------------------------------ resource ledger

TEST(ResourceLedger, EpochsConcatenateIndependentTimelines) {
  obs::ResourceLedger lg;
  lg.declare("r", 1);
  lg.add_busy("r", 1.0);
  lg.extend_makespan(1.0);
  lg.begin_epoch();  // second timeline restarts at t = 0
  lg.add_busy("r", 0.5);
  lg.queue_delta("r", 0.2, +1);  // epoch-relative; lands at 1.2 absolute
  lg.extend_makespan(0.5);

  const obs::UtilizationReport rep = lg.report();
  EXPECT_DOUBLE_EQ(rep.makespan, 1.5);  // sum of epoch maxima, not max
  ASSERT_EQ(rep.resources.size(), 1u);
  const obs::ResourceUtilization& u = rep.resources[0];
  EXPECT_DOUBLE_EQ(u.busy_s, 1.5);
  EXPECT_DOUBLE_EQ(u.idle_s, 0.0);
  EXPECT_DOUBLE_EQ(u.busy_frac, 1.0);
  EXPECT_EQ(u.queue_peak, 1);
  EXPECT_NEAR(u.queue_avg, 0.3 / 1.5, 1e-12);  // depth 1 over [1.2, 1.5]
}

TEST(ResourceLedger, PipelineConservesBusyPlusIdlePerResource) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::ResourceLedger ledger;
  obs::Probe probe;
  probe.tracer = &tracer;
  probe.metrics = &metrics;
  probe.ledger = &ledger;
  amrio::exec::SerialEngine engine(32);
  run_pipeline(engine, probe);

  const obs::UtilizationReport rep = ledger.report();
  ASSERT_GT(rep.makespan, 0.0);
  ASSERT_FALSE(rep.resources.empty());
  std::set<std::string> names;
  for (const obs::ResourceUtilization& u : rep.resources) {
    names.insert(u.name);
    const double pool = u.capacity * rep.makespan;
    // the conservation law: busy + idle = capacity * makespan, exactly
    EXPECT_NEAR(u.busy_s + u.idle_s, pool, 1e-9 * std::max(1.0, pool))
        << u.name;
    EXPECT_GE(u.busy_s, 0.0) << u.name;
    EXPECT_GE(u.idle_s, -1e-9) << u.name << " over-committed its pool";
    EXPECT_GE(u.busy_frac, 0.0) << u.name;
    EXPECT_LE(u.busy_frac, 1.0 + 1e-9) << u.name;
    EXPECT_GE(u.queue_peak, 0) << u.name;
  }
  // every modeled pool reported: MDS, OSTs, BB streams, link, codec CPUs
  for (const char* expect :
       {"mds", "ost[0]", "bb[0].ingest", "bb[0].drain", "bb[0].prefetch",
        "bb[0].read", "bb[1].drain", "agg_link", "codec_cpu"})
    EXPECT_TRUE(names.count(expect)) << "missing resource " << expect;
  EXPECT_FALSE(rep.top_summary().empty());
}

TEST(ResourceLedger, JsonAndTableRenderTheReport) {
  obs::ResourceLedger lg;
  lg.declare("ost[0]", 1);
  lg.add_busy("ost[0]", 0.25);
  lg.extend_makespan(1.0);
  const obs::UtilizationReport rep = lg.report();

  std::ostringstream os;
  obs::write_utilization_json(os, rep);
  const std::string json = os.str();
  for (const char* key : {"\"schema_version\": 1", "\"makespan\"",
                          "\"resources\"", "\"name\"", "\"capacity\"",
                          "\"busy_s\"", "\"idle_s\"", "\"busy_frac\"",
                          "\"queue_peak\"", "\"queue_avg\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // schema_version leads and the key order is pinned: the file is a stable,
  // diffable artifact.
  EXPECT_LT(json.find("\"schema_version\""), json.find("\"makespan\""));
  std::ostringstream again;
  obs::write_utilization_json(again, rep);
  EXPECT_EQ(json, again.str());

  const std::string table = obs::utilization_table(rep);
  EXPECT_NE(table.find("resource"), std::string::npos);
  EXPECT_NE(table.find("ost[0]"), std::string::npos);
  EXPECT_NE(table.find("25.0%"), std::string::npos);
  EXPECT_EQ(rep.top_summary(), "ost[0] 25.0% busy");
}

// ------------------------------------------------------- CSV edge cases

TEST(Exporters, CsvQuotesNamesWithCommasAndQuotes) {
  obs::MetricsRegistry m;
  m.add("bytes,total", 7);       // comma would split the row
  m.add("say \"hi\"", 1);        // embedded quotes must double
  m.gauge_max("plain", 2.0);
  std::ostringstream os;
  obs::write_metrics_csv(os, m.snapshot());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("counter,\"bytes,total\",,7"), std::string::npos);
  EXPECT_NE(csv.find("counter,\"say \"\"hi\"\"\",,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,plain,,2"), std::string::npos);

  // The JSON side of the same names: RFC-8259 backslash escaping, so the
  // output stays parseable when metric names carry quotes.
  std::ostringstream js;
  obs::write_metrics_json(js, m.snapshot());
  const std::string json = js.str();
  EXPECT_NE(json.find("\"say \\\"hi\\\"\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bytes,total\": 7"), std::string::npos);
}

// ------------------------------------------------------- self-profiling

TEST(SelfProfiler, CountersGaugesAndPhasesAccumulate) {
  obs::SelfProfiler prof;
  prof.count("runs");
  prof.count("runs", 2);
  prof.gauge_max("peak", 3.0);
  prof.gauge_max("peak", 2.0);
  prof.phase_add("dump", 0.5);
  prof.phase_add("dump", 0.25);
  { obs::SelfProfiler::ScopedPhase ph(&prof, "scoped"); }
  { obs::SelfProfiler::ScopedPhase ph(nullptr, "noop"); }  // null-safe

  const obs::SelfProfSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.counters.at("runs"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("peak"), 3.0);
  EXPECT_DOUBLE_EQ(snap.phases.at("dump").wall_s, 0.75);
  EXPECT_EQ(snap.phases.at("dump").count, 2u);
  EXPECT_EQ(snap.phases.at("scoped").count, 1u);
  EXPECT_GE(snap.phases.at("scoped").wall_s, 0.0);
  EXPECT_EQ(snap.phases.count("noop"), 0u);

  std::ostringstream os;
  obs::write_selfprof_json(os, snap);
  const std::string json = os.str();
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"phases\"", "\"wall_s\"", "\"count\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(SelfProfiler, EventEnginePublishesSchedulerCounters) {
  obs::SelfProfiler prof;
  amrio::exec::EventEngine engine(64);
  engine.set_profiler(&prof);
  engine.run([](amrio::exec::RankCtx& ctx) {
    for (int i = 0; i < 3; ++i) ctx.barrier();
  });
  const obs::SelfProfSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.counters.at("engine.event.runs"), 1u);
  // every barrier resumption is a context switch; 64 ranks x 3 barriers
  EXPECT_GT(snap.counters.at("engine.event.context_switches"), 100u);
  EXPECT_GE(snap.gauges.at("engine.event.ready_queue_peak"), 1.0);
  EXPECT_EQ(snap.phases.at("engine.event.run").count, 1u);
}

TEST(SelfProfiler, SerialEnginePublishesWallPhase) {
  obs::SelfProfiler prof;
  amrio::exec::SerialEngine engine(4);
  engine.set_profiler(&prof);
  engine.run([](amrio::exec::RankCtx& ctx) { ctx.barrier(); });
  const obs::SelfProfSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.counters.at("engine.serial.runs"), 1u);
  EXPECT_EQ(snap.phases.at("engine.serial.run").count, 1u);
}

// --------------------------------------------------- slack analysis

TEST(Slack, DependencyOnlyEarliestAndBackwardSlack) {
  obs::Tracer t;
  // rank 0: A [0,2] -> (1s release lag) -> B [3,5]; rank 1: C [0,1] idles.
  t.record(make_span(0, "write", 0.0, 2.0));
  t.record(make_span(0, "drain", 3.0, 5.0));
  t.record(make_span(1, "write", 0.0, 1.0));
  const auto spans = t.spans();
  const auto rep = obs::slack_analysis(spans, t.edges(), 3);
  ASSERT_EQ(rep.spans.size(), 3u);
  EXPECT_DOUBLE_EQ(rep.t1, 5.0);
  // Input order is (start, rank, id): A, C, B.
  const auto& a = rep.spans[0];
  const auto& c = rep.spans[1];
  const auto& b = rep.spans[2];
  // Earliest drops the program-order release lag (it is queueing, not
  // structure, from the earliest-start point of view)...
  EXPECT_DOUBLE_EQ(b.earliest_start, 2.0);
  // ...but the backward pass preserves it, so A and B are both critical.
  EXPECT_NEAR(a.slack, 0.0, 1e-12);
  EXPECT_NEAR(b.slack, 0.0, 1e-12);
  EXPECT_NEAR(c.slack, 4.0, 1e-12);  // idle rank: t1 - end
  ASSERT_GE(rep.near_critical.size(), 2u);
  EXPECT_NEAR(rep.near_critical[0].slack, 0.0, 1e-12);
  EXPECT_EQ(rep.near_critical[0].chain.size(), 2u);  // A -> B
  EXPECT_LE(rep.near_critical[0].slack, rep.near_critical[1].slack);
}

TEST(Slack, InvariantsHoldOnThePipelineRun) {
  PipelineObs run;
  const auto spans = run.tracer.spans();
  const auto edges = run.tracer.edges();
  const auto rep = obs::slack_analysis(spans, edges, 3);
  const auto cp = obs::critical_path(spans, edges);
  constexpr double kEps = 1e-9;

  // Same window as critical_path — the two attributions reconcile.
  EXPECT_NEAR(rep.t0, cp.t0, kEps);
  EXPECT_NEAR(rep.t1, cp.t1, kEps);
  EXPECT_NEAR(rep.makespan, cp.makespan, kEps);
  double cp_total = 0.0;
  for (const auto& s : cp.stages) cp_total += s.seconds;
  EXPECT_NEAR(cp_total, rep.makespan, kEps);

  // Structural invariants: the recorded schedule is feasible in the model.
  ASSERT_EQ(rep.spans.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(rep.spans[i].slack, -kEps) << spans[i].stage;
    EXPECT_LE(rep.spans[i].earliest_start, spans[i].start + kEps)
        << spans[i].stage;
    EXPECT_GE(rep.spans[i].latest_end, spans[i].end - kEps) << spans[i].stage;
  }

  // The critical chain: zero terminal slack, every span on it zero-slack,
  // ends at the t1 span, and the paths come out slack-ascending.
  ASSERT_FALSE(rep.near_critical.empty());
  const auto& crit = rep.near_critical[0];
  ASSERT_FALSE(crit.chain.empty());
  EXPECT_NEAR(crit.slack, 0.0, kEps);
  for (std::size_t i : crit.chain) EXPECT_LE(rep.spans[i].slack, kEps);
  EXPECT_NEAR(spans[crit.chain.back()].end, rep.t1, kEps);
  for (std::size_t k = 1; k < rep.near_critical.size(); ++k)
    EXPECT_LE(rep.near_critical[k - 1].slack,
              rep.near_critical[k].slack + kEps);

  // Chain coverage telescopes: span durations plus inter-span lags equal
  // the window from the chain head to t1.
  double covered = 0.0;
  for (std::size_t k = 0; k < crit.chain.size(); ++k) {
    const obs::Span& s = spans[crit.chain[k]];
    covered += s.end - s.start;
    if (k + 1 < crit.chain.size())
      covered += spans[crit.chain[k + 1]].start - s.end;
  }
  EXPECT_NEAR(covered, rep.t1 - spans[crit.chain.front()].start, 1e-6);
}

// --------------------------------------------------- what-if replay

TEST(WhatIf, ScalesMatchedServiceAndWaitKeepsFixed) {
  obs::Tracer t;
  {
    obs::Span a = make_span(0, "pfs_write", 0.0, 2.0);
    a.service = 2.0;
    a.res = "ost[0]";
    t.record(std::move(a));
  }
  {
    // 0.5s fixed release lag after A, then 1s queue wait + 1s service.
    obs::Span b = make_span(0, "pfs_write", 2.5, 4.5, 1.0, "ost_queue");
    b.service = 1.0;
    b.res = "ost[1]";
    t.record(std::move(b));
  }
  obs::Scenario sc;
  sc.resource = "ost";
  sc.factor = 2.0;
  sc.service_scale = 0.5;
  sc.wait_scale = 0.5;
  const auto res = obs::what_if(t.spans(), t.edges(), sc);
  EXPECT_DOUBLE_EQ(res.baseline_makespan, 4.5);
  // A' = [0,1]; B starts at 1 + 0.5 lag, runs 0.5 wait + 0.5 service.
  EXPECT_NEAR(res.predicted_makespan, 2.5, 1e-12);

  obs::Scenario other;
  other.resource = "agg_link";
  other.factor = 2.0;
  other.service_scale = 0.5;
  other.wait_scale = 0.5;
  const auto none = obs::what_if(t.spans(), t.edges(), other);
  EXPECT_DOUBLE_EQ(none.predicted_makespan, 4.5);  // nothing matches
}

TEST(WhatIf, StandardScenariosUseEffectiveScales) {
  obs::ReliefKnobs knobs;
  knobs.ost_bandwidth = 0.8e9;
  knobs.client_bandwidth = 3.0e9;
  knobs.drain_bandwidth = 0.5e9;
  const auto scs = obs::standard_scenarios(2.0, knobs);
  ASSERT_EQ(scs.size(), 4u);
  EXPECT_EQ(scs[0].resource, "ost");
  EXPECT_NEAR(scs[0].service_scale, 0.5, 1e-12);  // client does not bind
  EXPECT_EQ(scs[1].resource, "bb_drain");
  // min(0.5, 0.8) / min(1.0, 0.8): the OST caps the relieved drain.
  EXPECT_NEAR(scs[1].service_scale, 0.625, 1e-12);
  EXPECT_EQ(scs[2].resource, "agg_link");
  EXPECT_NEAR(scs[2].service_scale, 0.5, 1e-12);
  EXPECT_EQ(scs[3].resource, "codec_cpu");
  EXPECT_NEAR(scs[3].service_scale, 0.5, 1e-12);

  // A slower client NIC makes extra OST bandwidth worthless.
  knobs.client_bandwidth = 0.4e9;
  const auto capped = obs::standard_scenarios(2.0, knobs);
  EXPECT_NEAR(capped[0].service_scale, 1.0, 1e-12);
}

// ------------------------- what-if vs re-simulation (pinned 32-rank grid)

namespace {

mc::Params grid_params(const std::string& mode, const std::string& codec) {
  mc::Params params;
  params.nprocs = 32;
  params.num_dumps = 2;
  params.part_size = 1 << 22;
  params.avg_num_parts = 1.0;
  params.codec = codec;
  if (codec == "ebl") params.codec_throughput = 0.25e9;
  if (mode == "agg") {
    params.aggregators = 8;
    params.agg_link_bandwidth = 2.0e9;
  }
  if (mode == "bb") params.stage_to_bb = true;
  params.validate();
  return params;
}

p::SimFsConfig grid_fs(bool bb) {
  p::SimFsConfig cfg;
  cfg.n_ost = 32;
  cfg.ost_bandwidth = 0.8e9;
  cfg.client_bandwidth = 3.0e9;
  if (bb) {
    cfg.bb.enabled = true;
    cfg.bb.nodes = 2;
    cfg.bb.ranks_per_node = 16;
    // Drain-limited even at 2x relief (2 * 0.25e9 < ost_bandwidth), so the
    // drain stream stays the binding rate and its queues stay backlog-bound
    // — the regime the what-if wait scaling models.
    cfg.bb.drain_bandwidth = 0.25e9;
    cfg.bb.drain_concurrency = 2;
  }
  return cfg;
}

struct GridTrace {
  std::vector<obs::Span> spans;
  std::vector<obs::SpanEdge> edges;
};

template <class EngineT>
GridTrace run_grid(const mc::Params& params, const p::SimFsConfig& cfg) {
  obs::Tracer tracer;
  obs::Probe probe;
  probe.tracer = &tracer;
  p::MemoryBackend backend(false);
  EngineT engine(params.nprocs);
  const auto dump = mc::run_macsio(engine, params, backend, probe);
  p::SimFs fs(cfg);
  (void)fs.run(dump.requests, probe);
  return {tracer.spans(), tracer.edges()};
}

double grid_makespan(const std::vector<obs::Span>& spans) {
  double t1 = 0.0;
  for (const obs::Span& s : spans) t1 = std::max(t1, s.end);
  return t1;
}

/// The acceptance grid: for every {direct, agg, bb} x {identity, ebl} cell
/// and every standard single-resource 2x relief, the what-if prediction
/// must land within 5% of an actual re-simulation with that knob doubled.
template <class EngineT>
void check_grid_tolerance() {
  for (const char* mode : {"direct", "agg", "bb"}) {
    for (const char* codec : {"identity", "ebl"}) {
      const mc::Params params = grid_params(mode, codec);
      const p::SimFsConfig cfg = grid_fs(std::string(mode) == "bb");
      const GridTrace base = run_grid<EngineT>(params, cfg);
      const double baseline = grid_makespan(base.spans);
      ASSERT_GT(baseline, 0.0);

      obs::ReliefKnobs knobs;
      knobs.ost_bandwidth = cfg.ost_bandwidth;
      knobs.client_bandwidth = cfg.client_bandwidth;
      knobs.drain_bandwidth = cfg.bb.drain_bandwidth;
      for (const obs::Scenario& sc : obs::standard_scenarios(2.0, knobs)) {
        const auto pred = obs::what_if(base.spans, base.edges, sc);
        EXPECT_NEAR(pred.baseline_makespan, baseline, 1e-9);

        mc::Params relieved = params;
        p::SimFsConfig rcfg = cfg;
        if (sc.resource == "ost") {
          rcfg.ost_bandwidth *= 2.0;
        } else if (sc.resource == "bb_drain") {
          rcfg.bb.drain_bandwidth *= 2.0;
        } else if (sc.resource == "agg_link") {
          relieved.agg_link_bandwidth *= 2.0;
        } else if (sc.resource == "codec_cpu") {
          if (relieved.codec_throughput > 0.0)
            relieved.codec_throughput *= 2.0;
        }
        const GridTrace resim = run_grid<EngineT>(relieved, rcfg);
        const double actual = grid_makespan(resim.spans);
        const std::string label = std::string(mode) + "/" + codec + " 2x " +
                                  sc.resource;
        EXPECT_NEAR(pred.predicted_makespan, actual, 0.05 * actual) << label;
        EXPECT_LE(pred.predicted_makespan, baseline + 1e-9) << label;

        // Non-vacuity: the reliefs that should bite on this cell really do.
        // (Under ebl the encode gate dominates, so OST relief legitimately
        // buys little — require any improvement rather than 10%.)
        if (sc.resource == "ost" && std::string(mode) != "bb") {
          if (std::string(codec) == "identity") {
            EXPECT_LT(actual, 0.90 * baseline) << label;
          } else {
            EXPECT_LT(actual, baseline) << label;
          }
        }
        if (sc.resource == "bb_drain" && std::string(mode) == "bb") {
          EXPECT_LT(actual, 0.95 * baseline) << label;
        }
        if (sc.resource == "codec_cpu" && std::string(codec) == "ebl") {
          EXPECT_LT(actual, baseline) << label;
        }
        if (sc.resource == "agg_link" && std::string(mode) == "agg") {
          EXPECT_LT(actual, baseline) << label;
        }
      }
    }
  }
}

}  // namespace

TEST(WhatIf, TwoXReliefWithin5PctOfResimSerialEngine) {
  check_grid_tolerance<amrio::exec::SerialEngine>();
}

TEST(WhatIf, TwoXReliefWithin5PctOfResimEventEngine) {
  check_grid_tolerance<amrio::exec::EventEngine>();
}

// ----------------------------------------------------- explain reports

TEST(Explain, RanksResourcesAndWritesStableJson) {
  PipelineObs run;
  obs::ResourceLedger ledger;
  {
    amrio::exec::SerialEngine engine(32);
    obs::Probe probe;
    probe.ledger = &ledger;
    run_pipeline(engine, probe);
  }
  obs::ReliefKnobs knobs;
  knobs.ost_bandwidth = 1e9;    // pipeline_params run uses SimFs defaults
  knobs.client_bandwidth = 2e9;
  knobs.drain_bandwidth = 2e9;
  const auto rep = obs::explain(run.tracer.spans(), run.tracer.edges(),
                                ledger.report(), knobs);
  ASSERT_EQ(rep.resources.size(), 4u);
  EXPECT_GT(rep.makespan, 0.0);
  EXPECT_FALSE(rep.critical_stage.empty());
  for (std::size_t i = 1; i < rep.resources.size(); ++i)
    EXPECT_GE(rep.resources[i - 1].shadow_price,
              rep.resources[i].shadow_price);
  for (const auto& r : rep.resources) {
    EXPECT_LE(r.predicted_20, rep.makespan + 1e-9) << r.resource;
    EXPECT_LE(r.predicted_15, rep.makespan + 1e-9) << r.resource;
    EXPECT_GE(r.exposure, 0.0) << r.resource;
    EXPECT_GE(r.utilization, 0.0) << r.resource;
    EXPECT_LE(r.utilization, 1.0 + 1e-9) << r.resource;
  }

  std::ostringstream o1, o2;
  obs::write_explain_json(o1, rep);
  obs::write_explain_json(o2, rep);
  EXPECT_EQ(o1.str(), o2.str());  // byte-stable
  const std::string json = o1.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  for (const char* key :
       {"\"makespan\"", "\"critical_stage\"", "\"binding_resource\"",
        "\"resources\"", "\"utilization\"", "\"exposure_s\"",
        "\"predicted_makespan_1_5x\"", "\"predicted_makespan_2x\"",
        "\"shadow_price_s\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // schema_version leads the object — byte-stable diffing anchors on it.
  EXPECT_LT(json.find("\"schema_version\""), json.find("\"makespan\""));

  const std::string table = obs::explain_table(rep);
  EXPECT_NE(table.find("shadow_s/x"), std::string::npos);
  EXPECT_NE(table.find("makespan@2x"), std::string::npos);
}

// ------------------------------- envelope critical-path approximation

TEST(TraceStream, EnvelopeSpansApproximateTheCriticalPath) {
  const std::string path = testing::TempDir() + "obs_envelope_trace.json";
  obs::TraceStream::Options opt;
  opt.path = path;
  opt.sample.nranks = 32;
  opt.sample.sample = 4;  // drop most ranks: envelopes still cover them all
  obs::TraceStream stream(opt);
  obs::Probe probe;
  probe.tracer = &stream;
  {
    amrio::exec::SerialEngine engine(32);
    run_pipeline(engine, probe);
  }
  const auto envelopes = stream.envelope_spans();
  stream.finish();
  std::remove(path.c_str());
  std::remove((path + ".spill").c_str());

  ASSERT_FALSE(envelopes.empty());
  std::set<std::string> stages;
  double t1 = 0.0;
  for (const auto& s : envelopes) {
    EXPECT_TRUE(stages.insert(s.stage).second)
        << "one envelope per stage: " << s.stage;
    EXPECT_GE(s.end, s.start);
    t1 = std::max(t1, s.end);
  }
  for (const char* expect : {"dump", "encode", "ship", "bb_absorb",
                             "bb_drain", "bb_prefetch", "bb_read"})
    EXPECT_TRUE(stages.count(expect)) << "missing envelope " << expect;

  // The approximation feeds the regular analyzer: full coverage, a named
  // critical stage, and a binding resource from the dominant waits.
  const auto cp = obs::critical_path(envelopes, {});
  EXPECT_NEAR(cp.t1, t1, 1e-9);
  double total = 0.0;
  for (const auto& s : cp.stages) total += s.seconds;
  EXPECT_NEAR(total, cp.makespan, 1e-9);
  EXPECT_FALSE(cp.critical_stage.empty());
  EXPECT_FALSE(cp.binding_resource.empty());
}

// -------------------------------------------- machine-scale export smoke

TEST(TraceStreamScale, EventEngine131kSampledExportStaysBounded) {
  // The tentpole scenario: a 131,072-rank event-engine dump streamed through
  // one bounded buffer with 64-rank sampling. Peak resident spans must
  // respect the buffer's capacity and the output file must stay
  // small enough to load in Perfetto, no matter how many spans the run emits.
  constexpr int kRanks = 131072;
  mc::Params params;
  params.nprocs = kRanks;
  params.num_dumps = 1;
  params.part_size = 1000;
  params.avg_num_parts = 1.0;
  params.validate();

  const std::string path = testing::TempDir() + "obs_131k_sampled.json";
  obs::TraceStream::Options opt;
  opt.path = path;
  opt.sample.nranks = kRanks;
  opt.sample.sample = 64;
  opt.capacity = 512;
  obs::TraceStream stream(opt);
  obs::Probe probe;
  probe.tracer = &stream;

  p::MemoryBackend backend(false);
  amrio::exec::EventEngine engine(kRanks);
  const auto dump = mc::run_macsio(engine, params, backend, probe);
  p::SimFsConfig cfg;
  p::SimFs fs(cfg);
  (void)fs.run(dump.requests, probe);  // one pfs_write span per rank
  stream.finish();

  EXPECT_GT(stream.spans_recorded(), 100000u);  // the run really was huge
  EXPECT_LT(stream.spans_kept(), 10000u);       // sampling really dropped
  EXPECT_LE(stream.peak_buffered_spans(), opt.capacity)
      << "the stream's buffer exceeded its capacity";

  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  EXPECT_LT(bytes.size(), 4u << 20) << "sampled trace not bounded";
  EXPECT_EQ(bytes.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(bytes.find("\"aggregated\""), std::string::npos);
  EXPECT_EQ(bytes.back(), '\n');
}
