#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "util/format.hpp"
#include "util/json.hpp"

namespace amrio::obs {
namespace {

constexpr double kMicros = 1e6;  // virtual seconds -> trace microseconds

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("obs: cannot open " + path);
  return out;
}

/// RFC-4180 quoting for a CSV field: stage/resource names are free-form and
/// may contain commas (e.g. a detail like "level 2, step 7").
std::string csv_field(const std::string& v) {
  if (v.find_first_of(",\"\n\r") == std::string::npos) return v;
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string track_name(int rank) {
  return rank < 0 ? std::string("driver") : "rank " + std::to_string(rank);
}

void ChromeTraceEmitter::begin(const std::vector<TraceTrack>& tracks) {
  w_.begin_object();
  w_.key("displayTimeUnit").value("ms");
  w_.key("traceEvents").begin_array();
  for (const TraceTrack& t : tracks) {
    w_.begin_object();
    w_.key("ph").value("M");
    w_.key("pid").value(0);
    w_.key("tid").value(t.tid);
    w_.key("name").value("thread_name");
    w_.key("args").begin_object();
    w_.key("name").value(t.name);
    w_.end_object();
    w_.end_object();
  }
}

void ChromeTraceEmitter::span_event(const Span& s) {
  w_.begin_object();
  w_.key("ph").value("X");
  w_.key("pid").value(0);
  w_.key("tid").value(s.rank + 1);
  w_.key("name").value(s.stage);
  w_.key("cat").value("pipeline");
  w_.key("ts").value(s.start * kMicros);
  w_.key("dur").value((s.end - s.start) * kMicros);
  w_.key("args").begin_object();
  w_.key("id").value(std::uint64_t{s.id});
  if (s.parent != 0) w_.key("parent").value(std::uint64_t{s.parent});
  if (!s.detail.empty()) w_.key("detail").value(s.detail);
  if (s.wait > 0) {
    w_.key("wait_s").value(s.wait);
    w_.key("resource").value(s.resource);
  }
  if (!s.res.empty()) {
    w_.key("service_s").value(s.service);
    w_.key("res").value(s.res);
  }
  w_.end_object();
  w_.end_object();
}

void ChromeTraceEmitter::flow_pair(int from_rank, double from_end,
                                   int to_rank, double to_start) {
  ++flow_;
  w_.begin_object();
  w_.key("ph").value("s");
  w_.key("pid").value(0);
  w_.key("tid").value(from_rank + 1);
  w_.key("name").value("dep");
  w_.key("cat").value("edge");
  w_.key("id").value(std::uint64_t{flow_});
  w_.key("ts").value(from_end * kMicros);
  w_.end_object();
  w_.begin_object();
  w_.key("ph").value("f");
  w_.key("bp").value("e");
  w_.key("pid").value(0);
  w_.key("tid").value(to_rank + 1);
  w_.key("name").value("dep");
  w_.key("cat").value("edge");
  w_.key("id").value(std::uint64_t{flow_});
  w_.key("ts").value(to_start * kMicros);
  w_.end_object();
}

void ChromeTraceEmitter::finish() {
  w_.end_array();
  w_.end_object();
  os_ << "\n";
}

namespace {

/// The buffered exporter over spans already in merged order.
void write_chrome_trace_ordered(std::ostream& os,
                                const std::vector<const Span*>& spans,
                                const std::vector<SpanEdge>& edges) {
  ChromeTraceEmitter em(os);

  // Thread-name metadata, one per distinct rank track, rank order.
  std::vector<int> ranks;
  ranks.reserve(spans.size());
  for (const Span* s : spans) ranks.push_back(s->rank);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  std::vector<TraceTrack> tracks;
  tracks.reserve(ranks.size());
  for (int rank : ranks) tracks.push_back({rank + 1, track_name(rank)});
  em.begin(tracks);

  for (const Span* s : spans) em.span_event(*s);

  // Flow pairs need each edge's endpoints; an edge-free trace skips the
  // id index.
  if (!edges.empty()) {
    std::unordered_map<std::uint64_t, const Span*> by_id;
    by_id.reserve(spans.size());
    for (const Span* s : spans) by_id.emplace(s->id, s);
    for (const SpanEdge& e : edges) {
      auto from_it = by_id.find(e.from);
      auto to_it = by_id.find(e.to);
      if (from_it == by_id.end() || to_it == by_id.end()) continue;
      const Span& from = *from_it->second;
      const Span& to = *to_it->second;
      em.flow_pair(from.rank, from.end, to.rank, to.start);
    }
  }

  em.finish();
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::vector<SpanEdge>& edges) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  write_chrome_trace_ordered(os, order, edges);
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snap) {
  util::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.key(name).value(v);
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.key(name).value(v);
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.key("quantum").value(h.quantum);
    w.key("count").value(h.count);
    w.key("sum").value(h.sum());
    w.key("mean").value(h.mean());
    // Explicit bucket boundaries: index b holds units in [2^b, 2^(b+1)),
    // so in value terms [2^b * quantum, 2^(b+1) * quantum); index -1 holds
    // exact zeros (lo == hi == 0).
    w.key("buckets").begin_array();
    for (const auto& [bucket, count] : h.buckets) {
      w.begin_object();
      w.key("bucket").value(bucket);
      w.key("lo").value(bucket < 0 ? 0.0 : std::ldexp(1.0, bucket) * h.quantum);
      w.key("hi").value(bucket < 0 ? 0.0
                                   : std::ldexp(1.0, bucket + 1) * h.quantum);
      w.key("count").value(count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("series").begin_object();
  for (const auto& [name, ts] : snap.series) {
    w.key(name).begin_array();
    for (const auto& [t, v] : ts.samples) {
      w.begin_array();
      w.value(t);
      w.value(v);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();

  w.end_object();
  os << "\n";
}

void write_metrics_csv(std::ostream& os, const MetricsSnapshot& snap) {
  // Pinned layout: header `kind,name,key,value`, then counters, gauges,
  // histograms (count, sum, buckets), series samples — each section in the
  // snapshot's (sorted-map) name order. bench_diff.py and downstream
  // scripts rely on this order; change it only with a schema version bump.
  os << "kind,name,key,value\n";
  for (const auto& [name, v] : snap.counters)
    os << "counter," << csv_field(name) << ",," << v << "\n";
  for (const auto& [name, v] : snap.gauges)
    os << "gauge," << csv_field(name) << ",," << util::format_g(v, 17)
       << "\n";
  for (const auto& [name, h] : snap.histograms) {
    os << "histogram," << csv_field(name) << ",count," << h.count << "\n";
    os << "histogram," << csv_field(name) << ",sum,"
       << util::format_g(h.sum(), 17) << "\n";
    for (const auto& [bucket, count] : h.buckets)
      os << "histogram_bucket," << csv_field(name) << "," << bucket << ","
         << count << "\n";
  }
  for (const auto& [name, ts] : snap.series)
    for (const auto& [t, v] : ts.samples)
      os << "sample," << csv_field(name) << "," << util::format_g(t, 17)
         << "," << util::format_g(v, 17) << "\n";
}

void export_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out = open_or_throw(path);
  const std::vector<SpanEdge> edges = tracer.edges();
  tracer.visit_merged([&](const std::vector<const Span*>& spans) {
    write_chrome_trace_ordered(out, spans, edges);
  });
}

void export_metrics(const std::string& path, const MetricsSnapshot& snap) {
  std::ofstream out = open_or_throw(path);
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
    write_metrics_csv(out, snap);
  else
    write_metrics_json(out, snap);
}

}  // namespace amrio::obs
