#include "obs/stream.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>  // std::remove, std::snprintf
#include <fstream>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/export.hpp"

namespace amrio::obs {
namespace {

void put_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::ostream& os, const std::string& s) {
  put_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void put_span(std::ostream& os, const Span& s) {
  os.write(reinterpret_cast<const char*>(&s.id), sizeof(s.id));
  os.write(reinterpret_cast<const char*>(&s.parent), sizeof(s.parent));
  os.write(reinterpret_cast<const char*>(&s.rank), sizeof(s.rank));
  os.write(reinterpret_cast<const char*>(&s.start), sizeof(s.start));
  os.write(reinterpret_cast<const char*>(&s.end), sizeof(s.end));
  os.write(reinterpret_cast<const char*>(&s.wait), sizeof(s.wait));
  os.write(reinterpret_cast<const char*>(&s.service), sizeof(s.service));
  put_str(os, s.stage);
  put_str(os, s.detail);
  put_str(os, s.resource);
  put_str(os, s.res);
}

std::string get_str(std::istream& is) {
  std::uint32_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}

Span get_span(std::istream& is) {
  Span s;
  is.read(reinterpret_cast<char*>(&s.id), sizeof(s.id));
  is.read(reinterpret_cast<char*>(&s.parent), sizeof(s.parent));
  is.read(reinterpret_cast<char*>(&s.rank), sizeof(s.rank));
  is.read(reinterpret_cast<char*>(&s.start), sizeof(s.start));
  is.read(reinterpret_cast<char*>(&s.end), sizeof(s.end));
  is.read(reinterpret_cast<char*>(&s.wait), sizeof(s.wait));
  is.read(reinterpret_cast<char*>(&s.service), sizeof(s.service));
  s.stage = get_str(is);
  s.detail = get_str(is);
  s.resource = get_str(is);
  s.res = get_str(is);
  return s;
}

/// The synthetic track of envelope spans, just above the real ranks.
int envelope_rank(const TraceSample& sample) {
  return std::max(sample.nranks, 0);
}

}  // namespace

std::vector<int> TraceSample::sample_set(int nranks, int n) {
  std::vector<int> out;
  if (nranks <= 0 || n <= 0) return out;
  if (n >= nranks) {
    out.resize(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) out[static_cast<std::size_t>(r)] = r;
    return out;
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // floor(i * nranks / n) in 64-bit so 131072 * large-N cannot overflow
    const int r = static_cast<int>(static_cast<std::int64_t>(i) * nranks / n);
    if (out.empty() || out.back() != r) out.push_back(r);
  }
  return out;
}

void TraceSample::seal() {
  kept_.clear();
  for (int r : sample_set(nranks, sample)) kept_.insert(r);
  for (int r : keep_extra) kept_.insert(r);
  sealed_ = true;
}

bool TraceSample::keep(int rank) const {
  if (!enabled()) return true;
  if (rank < 0) return true;  // driver / phase track is always kept
  assert(sealed_);
  return kept_.count(rank) != 0;
}

TraceStream::TraceStream(Options opt) : opt_(std::move(opt)) {
  if (opt_.capacity == 0) opt_.capacity = 1;
  opt_.sample.seal();
  spill_path_ = opt_.path + ".spill";
}

TraceStream::~TraceStream() {
  if (spill_open_) std::remove(spill_path_.c_str());
}

std::int64_t TraceStream::StageAgg::add(const Span& s) {
  if (count == 0) {
    min_start = s.start;
    max_end = s.end;
  } else {
    min_start = std::min(min_start, s.start);
    max_end = std::max(max_end, s.end);
  }
  ++count;
  dur_ns += std::llround((s.end - s.start) * 1e9);
  const std::int64_t ns = std::llround(s.wait * 1e9);
  wait_ns += ns;
  return ns;
}

std::uint64_t TraceStream::record(Span s) {
  assert(s.end >= s.start);
  std::lock_guard<std::mutex> lock(mu_);
  // Same id rule as Tracer::record: a sampled stream's kept spans carry the
  // ids a buffered run would have assigned them.
  s.id = ids_.next(s.rank);
  const std::uint64_t id = s.id;
  ++recorded_;
  // Per-stage envelope over EVERY span (kept and dropped) — feeds the
  // envelope-span critical-path approximation (envelope_spans()).
  StageAgg& all = stages_[s.stage];
  const std::int64_t wait_ns = all.add(s);
  if (wait_ns > 0 && !s.resource.empty())
    all.wait_by_res[s.resource] += wait_ns;
  if (opt_.sample.keep(s.rank)) {
    ++kept_;
    ranks_seen_.insert(s.rank);
    buf_.push_back(std::move(s));
    peak_ = std::max(peak_, buf_.size());
    if (buf_.size() >= opt_.capacity) spill();
  } else {
    // Dropped spans fold into a per-stage envelope. Integer-nanosecond sums
    // and min/max are commutative, so the aggregate — like everything else
    // here — is engine- and interleaving-invariant.
    dropped_[s.stage].add(s);
  }
  return id;
}

void TraceStream::edge(std::uint64_t from, std::uint64_t to) {
  if (!opt_.sample.keep(span_rank(from)) || !opt_.sample.keep(span_rank(to)))
    return;
  std::lock_guard<std::mutex> lock(mu_);
  edges_.push_back(SpanEdge{from, to});
}

void TraceStream::spill() {
  std::sort(buf_.begin(), buf_.end(), span_less);
  std::ofstream out(spill_path_, spill_open_
                                     ? (std::ios::binary | std::ios::app)
                                     : (std::ios::binary | std::ios::trunc));
  if (!out) throw std::runtime_error("obs: cannot open " + spill_path_);
  spill_open_ = true;
  out.seekp(0, std::ios::end);
  RunInfo run;
  run.offset = static_cast<std::uint64_t>(out.tellp());
  run.count = buf_.size();
  for (const Span& s : buf_) put_span(out, s);
  if (!out) throw std::runtime_error("obs: short write to " + spill_path_);
  runs_.push_back(run);
  buf_.clear();
}

std::size_t TraceStream::peak_buffered_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

std::uint64_t TraceStream::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t TraceStream::spans_kept() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kept_;
}

std::vector<Span> TraceStream::envelope_track(const StageMap& stages,
                                              bool dominant_resource) const {
  const int agg_rank = envelope_rank(opt_.sample);
  std::vector<Span> out;
  out.reserve(stages.size());
  std::uint32_t seq = 0;
  for (const auto& [stage, agg] : stages) {
    Span s;
    s.id = span_id(agg_rank, ++seq);
    s.rank = agg_rank;
    s.stage = stage;
    s.start = agg.min_start;
    s.end = agg.max_end;
    s.wait = static_cast<double>(agg.wait_ns) / 1e9;
    if (dominant_resource) {
      // Largest accumulated wait, ties to the lexicographically first name
      // (map order).
      std::int64_t best = 0;
      for (const auto& [res, ns] : agg.wait_by_res)
        if (ns > best) {
          best = ns;
          s.resource = res;
        }
    } else if (s.wait > 0) {
      s.resource = "(aggregated)";
    }
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%llu spans, %.9f s busy",
                  static_cast<unsigned long long>(agg.count),
                  static_cast<double>(agg.dur_ns) / 1e9);
    s.detail = detail;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), span_less);
  return out;
}

std::vector<Span> TraceStream::envelope_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return envelope_track(stages_, true);
}

void TraceStream::finish() {
  // Held throughout, so a late record() waits instead of touching the
  // buffer mid-merge.
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) throw std::logic_error("TraceStream::finish called twice");
  finished_ = true;

  // One run per spill, one for the buffered remainder and one for the
  // envelopes of the dropped ranks.
  struct Cursor {
    std::vector<Span> buf;  // whole run (in-memory) or refill window (file)
    std::size_t idx = 0;
    std::uint64_t remaining = 0;  // spans still in the file beyond `buf`
    std::uint64_t offset = 0;     // next byte to read from the spill file
    bool spilled = false;         // `buf` is a window of a spill run
  };
  std::vector<Cursor> cursors;
  // Once anything has spilled, the remainder spills too, so the merge holds
  // nothing but the runs' refill windows.
  if (!runs_.empty() && !buf_.empty()) spill();
  std::sort(buf_.begin(), buf_.end(), span_less);
  if (!buf_.empty()) cursors.push_back(Cursor{std::move(buf_)});
  std::sort(edges_.begin(), edges_.end(), edge_less);

  // Envelope spans for the sampled-away ranks, one per stage on a synthetic
  // "aggregated" track just above the real rank range.
  const int agg_rank = envelope_rank(opt_.sample);
  if (!dropped_.empty()) {
    cursors.push_back(Cursor{envelope_track(dropped_, false)});
    ranks_seen_.insert(agg_rank);
  }

  std::ifstream spill;
  if (!runs_.empty()) {
    spill.open(spill_path_, std::ios::binary);
    if (!spill) throw std::runtime_error("obs: cannot reopen " + spill_path_);
    for (const RunInfo& run : runs_) {
      Cursor c;
      c.remaining = run.count;
      c.offset = run.offset;
      c.spilled = true;
      cursors.push_back(std::move(c));
    }
  }

  // The runs share the capacity: a window of max(1, capacity / runs) spans
  // each, so the merge holds at most max(capacity, runs) spans at once (the
  // merge order, and so the output, does not depend on the window).
  const std::uint64_t window = std::max<std::uint64_t>(
      1, opt_.capacity / std::max<std::size_t>(runs_.size(), 1));
  std::size_t resident = 0;  // spans in the windows right now
  auto refill = [&](Cursor& c) {
    if (c.spilled) resident -= c.buf.size();
    c.buf.clear();
    c.idx = 0;
    const std::uint64_t n = std::min<std::uint64_t>(c.remaining, window);
    if (n == 0) return;
    spill.seekg(static_cast<std::streamoff>(c.offset));
    c.buf.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) c.buf.push_back(get_span(spill));
    if (!spill) throw std::runtime_error("obs: short read from " + spill_path_);
    c.offset = static_cast<std::uint64_t>(spill.tellg());
    c.remaining -= n;
    resident += c.buf.size();
    peak_ = std::max(peak_, resident);
  };
  for (Cursor& c : cursors)
    if (c.buf.empty()) refill(c);

  // Which span coordinates the flow-pair pass will need: collect them during
  // the merge so memory stays O(edges), never O(spans).
  std::unordered_set<std::uint64_t> needed;
  needed.reserve(edges_.size() * 2);
  for (const SpanEdge& e : edges_) {
    needed.insert(e.from);
    needed.insert(e.to);
  }
  struct Coord {
    int rank;
    double start, end;
  };
  std::unordered_map<std::uint64_t, Coord> coords;
  coords.reserve(needed.size());

  std::ofstream out(opt_.path, std::ios::binary);
  if (!out) throw std::runtime_error("obs: cannot open " + opt_.path);
  ChromeTraceEmitter em(out);

  std::vector<TraceTrack> tracks;
  tracks.reserve(ranks_seen_.size());
  for (int rank : ranks_seen_)
    tracks.push_back({rank + 1, opt_.sample.enabled() && rank == agg_rank
                                    ? std::string("aggregated")
                                    : track_name(rank)});
  em.begin(tracks);

  // K-way merge of the sorted runs under the global (start, rank, id) order.
  auto heap_greater = [&](std::size_t a, std::size_t b) {
    return span_less(cursors[b].buf[cursors[b].idx],
                     cursors[a].buf[cursors[a].idx]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(heap_greater)>
      heap(heap_greater);
  for (std::size_t i = 0; i < cursors.size(); ++i)
    if (cursors[i].idx < cursors[i].buf.size()) heap.push(i);
  while (!heap.empty()) {
    const std::size_t i = heap.top();
    heap.pop();
    Cursor& c = cursors[i];
    const Span& s = c.buf[c.idx];
    em.span_event(s);
    if (needed.count(s.id)) coords.emplace(s.id, Coord{s.rank, s.start, s.end});
    ++c.idx;
    if (c.idx >= c.buf.size()) refill(c);
    if (c.idx < c.buf.size()) heap.push(i);
  }

  // Same skip-missing-endpoint rule and iteration order as the buffered
  // exporter, so flow ids line up byte for byte.
  for (const SpanEdge& e : edges_) {
    auto from_it = coords.find(e.from);
    auto to_it = coords.find(e.to);
    if (from_it == coords.end() || to_it == coords.end()) continue;
    em.flow_pair(from_it->second.rank, from_it->second.end,
                 to_it->second.rank, to_it->second.start);
  }

  em.finish();
  out.close();
  if (spill_open_) {
    spill.close();
    std::remove(spill_path_.c_str());
    spill_open_ = false;
  }
}

}  // namespace amrio::obs
