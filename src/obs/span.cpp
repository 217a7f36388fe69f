#include "obs/span.hpp"

#include <algorithm>
#include <cassert>

#include "obs/shard.hpp"

namespace amrio::obs {

Tracer::Tracer(std::size_t nsinks) {
  if (nsinks == 0) nsinks = 1;
  sinks_.reserve(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    sinks_.push_back(std::make_unique<Sink>());
}

Tracer::Sink& Tracer::sink_for(int rank) {
  return *sinks_[rank_shard(rank, sinks_.size())];
}

std::uint64_t Tracer::record(Span s) {
  assert(s.end >= s.start);
  Sink& sink = sink_for(s.rank);
  std::lock_guard<std::mutex> lock(sink.mu);
  const std::uint32_t seq = ++sink.next_seq[s.rank];
  s.id = (static_cast<std::uint64_t>(static_cast<std::int64_t>(s.rank) + 1)
          << 32) |
         seq;
  const std::uint64_t id = s.id;
  sink.spans.push_back(std::move(s));
  return id;
}

void Tracer::edge(std::uint64_t from, std::uint64_t to) {
  // Shard by the from-id's rank track so edge recording is as contention-free
  // as span recording.
  const int rank = static_cast<int>(static_cast<std::int64_t>(from >> 32)) - 1;
  Sink& sink = sink_for(rank);
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.edges.push_back(SpanEdge{from, to});
}

void Tracer::visit_merged(
    const std::function<void(const std::vector<const Span*>&)>& fn) const {
  // Sinks lock in index order; record() and edge() hold one sink lock at a
  // time, so this cannot deadlock. `fn` runs under the locks because it
  // reads the spans in place.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(sinks_.size());
  std::size_t n = 0;
  for (const auto& sink : sinks_) {
    locks.emplace_back(sink->mu);
    n += sink->spans.size();
  }
  // Sort compact keys, not Spans: a Span swap moves four strings.
  struct Key {
    double start;
    int rank;
    std::uint64_t id;
    const Span* span;
  };
  std::vector<Key> keys;
  keys.reserve(n);
  for (const auto& sink : sinks_)
    for (const Span& s : sink->spans)
      keys.push_back({s.start, s.rank, s.id, &s});
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.id < b.id;
  });
  std::vector<const Span*> order;
  order.reserve(n);
  for (const Key& k : keys) order.push_back(k.span);
  fn(order);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  visit_merged([&](const std::vector<const Span*>& order) {
    out.reserve(order.size());
    for (const Span* s : order) out.push_back(*s);
  });
  return out;
}

std::vector<SpanEdge> Tracer::edges() const {
  std::vector<SpanEdge> out;
  for (const auto& sink : sinks_) {
    std::lock_guard<std::mutex> lock(sink->mu);
    out.insert(out.end(), sink->edges.begin(), sink->edges.end());
  }
  std::sort(out.begin(), out.end(), [](const SpanEdge& a, const SpanEdge& b) {
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  });
  return out;
}

}  // namespace amrio::obs
