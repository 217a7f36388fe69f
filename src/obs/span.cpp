#include "obs/span.hpp"

#include <algorithm>
#include <cassert>

namespace amrio::obs {

std::uint64_t Tracer::record(Span s) {
  assert(s.end >= s.start);
  std::lock_guard<std::mutex> lock(log_->mu);
  s.id = log_->ids.next(s.rank);
  const std::uint64_t id = s.id;
  log_->spans.push_back(std::move(s));
  return id;
}

void Tracer::edge(std::uint64_t from, std::uint64_t to) {
  std::lock_guard<std::mutex> lock(log_->mu);
  log_->edges.push_back(SpanEdge{from, to});
}

void Tracer::visit_merged(
    const std::function<void(const std::vector<const Span*>&)>& fn) const {
  // `fn` runs under the lock because it reads the spans in place.
  std::lock_guard<std::mutex> lock(log_->mu);
  // Sort compact keys, not Spans: a Span swap moves four strings.
  struct Keyed {
    SpanKey key;
    const Span* span;
  };
  std::vector<Keyed> keys;
  keys.reserve(log_->spans.size());
  for (const Span& s : log_->spans) keys.push_back({SpanKey(s), &s});
  std::sort(keys.begin(), keys.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<const Span*> order;
  order.reserve(keys.size());
  for (const Keyed& k : keys) order.push_back(k.span);
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
  {
    std::lock_guard<std::mutex> lock(log_->mu);
    out = log_->edges;
  }
  std::sort(out.begin(), out.end(), edge_less);
  return out;
}

}  // namespace amrio::obs
