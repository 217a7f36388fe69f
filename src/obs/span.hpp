#pragma once
/// \file span.hpp
/// Virtual-time span tracing for the staging pipeline. A Span is an interval
/// on the *simulated* clock (the same clock `IoResult`/`DumpStats` report),
/// owned by a rank track, optionally nested under a parent span and linked to
/// other spans by happens-before edges (absorb→drain, prefetch→bb_read).
///
/// Determinism contract: a sink is one log. Span ids are
/// `(rank+1) << 32 | per-rank-seq` (`span_id`), so they depend only on
/// per-rank program order (engine-invariant), and every reader sees the
/// spans in the one total order `span_less`: (start, rank, id).
/// The ordered stream is byte-identical across the serial, spmd, and event
/// engines for the same configuration.

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace amrio::obs {

/// One stage interval on the virtual clock. `rank == -1` is the driver /
/// phase track (dump/restart boundaries). `wait` is the portion of the
/// interval spent blocked on `resource` (drain stream slot, BB capacity,
/// OST service, NIC...) — the critical-path analyzer aggregates it to name
/// the binding resource of a configuration.
struct Span {
  std::uint64_t id = 0;      ///< assigned by Tracer::record
  std::uint64_t parent = 0;  ///< 0 = top-level on its track
  int rank = -1;
  std::string stage;     ///< taxonomy name: "encode", "ship", "bb_drain", ...
  std::string detail;    ///< free-form qualifier ("dump 3", "ckpt/g0002", ...)
  double start = 0.0;    ///< virtual seconds
  double end = 0.0;      ///< virtual seconds, >= start
  double wait = 0.0;     ///< seconds of the interval blocked on `resource`
  std::string resource;  ///< what `wait` waited on; empty if wait == 0
  double service = 0.0;  ///< seconds of the interval served by `res`
  /// ResourceLedger id of the pool that served this span ("ost[3]",
  /// "bb[0].drain", "agg_link", "codec_cpu", ...); empty = untagged. The
  /// what-if engine (whatif.hpp) scales `service`/`wait` by matching this
  /// id (and `resource`) against a relief scenario's resource group.
  std::string res;
};

/// Happens-before between two recorded spans (cross-rank or cross-stage).
struct SpanEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

/// The id of the `seq`-th span (from 1) recorded on `rank`'s track.
inline std::uint64_t span_id(int rank, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::int64_t>(rank) + 1)
          << 32) |
         seq;
}

/// The rank track a span id belongs to (inverse of `span_id`).
inline int span_rank(std::uint64_t id) {
  return static_cast<int>(static_cast<std::int64_t>(id >> 32)) - 1;
}

/// A span's place in the global order every obs pass shares:
/// (start, rank, id). Ids are unique, so the order is total.
struct SpanKey {
  double start;
  int rank;
  std::uint64_t id;

  explicit SpanKey(const Span& s) : start(s.start), rank(s.rank), id(s.id) {}

  bool operator<(const SpanKey& o) const {
    if (start != o.start) return start < o.start;
    if (rank != o.rank) return rank < o.rank;
    return id < o.id;
  }
};

inline bool span_less(const Span& a, const Span& b) {
  return SpanKey(a) < SpanKey(b);
}

/// Edge order of every edge list a sink returns: (from, to).
inline bool edge_less(const SpanEdge& a, const SpanEdge& b) {
  if (a.from != b.from) return a.from < b.from;
  return a.to < b.to;
}

/// Hands out span ids: one program-order counter per rank track, in a flat
/// table indexed by rank + 1 (the driver track is rank -1).
class SpanIds {
 public:
  std::uint64_t next(int rank) {
    assert(rank >= -1);
    const auto slot = static_cast<std::size_t>(rank + 1);
    if (slot >= seq_.size()) seq_.resize(slot + 1, 0);
    return span_id(rank, ++seq_[slot]);
  }

 private:
  std::vector<std::uint32_t> seq_;
};

/// Abstract destination for recorded spans. Instrumentation sites only ever
/// `record` and `edge`; what happens to the span afterwards — buffered in
/// memory (`Tracer`) or streamed through bounded buffers to a file
/// (`TraceStream`, stream.hpp) — is the sink's business. Every sink assigns
/// ids through `SpanIds`, so the id a site gets back is independent of the
/// sink implementation.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  /// Record a span; assigns and returns its id. `s.id` is ignored on input.
  /// Ids are deterministic given per-rank program order.
  virtual std::uint64_t record(Span s) = 0;

  /// Record a happens-before edge between two previously recorded spans.
  virtual void edge(std::uint64_t from, std::uint64_t to) = 0;
};

/// In-memory span collector: one span log and one edge log. Thread-safe
/// (one mutex), so concurrent recorders yield the same snapshot as a serial
/// pass as long as each rank records in program order.
class Tracer : public SpanSink {
 public:
  std::uint64_t record(Span s) override;

  void edge(std::uint64_t from, std::uint64_t to) override;

  /// Deterministic snapshot, ordered by `span_less`.
  std::vector<Span> spans() const;

  /// Calls `fn` once with the spans() order as pointers into the log, so a
  /// consumer that only reads (the trace exporter) copies no span. The log
  /// stays locked while `fn` runs: `fn` must not touch this tracer.
  void visit_merged(
      const std::function<void(const std::vector<const Span*>&)>& fn) const;

  /// Deterministic edge list, ordered by `edge_less`.
  std::vector<SpanEdge> edges() const;

 private:
  struct Log {
    std::mutex mu;
    // A deque grows without moving spans: a vector's doubling holds three
    // times the log at once (+8 MiB peak RSS on an 8,192-rank explain run).
    std::deque<Span> spans;
    std::vector<SpanEdge> edges;
    SpanIds ids;
  };
  // Behind a pointer so a Tracer stays move-assignable (benches reset one
  // per study row).
  std::unique_ptr<Log> log_ = std::make_unique<Log>();
};

}  // namespace amrio::obs
