#pragma once
/// \file slack.hpp
/// Span-DAG slack analysis: a forward/backward pass over a recorded span
/// stream computing, per span, the dependency-only earliest start, the
/// latest end that leaves the makespan unchanged, and the slack between the
/// recorded schedule and that latest end. Spans with (near-)zero slack form
/// the critical frontier; the report also extracts the top-k near-critical
/// chains so "what else is about to bind?" has an answer beyond the single
/// chain `critical_path` attributes.
///
/// Dependency model (shared with the what-if engine, whatif.hpp):
///  * explicit happens-before edges (`SpanEdge`) are dependencies with lag
///    `min(0, to.start - from.end)` — a non-overlapping edge imposes no gap
///    (the recorded gap is waiting, not structure), an overlapping edge
///    (prefetch -> bb_read) keeps its recorded overlap;
///  * a span with no incoming edge chains to its same-rank program-order
///    predecessor (the latest span on its rank ending at or before its
///    start) with the recorded lag preserved — the lag is a fixed release
///    offset (mds latency, submit spacing), not compressible waiting;
///  * a span with neither is anchored at its recorded start (a fixed
///    release: the driver submits on the virtual clock, not on a
///    dependency).
///
/// The recorded schedule is feasible under this model by construction, so
/// `earliest_start <= start`, `latest_end >= end`, and `slack >= 0` hold
/// structurally for every span (pinned by tests/test_obs.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/span.hpp"

namespace amrio::obs {

/// The dependency structure over one span stream, index-aligned with the
/// input vector. Built once, shared by `slack_analysis` and the what-if
/// replay so both passes agree on what is structure and what is waiting.
struct SpanDag {
  /// Incoming explicit-edge predecessors per span (indices). When non-empty
  /// they define the span's release and the program-order predecessor is
  /// suppressed (an edge-released span does not also wait for its rank's
  /// previous span in this model).
  std::vector<std::vector<std::size_t>> edge_preds;
  /// Same-rank program-order predecessor index, or -1 (none / suppressed).
  std::vector<std::ptrdiff_t> po_pred;
  /// Child span indices per span (via Span::parent). A span with children is
  /// a container: its interval summarizes its children's work, so the
  /// what-if replay derives its end from the children instead of treating
  /// the recorded duration as incompressible.
  std::vector<std::vector<std::size_t>> children;
  /// Span indices in the global (start, rank, id) order — the sweep order
  /// for the iterative relaxation passes.
  std::vector<std::size_t> order;
};

SpanDag build_span_dag(const std::vector<Span>& spans,
                       const std::vector<SpanEdge>& edges);

struct SlackSpan {
  std::uint64_t id = 0;
  double earliest_start = 0.0;  ///< dependency-only earliest (<= start)
  double latest_end = 0.0;      ///< latest end leaving t1 unchanged (>= end)
  double slack = 0.0;           ///< latest_end - end, >= 0
};

/// One near-critical chain, head first. `slack` is the terminal span's
/// slack — 0 for the critical chain itself.
struct SlackPath {
  double slack = 0.0;
  std::vector<std::size_t> chain;  ///< indices into the input span vector
};

struct SlackReport {
  double t0 = 0.0;        ///< min recorded start
  double t1 = 0.0;        ///< max recorded end
  double makespan = 0.0;  ///< t1 - t0
  std::vector<SlackSpan> spans;  ///< index-aligned with the input
  /// Top-k chains by terminal slack, ascending — [0] is the critical chain.
  std::vector<SlackPath> near_critical;
};

/// Forward/backward slack pass. `top_k` bounds `near_critical`.
SlackReport slack_analysis(const std::vector<Span>& spans,
                           const std::vector<SpanEdge>& edges,
                           std::size_t top_k = 3);
/// The `dag` overload shares one dependency build with the what-if replays.
SlackReport slack_analysis(const std::vector<Span>& spans, const SpanDag& dag,
                           std::size_t top_k = 3);

}  // namespace amrio::obs
