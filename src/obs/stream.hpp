#pragma once
/// \file stream.hpp
/// Streaming trace export for machine-scale runs. `obs::Tracer` buffers
/// every span of every rank in memory, which is fine at 32 ranks and
/// hopeless at the 100k–516k virtual ranks `exec::EventEngine` makes
/// routine. `TraceStream` is a `SpanSink` that keeps peak memory bounded:
///
///  * spans land in one bounded buffer (ids from the same `SpanIds` rule as
///    `Tracer`, so ids — and therefore edges — are identical to a buffered
///    run of the same workload);
///  * a full buffer is sorted by the global `span_less` order and spilled
///    to a binary side file as a sorted run;
///  * `finish()` spills the still-buffered remainder too (when anything
///    spilled) and k-way-merges the runs through refill windows that share
///    the capacity, then emits the final Chrome-trace JSON through the same
///    `ChromeTraceEmitter` the buffered exporter uses — an unsampled
///    streamed file is byte-identical to `write_chrome_trace` on the same
///    span stream (pinned by tests/test_obs.cpp), however the runs split.
///
/// Deterministic rank sampling (`TraceSample`) bounds the *output* as well:
/// only spans from N evenly spaced representative ranks (plus the driver
/// track and any caller-listed always-keep ranks, e.g. aggregators) are kept
/// verbatim; everything else folds into per-stage envelope spans on a
/// single "aggregated" track. The sample set is a pure function of
/// (nranks, N), so it is identical across engines and runs.

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace amrio::obs {

/// Deterministic rank-sampling policy. Default-constructed keeps everything.
struct TraceSample {
  int nranks = 0;  ///< total rank count of the run (for the sample spacing)
  int sample = 0;  ///< keep this many evenly spaced ranks; 0 = keep all
  std::vector<int> keep_extra;  ///< always-keep ranks (aggregators, ...)

  /// The N evenly spaced representative ranks: { floor(i*nranks/N) }.
  /// Pure function of (nranks, n) — same set on every engine and run.
  static std::vector<int> sample_set(int nranks, int n);

  bool enabled() const { return sample > 0; }

  /// True when `rank`'s spans are kept verbatim. Rank -1 (driver) always is.
  bool keep(int rank) const;

  /// Builds the membership set; call once after filling the fields.
  void seal();

 private:
  std::set<int> kept_;
  bool sealed_ = false;
};

/// Bounded-memory streaming span sink. Thread-safe like `Tracer` (one
/// mutex). Call `finish()` exactly once when the run is complete; the
/// destructor discards unfinished state and removes the spill file.
class TraceStream : public SpanSink {
 public:
  struct Options {
    std::string path;             ///< output Chrome-trace JSON path
    TraceSample sample;           ///< default: keep every span
    std::size_t capacity = 4096;  ///< spans buffered before a spill
  };

  explicit TraceStream(Options opt);
  ~TraceStream() override;

  std::uint64_t record(Span s) override;
  void edge(std::uint64_t from, std::uint64_t to) override;

  /// Merge spilled runs + the in-memory remainder and write the final JSON.
  void finish();

  /// High-water mark of the spans held in memory: the recording buffer,
  /// and during `finish()` the spill runs' refill windows, which share the
  /// capacity (max(1, capacity / runs) spans each). Never exceeds
  /// `capacity` unless the run spills more runs than that (more than
  /// capacity² kept spans); then it is the run count, one span per run.
  std::size_t peak_buffered_spans() const;

  /// Spans recorded (pre-sampling) / kept verbatim (post-sampling).
  std::uint64_t spans_recorded() const;
  std::uint64_t spans_kept() const;

  /// Per-stage envelope spans over EVERY recorded span (kept and dropped
  /// alike): one span per stage covering [min start, max end], with the
  /// stage's total wait and its dominant wait resource. This is the input
  /// to the documented envelope-span critical-path approximation under
  /// `--trace_sample` (the full stream is never resident, so the exact
  /// chain is unavailable). Integer-nanosecond accumulation keeps the
  /// result engine- and interleaving-invariant. Callable any time.
  std::vector<Span> envelope_spans() const;

  bool finished() const { return finished_; }

 private:
  struct StageAgg {  // envelope of one stage's spans
    std::uint64_t count = 0;
    std::int64_t dur_ns = 0;   // integer sums: commutative across engines
    std::int64_t wait_ns = 0;
    double min_start = 0.0;
    double max_end = 0.0;
    /// wait nanoseconds keyed by Span::resource — picks the envelope's
    /// dominant resource (empty-resource wait is not attributed). Filled
    /// for `stages_` only.
    std::map<std::string, std::int64_t> wait_by_res;

    /// Folds `s` in; returns its wait in integer nanoseconds.
    std::int64_t add(const Span& s);
  };
  using StageMap = std::map<std::string, StageAgg>;

  /// One span per stage on the synthetic track just above the real ranks
  /// (rank `nranks`), numbered in stage order and sorted by `span_less`.
  /// With `dominant_resource` each names its stage's largest wait
  /// resource; otherwise a waiting envelope names "(aggregated)".
  std::vector<Span> envelope_track(const StageMap& stages,
                                   bool dominant_resource) const;
  void spill();  // caller holds mu_

  Options opt_;
  mutable std::mutex mu_;
  std::vector<Span> buf_;
  std::vector<SpanEdge> edges_;
  SpanIds ids_;
  StageMap dropped_;  // only when sampling
  StageMap stages_;   // every span, kept or dropped
  std::set<int> ranks_seen_;  // kept ranks only
  std::size_t peak_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t kept_ = 0;

  std::string spill_path_;
  struct RunInfo {
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
  };
  std::vector<RunInfo> runs_;
  bool spill_open_ = false;
  bool finished_ = false;
};

}  // namespace amrio::obs
