#pragma once
/// \file selfprof.hpp
/// Host-side self-profiling of the simulator itself. Everything else in
/// `src/obs` measures the *virtual* timeline; `SelfProfiler` measures the
/// machine running it — wall seconds per phase, events processed per
/// second, ready-queue depth high-water, context switches, SliceArena
/// bytes — so event-engine performance work has data instead of vibes.
/// Engines publish into it via `exec::Engine::set_profiler`; `macsio_proxy`
/// exports it with `--prof_out`.
///
/// Wall-clock numbers are machine- and load-dependent by nature: nothing
/// here participates in the engine-invariance contract of the other obs
/// exports, and prof output must never be byte-compared across runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

namespace amrio::obs {

struct SelfProfSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct Phase {
    double wall_s = 0.0;
    std::uint64_t count = 0;  ///< times the phase ran
  };
  std::map<std::string, Phase> phases;
};

/// Thread-safe wall-clock counter/gauge/phase accumulator. Engines buffer
/// hot-loop counts locally and publish once per run, so profiling adds no
/// per-event synchronization.
class SelfProfiler {
 public:
  void count(const std::string& name, std::uint64_t v = 1);
  void gauge_max(const std::string& name, double v);
  void phase_add(const std::string& name, double wall_s);

  SelfProfSnapshot snapshot() const;

  /// RAII wall-clock phase timer: `obs::SelfProfiler::ScopedPhase p(prof,
  /// "dump");` — a null profiler makes it a no-op.
  class ScopedPhase {
   public:
    ScopedPhase(SelfProfiler* prof, std::string name)
        : prof_(prof),
          name_(std::move(name)),
          t0_(std::chrono::steady_clock::now()) {}
    ~ScopedPhase() {
      if (prof_ == nullptr) return;
      const auto dt = std::chrono::steady_clock::now() - t0_;
      prof_->phase_add(name_,
                       std::chrono::duration<double>(dt).count());
    }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

   private:
    SelfProfiler* prof_;
    std::string name_;
    std::chrono::steady_clock::time_point t0_;
  };

 private:
  mutable std::mutex mu_;
  SelfProfSnapshot snap_;
};

/// Snapshot as JSON: {counters: {...}, gauges: {...}, phases: {name:
/// {wall_s, count}}}.
void write_selfprof_json(std::ostream& os, const SelfProfSnapshot& snap);

/// Write the snapshot to `path` as JSON. Throws when the file cannot open.
void export_selfprof(const std::string& path, const SelfProfSnapshot& snap);

}  // namespace amrio::obs
