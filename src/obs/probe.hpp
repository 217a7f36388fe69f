#pragma once
/// \file probe.hpp
/// The instrumentation handle threaded through the pipeline. Every
/// instrumented layer (`codec` stage inside the macsio driver, `exec`
/// collectives, `pfs::SimFs`) takes an `obs::Probe` — a bundle of optional
/// pointers. A
/// default-constructed probe disables instrumentation with near-zero overhead
/// (a few null checks per site), so hot paths don't fork on an #ifdef.

namespace amrio::obs {

class SpanSink;
class MetricsRegistry;
class ResourceLedger;

struct Probe {
  SpanSink* tracer = nullptr;  ///< buffered Tracer or streaming TraceStream
  MetricsRegistry* metrics = nullptr;
  ResourceLedger* ledger = nullptr;  ///< per-resource busy/idle/queue ledger

  explicit operator bool() const {
    return tracer != nullptr || metrics != nullptr || ledger != nullptr;
  }
};

}  // namespace amrio::obs
