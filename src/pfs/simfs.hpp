#pragma once
/// \file simfs.hpp
/// Discrete-event simulator of a striped parallel filesystem (a GPFS/Lustre
/// hybrid abstraction of Summit's Alpine scratch). The paper calls the timing
/// side of I/O the "dynamic" system behaviour — bandwidth, file-system
/// variability, burstiness — and positions the calibrated MACSio proxy as the
/// workload generator for exactly such studies. This module is the machine
/// those studies run on when no 250 PB filesystem is at hand.
///
/// Model:
///  * a single metadata server serializes file creates (`mds_latency` each);
///    requests are serviced in submit-time order, with submit-time ties
///    broken deterministically by (client, path text) — so staged drain
///    replays are reproducible no matter which engine (or request-list or
///    path-table order) produced them;
///  * each file is striped over `stripe_count` object storage targets (OSTs)
///    selected by file-name hash;
///  * writes are split into `stripe_size` chunks issued round-robin over the
///    file's OSTs; a client issues its chunks sequentially;
///  * each OST is a FIFO server with `ost_bandwidth`; each client NIC caps
///    throughput at `client_bandwidth`;
///  * optional lognormal service-time noise (`variability_sigma`), seeded —
///    the same seed always replays the same timeline.
///
/// Burst-buffer tier (the staging subsystem's "dynamic" half): when
/// `SimFsConfig::bb.enabled` is set, requests tagged `tier ==
/// kTierBurstBuffer` are *absorbed* into their node's staging area at
/// burst-buffer bandwidth (the writer perceives completion at absorb end —
/// `IoResult::end`), and the absorbed bytes are then *drained* asynchronously
/// onto the OST layer by up to `drain_concurrency` streams per node
/// (`IoResult::pfs_end` is when the bytes are durable on the PFS). A bounded
/// per-node `capacity` makes absorbs stall until earlier drains free space —
/// the classic BB-capacity-induced perceived-bandwidth collapse.
///
/// Read side (checkpoint restart): requests carry an `op` —
///  * `kOpRead` + `kTierPfs`: a cold fetch off the OSTs. Chunks stream over
///    the file's stripe set through the same contention timeline writes use
///    (reads and writes share the OST FIFOs), capped by the client NIC;
///    submit-time ties obey the same documented (client, path text) order.
///  * `kOpPrefetch` (+ BB tier enabled): the drain in reverse — an OST→node
///    transfer at `drain_bandwidth` per stream, bounded by
///    `prefetch_concurrency` streams per node, reserving staging `capacity`
///    on start. `end`/`pfs_end` is when the extent is resident node-local.
///  * `kOpRead` + `kTierBurstBuffer`: a node-local fetch of a prefetched
///    extent at `read_bandwidth` (FIFO per node, no NIC/OST crossing). If
///    the same batch prefetches the same (node, file) — possibly several
///    times, one per rank slice of a shared dump file — a read waits until
///    that key's staged pool holds at least its size (reads consume in
///    FIFO order, so they interleave with prefetch waves when `capacity`
///    cannot hold the whole image at once). Completing the read *evicts*
///    up to its size of the bytes those prefetches staged (never other
///    requests' reservations), freeing capacity for stalled
///    absorbs/prefetches; a BB-tier read with no prefetch in the batch
///    frees nothing. A batch the tier can never drain (e.g. prefetch
///    reservations over capacity with no reads to evict between waves)
///    fails loudly with a ContractViolation instead of returning stalled
///    requests as complete.
/// With the BB tier disabled, reads and prefetches tagged for it are served
/// as direct PFS reads — one tagged workload replays against both setups,
/// exactly like the write path.
///
/// Memory: beyond the batch and its results, a replay holds only what is
/// live — opens enter the event queue as the clock reaches them and a
/// flight exists from its first chunk to its last. Per-file work (hashing a
/// path to its stripe set, ranking it by text) is done once per table
/// entry, not per request. Per-request observability bookkeeping exists
/// only when the run carries a probe.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.hpp"

namespace amrio::obs {
struct ReliefKnobs;
}  // namespace amrio::obs

namespace amrio::pfs {

/// Request/result tier tags.
inline constexpr int kTierPfs = 0;
inline constexpr int kTierBurstBuffer = 1;

/// Request/result operation tags.
inline constexpr int kOpWrite = 0;
inline constexpr int kOpRead = 1;
inline constexpr int kOpPrefetch = 2;

/// Burst-buffer staging tier configuration (per-node semantics). Disabled by
/// default: tier tags on requests are then ignored and everything goes
/// straight at the OST layer.
struct TierConfig {
  bool enabled = false;
  int nodes = 1;  ///< staging areas; node of client c = (c / ranks_per_node) % nodes
  /// Consecutive clients per node (jsrun-style contiguous packing). 1 makes
  /// node assignment cycle client-by-client.
  int ranks_per_node = 1;
  /// bytes/sec absorb rate per node. Node-local (NVMe-style): absorbs are
  /// *not* capped by the client NIC — that cap applies on the way to the PFS.
  double write_bandwidth = 10.0e9;
  double drain_bandwidth = 2.0e9;   ///< bytes/sec per drain stream (to OSTs)
  std::uint64_t capacity = 0;       ///< bytes per node staging area; 0 = unbounded
  int drain_concurrency = 2;        ///< concurrent drain streams per node
  /// bytes/sec node-local read rate for BB-resident extents (kOpRead on the
  /// BB tier). Like absorbs, these never cross the client NIC.
  double read_bandwidth = 10.0e9;
  /// Concurrent OST→node prefetch streams per node (each at
  /// `drain_bandwidth`); 0 = use `drain_concurrency`.
  int prefetch_concurrency = 0;
};

struct SimFsConfig {
  int n_ost = 8;
  double ost_bandwidth = 1.0e9;     ///< bytes/sec per OST
  double client_bandwidth = 2.0e9;  ///< bytes/sec per client NIC
  std::uint64_t stripe_size = 1ull << 20;
  int stripe_count = 1;             ///< OSTs per file
  double mds_latency = 5.0e-4;      ///< seconds per file create, serialized
  double variability_sigma = 0.0;   ///< lognormal sigma on chunk service time
  std::uint64_t seed = 0x5eed;
  TierConfig bb;                    ///< optional burst-buffer staging tier
};

/// One I/O request of a batch. It names its file by index into the batch's
/// path table (IoBatch::files), so a request is 32 bytes and holds no heap
/// memory however many requests share a path.
struct IoRequest {
  int client = 0;
  std::uint32_t file = 0;  ///< index into IoBatch::files
  double submit_time = 0.0;
  /// Bytes to serve. Workloads with an in-situ codec stage (amrio::codec)
  /// submit *encoded* sizes here — what actually crosses the NIC and lands
  /// on the OSTs/tier — with the modeled encode cpu already folded into
  /// `submit_time`; raw production is accounted upstream.
  std::uint64_t bytes = 0;
  /// kTierPfs (direct) or kTierBurstBuffer (absorb + async drain). The tag is
  /// a request attribute: a SimFs without an enabled BB tier serves tagged
  /// requests directly, so one tagged workload replays against both setups.
  int tier = kTierPfs;
  /// kOpWrite (default), kOpRead (fetch `bytes` — encoded sizes for workloads
  /// with a codec stage, decode cpu accounted upstream), or kOpPrefetch
  /// (OST→BB staging of `bytes` ahead of BB-tier reads).
  int op = kOpWrite;
};
static_assert(sizeof(IoRequest) == 32, "IoRequest is four 8-byte words");

/// A batch SimFs replays: each path stored once in `files`, and requests
/// that name theirs by index. A file's identity is its path text, not its
/// index — two entries with equal text are one file (one stripe set, one
/// burst-buffer prefetch key), and ties follow the text, so reordering the
/// table changes no result.
struct IoBatch {
  std::vector<std::string> files;  ///< path table
  std::vector<IoRequest> requests;

  /// Append `path` to the table and return its index for IoRequest::file.
  std::uint32_t add_file(std::string path);
  const std::string& path(const IoRequest& req) const {
    return files[req.file];
  }

  std::size_t size() const { return requests.size(); }
  bool empty() const { return requests.empty(); }
  const IoRequest& operator[](std::size_t i) const { return requests[i]; }
  std::vector<IoRequest>::const_iterator begin() const {
    return requests.begin();
  }
  std::vector<IoRequest>::const_iterator end() const { return requests.end(); }
};

struct IoResult {
  double open_start = 0.0;  ///< when the MDS began servicing the create
  double open_end = 0.0;    ///< create done; first data chunk may be issued
  double end = 0.0;         ///< perceived completion (absorb end on the BB tier)
  /// When the bytes are durable on the PFS tier: drain completion for staged
  /// requests, == end for direct ones. Sustained-bandwidth studies use this.
  double pfs_end = 0.0;
  int first_ost = 0;        ///< first OST of the stripe set
  int tier = kTierPfs;      ///< tier the request was actually served on
  int op = kOpWrite;        ///< operation the request carried
  std::uint64_t bytes = 0;
  double duration() const { return end - open_start; }
  /// Effective (perceived) bandwidth seen by this request (bytes/sec).
  double bandwidth() const {
    const double d = duration();
    return d > 0 ? static_cast<double>(bytes) / d : 0.0;
  }
};

class SimFs {
 public:
  explicit SimFs(SimFsConfig cfg);

  /// Simulate the batch; result[i] corresponds to batch[i]. The simulation
  /// is deterministic for a given config (including seed) and request *set*:
  /// submit-time ties are served in (client, path text) order regardless of
  /// the order requests appear in the list or paths in the table.
  std::vector<IoResult> run(const IoBatch& batch);

  /// Instrumented run: identical timeline, plus per-request spans and tier
  /// metrics on `probe`. Spans land on the client's rank track —
  /// "pfs_write"/"pfs_read" (direct, wait = OST queue time vs service),
  /// "bb_absorb" (+ a nested "bb_stall" child while capacity/ingest gated),
  /// "bb_drain" (absorb→drain happens-before edge, wait = stream-slot wait),
  /// "bb_prefetch", and "bb_read" (edge from the latest prefetch of its
  /// (node, file) key when prefetch-gated). Metrics: request/byte counters
  /// per path, queue/service/stall histograms, and the bb.occupancy_bytes /
  /// bb.drain_streams_busy virtual-time series. Emission happens after the
  /// event loop in request-index order, so the spans are as deterministic as
  /// the results.
  std::vector<IoResult> run(const IoBatch& batch, obs::Probe probe);

  /// Staging node of a client ((client / bb.ranks_per_node) % bb.nodes),
  /// exposed for tests.
  int node_of(int client) const;

  const SimFsConfig& config() const { return cfg_; }

 private:
  SimFsConfig cfg_;
};

/// The relief knobs matching one SimFs configuration — the rates the
/// standard what-if scenarios (obs::standard_scenarios) need to compute
/// effective service scales.
obs::ReliefKnobs relief_knobs(const SimFsConfig& cfg);

}  // namespace amrio::pfs
