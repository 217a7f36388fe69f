#pragma once
/// \file engine.hpp
/// Unified execution engine: one abstraction over "how do N ranks run".
///
/// The drivers in this repository (the MACSio dump loop, the AMReX plotfile
/// writer) are SPMD programs: every rank executes the same body, synchronizing
/// through a small set of collectives and MIF baton messages. Historically the
/// repo carried two divergent implementations of each driver — a serial loop
/// over virtual ranks and a threaded path over simmpi — which had to be kept
/// byte-identical by hand. This layer collapses them: drivers are written once
/// against `RankCtx` (rank id, barrier, exscan_sum, gather/gatherv, tagged
/// token and byte-payload send/recv) and an `Engine` decides how the ranks
/// execute:
///
///  * `SpmdEngine`  — real concurrency: one OS thread per rank via
///    `simmpi::run_spmd`, collectives through the shared-memory communicator.
///    Fails fast above a configurable thread cap (see `SpmdEngine::thread_cap`)
///    instead of exhausting the machine mid-run.
///  * `SerialEngine` — zero threads: each rank is a cooperatively scheduled
///    fiber (ucontext). Collectives suspend a fiber until every rank arrives,
///    so MPI lockstep semantics hold exactly, deterministically, and cheaply —
///    this is what the calibrator uses when it replays MACSio many times.
///  * `EventEngine` — discrete-event scheduling for machine-scale rank counts:
///    ranks are virtual (no per-rank stack or thread — suspended ranks are
///    compact stack slices in arena pools), collectives are batched events
///    resolved when the last participant arrives, and the scheduler's ready
///    queue makes each step O(active events) rather than O(nranks). This is
///    the engine for 100k+ simulated ranks (`--engine=event`).
///
/// Because both engines run the *same* driver body, serial and threaded runs
/// are byte-identical by construction (asserted by tests/test_exec.cpp).
///
/// Error semantics mirror `simmpi::run_spmd`: if any rank throws, peers
/// blocked on a collective or recv observe `simmpi::CommAborted` and
/// `Engine::run` rethrows the first rank's exception.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/probe.hpp"
#include "simmpi/comm.hpp"

namespace amrio::obs {
class SelfProfiler;
}

namespace amrio::exec {

/// Per-rank execution context handed to the driver body. Provides the
/// collective operations the I/O drivers need; every rank must call the same
/// collectives in the same order (MPI SPMD discipline).
class RankCtx {
 public:
  virtual ~RankCtx() = default;

  virtual int rank() const = 0;
  virtual int nranks() const = 0;

  /// Synchronize all ranks.
  virtual void barrier() = 0;
  /// Exclusive prefix sum; rank 0 receives 0 (MPI_Exscan with MPI_SUM).
  virtual std::uint64_t exscan_sum(std::uint64_t v) = 0;
  /// Gather one value per rank to `root` (root receives nranks() values in
  /// rank order; other ranks receive an empty vector).
  virtual std::vector<std::uint64_t> gather(std::uint64_t v, int root) = 0;
  /// Variable-length byte gather, concatenated in rank order at `root`.
  virtual std::vector<std::byte> gatherv(std::span<const std::byte> bytes,
                                         int root) = 0;
  /// Tagged point-to-point token (the MIF baton): buffered send.
  virtual void send_token(std::uint64_t value, int dest, int tag) = 0;
  /// Blocking tagged token receive.
  virtual std::uint64_t recv_token(int src, int tag) = 0;
  /// Tagged point-to-point byte payload (staging shipments to aggregators):
  /// buffered send, message boundaries preserved. The message owns `data`:
  /// the serial and event engines move the buffer itself into the mailbox,
  /// so the receiver gets the sender's allocation back from recv_bytes; the
  /// spmd engine copies it into the simmpi communicator. SerialEngine also
  /// hands the message to a receiver already blocked on it (see there).
  virtual void send_bytes(std::vector<std::byte> data, int dest, int tag) = 0;
  /// Blocking tagged byte-payload receive (one message).
  virtual std::vector<std::byte> recv_bytes(int src, int tag) = 0;
};

/// Root-side visitor of gatherv_group: called once per member, in member
/// order, with that member's payload.
using LandFn = std::function<void(int member, std::span<const std::byte>)>;

/// Streaming group gatherv over point-to-point messages: every rank in
/// `members` (strictly ascending rank ids) contributes the buffer `mine`,
/// and `root` (which must be a member) lands each member's payload as it
/// arrives by calling `land(member, payload)` in member order. The root's
/// own buffer is visited in place, never copied; a received buffer is freed
/// as soon as its visit returns, so the root holds one shipped payload at a
/// time. Other members only send; `land` is called on the root alone (and
/// may be empty elsewhere). Unlike RankCtx::gatherv this is *not* a global
/// collective — only the listed members participate, so several
/// aggregation groups can gather concurrently. This is the two-phase
/// collective the staging layer uses to ship task documents to aggregators.
/// A non-empty `probe` counts the ship on the metrics registry
/// (exec.gatherv.{calls,messages,bytes}, root side) — pure commutative
/// counter adds, so the snapshot stays engine-invariant.
void gatherv_group(RankCtx& ctx, std::vector<std::byte> mine,
                   std::span<const int> members, int root, int tag,
                   const LandFn& land, obs::Probe probe = {});

/// Group scatterv — `gatherv_group` in reverse, the read-side ship: `root`
/// holds one payload per member (member order, so payloads.size() ==
/// members.size() at the root and is ignored elsewhere) and fans them back
/// out over point-to-point messages, each buffer moved into its send;
/// every member returns its own payload. Like gatherv_group this is not a
/// global collective — several restage groups can scatter concurrently.
/// Byte-conserving: the concatenation of what the members receive equals
/// the concatenation of what the root held. `probe` counts
/// exec.scatterv.{calls,messages,bytes} on the root side.
std::vector<std::byte> scatterv_group(
    RankCtx& ctx, std::vector<std::vector<std::byte>> payloads,
    std::span<const int> members, int root, int tag, obs::Probe probe = {});

using RankFn = std::function<void(RankCtx&)>;

/// An execution substrate for SPMD driver bodies.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual int nranks() const = 0;
  /// Human-readable engine name ("serial", "spmd") for reports.
  virtual const char* name() const = 0;
  /// Execute `fn` once per rank. Blocks until every rank finishes; rethrows
  /// the first rank exception, if any.
  virtual void run(const RankFn& fn) = 0;

  /// Attach a host-side self-profiler (see obs/selfprof.hpp). Each run()
  /// publishes wall seconds plus engine-specific counters (the event
  /// engine: events processed, context switches, ready-queue high-water,
  /// SliceArena bytes). Null (the default) disables publication; engines
  /// buffer hot-loop counts locally either way, so there is no per-event
  /// synchronization cost.
  void set_profiler(obs::SelfProfiler* prof) { profiler_ = prof; }
  obs::SelfProfiler* profiler() const { return profiler_; }

 protected:
  obs::SelfProfiler* profiler_ = nullptr;
};

/// Fiber-scheduled engine: ranks run as cooperatively scheduled ucontext
/// fibers on the calling thread. Deterministic, no thread overhead.
///
/// The scheduler round-robins over runnable fibers, with one exception: a
/// byte send that lands in the mailbox a fiber is blocked on in recv_bytes
/// queues a hand-off, and when the sender next yields (or finishes) the
/// scheduler resumes the receivers it fed, in send order, before it moves
/// on. A gatherv_group root therefore lands each member's payload before the
/// next member runs, and an aggregation group holds one payload in flight
/// instead of the whole dump's. Collective semantics, deadlock detection
/// and abort unwinding are unchanged.
class SerialEngine final : public Engine {
 public:
  /// `stack_bytes` is the per-fiber stack size; the default comfortably fits
  /// the plotfile/MACSio writer bodies. Fiber stacks are plain heap blocks
  /// with no guard page (unlike SpmdEngine's OS thread stacks), so bodies
  /// with very deep frames should raise `stack_bytes` rather than rely on a
  /// fault to catch overflow.
  explicit SerialEngine(int nranks, std::size_t stack_bytes = 128 * 1024);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "serial"; }
  void run(const RankFn& fn) override;

 private:
  int nranks_;
  std::size_t stack_bytes_;
};

/// Thread-per-rank engine over simmpi::run_spmd.
class SpmdEngine final : public Engine {
 public:
  /// Throws (ContractViolation) when `nranks` exceeds `thread_cap()` — one OS
  /// thread per rank does not survive machine-scale rank counts, and dying on
  /// pthread_create mid-run loses the error; the message points at
  /// `--engine=event` instead.
  explicit SpmdEngine(int nranks);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "spmd"; }
  void run(const RankFn& fn) override;

  /// Most ranks this engine will agree to run as real threads. Defaults to
  /// 1024; override with the AMRIO_SPMD_THREAD_CAP environment variable
  /// (read per construction, so tests can adjust it).
  static int thread_cap();

 private:
  int nranks_;
};

/// Discrete-event engine: virtual ranks on one shared execution stack.
///
/// A rank runs on the shared stack until it blocks (collective arrival or an
/// empty mailbox); its live stack slice — under 1 KiB for the MACSio dump
/// body, which suspends once per dump — is copied into a size-classed arena
/// pool and the stack is reused, so a 516k-rank dump costs megabytes of
/// engine state plus the suspended slices instead of 516k fiber stacks or OS
/// threads. Mailboxes are drained: a receive that empties its (src, dst,
/// tag) mailbox erases it. Wake-ups go through a FIFO ready queue
/// (collective release wakes arrivals in order, a send wakes exactly the
/// matching receiver), and fresh ranks start only when nothing is ready, so
/// one scheduling step is O(1) and a full run is O(total events), not
/// O(nranks) per step. Deterministic by construction; byte- and stats-parity
/// with SerialEngine is asserted by tests/test_event_engine.cpp.
///
/// Restrictions (checked): nranks < 2^24 and p2p tags in [0, 65535] — the
/// mailbox key packs (src, dst, tag) into 64 bits. Under AddressSanitizer or
/// on non-x86-64 targets the engine transparently falls back to pooled
/// per-rank ucontext fibers (same semantics, more memory per suspended rank).
class EventEngine final : public Engine {
 public:
  /// `exec_stack_bytes` sizes the shared execution stack (the deepest live
  /// rank must fit; the default is double SerialEngine's per-fiber default).
  explicit EventEngine(int nranks, std::size_t exec_stack_bytes = 256 * 1024);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "event"; }
  void run(const RankFn& fn) override;

 private:
  int nranks_;
  std::size_t stack_bytes_;
};

/// RankCtx over an existing simmpi communicator — lets code that is already
/// inside `simmpi::run_spmd` (the legacy `run_*_spmd` entry points) reuse the
/// engine-parameterized driver bodies.
class CommCtx final : public RankCtx {
 public:
  explicit CommCtx(simmpi::Comm& comm) : comm_(&comm) {}
  int rank() const override { return comm_->rank(); }
  int nranks() const override { return comm_->size(); }
  void barrier() override { comm_->barrier(); }
  std::uint64_t exscan_sum(std::uint64_t v) override {
    return comm_->exscan_sum(v);
  }
  std::vector<std::uint64_t> gather(std::uint64_t v, int root) override {
    return comm_->gather(v, root);
  }
  std::vector<std::byte> gatherv(std::span<const std::byte> bytes,
                                 int root) override {
    return comm_->gatherv(bytes, root);
  }
  void send_token(std::uint64_t value, int dest, int tag) override {
    comm_->send(std::span<const std::uint64_t>(&value, 1), dest, tag);
  }
  std::uint64_t recv_token(int src, int tag) override {
    return comm_->recv<std::uint64_t>(src, tag).at(0);
  }
  void send_bytes(std::vector<std::byte> data, int dest, int tag) override {
    comm_->send(std::span<const std::byte>(data), dest, tag);
  }
  std::vector<std::byte> recv_bytes(int src, int tag) override {
    return comm_->recv<std::byte>(src, tag);
  }

 private:
  simmpi::Comm* comm_;
};

enum class EngineKind { kSerial, kSpmd, kEvent };

std::unique_ptr<Engine> make_engine(EngineKind kind, int nranks);

/// CLI surface for the `--engine` knob: "serial" | "spmd" | "event".
/// Throws std::invalid_argument on anything else, naming the valid values.
EngineKind engine_kind_from_name(const std::string& name);
const char* engine_kind_name(EngineKind kind);

}  // namespace amrio::exec
