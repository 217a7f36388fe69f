#pragma once
/// \file engine.hpp
/// Unified execution engine: one abstraction over "how do N ranks run".
///
/// The drivers in this repository (the MACSio dump loop, the AMReX plotfile
/// writer) are SPMD programs: every rank executes the same body, synchronizing
/// through a small set of collectives and MIF baton messages. The drivers are
/// written once against `RankCtx` (rank id, barrier, gather, tagged token and
/// byte-payload send/recv) and an `Engine` decides how the ranks execute:
///
///  * `SpmdEngine`  — real concurrency: one OS thread per rank over one
///    mutex-guarded shared state (gather slots and mailboxes). Fails fast
///    above a thread cap (see `SpmdEngine::thread_cap`) instead of
///    exhausting the machine mid-run.
///  * `EventEngine` — discrete-event scheduling for machine-scale rank counts:
///    ranks are virtual (no per-rank stack or thread — suspended ranks are
///    compact stack slices in arena pools), collectives are batched events
///    resolved when the last participant arrives, and the scheduler's ready
///    queue makes each step O(active events) rather than O(nranks). This is
///    the engine for 100k+ simulated ranks (`--engine=event`).
///  * `SerialEngine` — the same scheduler with one ucontext stack per rank
///    instead of the shared stack: zero threads, MPI lockstep semantics,
///    deterministic. Kept for the campaign grid's serial axis.
///
/// Because all three engines run the *same* driver body, their outputs are
/// byte-identical by construction (asserted by tests/test_exec.cpp and
/// tests/test_event_engine.cpp).
///
/// Error semantics are shared: if any rank throws, peers blocked on a
/// collective or recv observe `CommAborted` and `Engine::run` rethrows the
/// first rank's exception. When every unfinished rank is blocked
/// (mismatched collectives, or a recv with no matching send) the run fails
/// with a "deadlock" error the same way.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/probe.hpp"

namespace amrio::obs {
class SelfProfiler;
}

namespace amrio::exec {

/// Thrown on surviving ranks when a peer rank failed or the run deadlocked;
/// `Engine::run` rethrows the original error, never this.
class CommAborted : public std::runtime_error {
 public:
  CommAborted()
      : std::runtime_error("exec: communicator aborted by peer failure") {}
};

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
  /// Gather one value per rank to `root` (root receives nranks() values in
  /// rank order; other ranks receive an empty vector).
  virtual std::vector<std::uint64_t> gather(std::uint64_t v, int root) = 0;
  /// Tagged point-to-point token (the MIF baton): buffered send.
  virtual void send_token(std::uint64_t value, int dest, int tag) = 0;
  /// Blocking tagged token receive.
  virtual std::uint64_t recv_token(int src, int tag) = 0;
  /// Tagged point-to-point byte payload (staging shipments to aggregators):
  /// buffered send, message boundaries preserved. The message owns `data`:
  /// every engine moves the buffer itself into the mailbox, so the receiver
  /// gets the sender's allocation back from recv_bytes. The cooperative
  /// engines run a receiver already blocked on it next (see EventEngine).
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
/// may be empty elsewhere). This is *not* a global collective — only the
/// listed members participate, so several aggregation groups can gather
/// concurrently. This is the two-phase collective the staging layer uses to
/// ship task documents to aggregators.
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

/// EventEngine's scheduler on per-rank stacks: every rank runs on its own
/// ucontext stack on the calling thread, with EventEngine's
/// scheduling order, collectives, mailboxes, deadlock detection and abort
/// unwinding (it has none of its own). Deterministic, no thread overhead.
/// Same restrictions as EventEngine: nranks < 2^24, p2p tags in [0, 65535].
class SerialEngine final : public Engine {
 public:
  /// Per-rank stack size; it comfortably fits the plotfile/MACSio writer
  /// bodies. The stacks are adjacent slices of one anonymous mapping with no
  /// guard pages (unlike SpmdEngine's OS thread stacks).
  static constexpr std::size_t kStackBytes = 128 * 1024;

  explicit SerialEngine(int nranks);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "serial"; }
  void run(const RankFn& fn) override;

 private:
  int nranks_;
};

/// Thread-per-rank engine: rank 0 runs on the calling thread and every other
/// rank on its own OS thread, all synchronizing through one mutex and one
/// condition variable. Collectives follow EventEngine's: the last rank to
/// arrive computes the result and releases the others.
class SpmdEngine final : public Engine {
 public:
  /// Throws (ContractViolation) when `nranks` exceeds `thread_cap()` — one OS
  /// thread per rank does not survive machine-scale rank counts, and dying on
  /// pthread_create mid-run loses the error; the message points at
  /// `--engine=event` instead. Spawns no thread: that is run()'s job.
  explicit SpmdEngine(int nranks);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "spmd"; }
  void run(const RankFn& fn) override;

  /// Most ranks this engine will agree to run as real threads.
  static constexpr int thread_cap() { return 1024; }

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
/// threads. Each rank's undelivered messages wait in one FIFO inbox of
/// pooled nodes; a receive takes the oldest one with its (src, tag) and kind
/// (token or bytes) and recycles the node, so steady-state messaging
/// allocates nothing. Wake-ups go through a ready queue: a collective
/// release wakes the other ranks in rank order, a token send wakes its
/// destination at the back only if it is blocked on exactly that message,
/// and a byte send wakes it likewise at the front, so a gatherv_group root
/// lands each payload before the next member runs and an aggregation group
/// holds one shipped document in flight. Fresh ranks start only when nothing
/// is ready, so one scheduling step is O(1) and a full run is O(total
/// events), not O(nranks) per step. Deterministic by construction; byte- and
/// stats-parity with SpmdEngine is asserted by tests/test_event_engine.cpp.
///
/// Restrictions (checked): nranks < 2^24 and p2p tags in [0, 65535] — a
/// message key packs (src, dst, tag) into 64 bits. Under Address- or
/// ThreadSanitizer and on non-x86-64 targets the engine transparently runs
/// on per-rank ucontext stacks, as SerialEngine always does (same semantics,
/// more memory per suspended rank).
class EventEngine final : public Engine {
 public:
  /// `exec_stack_bytes` sizes the shared execution stack (the deepest live
  /// rank must fit; the default is double SerialEngine's per-rank stack).
  explicit EventEngine(int nranks, std::size_t exec_stack_bytes = 256 * 1024);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "event"; }
  void run(const RankFn& fn) override;

 private:
  int nranks_;
  std::size_t stack_bytes_;
};

enum class EngineKind { kSerial, kSpmd, kEvent };

std::unique_ptr<Engine> make_engine(EngineKind kind, int nranks);

/// CLI surface for the `--engine` knob: "serial" | "spmd" | "event".
/// Throws std::invalid_argument on anything else, naming the valid values.
EngineKind engine_kind_from_name(const std::string& name);
const char* engine_kind_name(EngineKind kind);

}  // namespace amrio::exec
