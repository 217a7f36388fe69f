/// \file event_engine.cpp
/// Discrete-event execution engine: O(active) scheduling for 100k+ ranks.
///
/// The problem with one-fiber-per-rank (SerialEngine) at machine scale is not
/// the scheduling discipline — it is the per-rank footprint: a 128 KiB stack
/// per rank is 66 GB at 516k ranks, and the round-robin scan over all fibers
/// makes every scheduling step O(nranks). This engine removes both:
///
///  * **One shared execution stack.** A rank executes on a single reusable
///    stack. When it blocks (collective arrival, empty mailbox) only its
///    *live* slice — [current stack pointer, stack top), under 1 KiB at
///    the MACSio dump body's one end-of-dump gather — is copied out into a
///    size-classed arena pool. Resuming copies the slice back to the
///    identical addresses, so every pointer into the stack stays valid.
///    Suspended state per rank is one saved stack pointer plus the slice;
///    516k suspended ranks cost well under a gigabyte, not tens.
///
///  * **Event-driven wake-ups.** Blocked ranks are never polled. A collective
///    keeps an arrival counter plus the list of arrivals; the last participant
///    computes the result and moves the waiters to a FIFO ready queue. A
///    tagged send wakes exactly the receiver registered for that (src, dst,
///    tag) key. One scheduling step is: pop the ready queue, or start the
///    next fresh rank if nothing is ready — O(1) either way. Resuming before
///    starting fresh ranks also bounds in-flight aggregation payloads to
///    roughly one group's worth.
///
///  * **No syscalls on the switch path.** The context switch is ~20
///    instructions of assembly (callee-saved registers pushed to the stack
///    slice, stack pointer swapped) instead of ucontext's swapcontext, which
///    performs two sigprocmask system calls per switch.
///
/// The logical clock of the simulated file system needs no integration hook:
/// drivers collect tier-tagged `pfs::IoRequest`s and `pfs::SimFs::run` plays
/// them through its own discrete-event queue after the ranks finish, so no
/// fiber ever waits on (or polls) a simulated I/O completion.
///
/// Determinism: fresh ranks start in ascending order, collective releases
/// wake in arrival order, and sends wake exactly one receiver — the schedule
/// is a pure function of the driver body, so repeated runs are identical and
/// byte-parity with SerialEngine holds wherever output order is fixed by data
/// dependencies (which the MIF baton and aggregation protocols guarantee).
///
/// Error semantics mirror SerialEngine: the first rank exception aborts the
/// communicator, every blocked rank is resumed to throw simmpi::CommAborted,
/// and run() rethrows the original error once all ranks unwound. A deadlock
/// (ready queue empty, every rank started, none done) is detected in O(1)
/// and reported the same way.
///
/// Portability: the shared-stack fast path requires x86-64. Elsewhere — and
/// under AddressSanitizer, whose shadow-memory bookkeeping cannot follow a
/// multiplexed stack — the engine falls back to pooled per-rank ucontext
/// fibers with identical scheduling and semantics (just more memory per
/// suspended rank). The fallback is the same code modulo the four
/// start/resume/yield/finish primitives.

#include "exec/engine.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/selfprof.hpp"
#include "util/assert.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AMRIO_EVENT_COMPAT_STACKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AMRIO_EVENT_COMPAT_STACKS 1
#endif
#endif
#if !defined(AMRIO_EVENT_COMPAT_STACKS) && !defined(__x86_64__)
#define AMRIO_EVENT_COMPAT_STACKS 1
#endif

#ifdef AMRIO_EVENT_COMPAT_STACKS
#include <ucontext.h>

// Under AddressSanitizer the fiber switches must be announced, or ASan keeps
// using the OS thread's stack bounds while code runs (and throws — see
// __asan_handle_no_return) on a heap fiber stack.
#if defined(__SANITIZE_ADDRESS__)
#define AMRIO_EVENT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AMRIO_EVENT_ASAN_FIBERS 1
#endif
#endif
#ifdef AMRIO_EVENT_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#define AMRIO_FIBER_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber(save, bottom, size)
#define AMRIO_FIBER_FINISH_SWITCH(save, bottom, size) \
  __sanitizer_finish_switch_fiber(save, bottom, size)
#else
#define AMRIO_FIBER_START_SWITCH(save, bottom, size) (void)0
#define AMRIO_FIBER_FINISH_SWITCH(save, bottom, size) (void)0
#endif

#else

/// amrio_event_fctx_switch(save_sp, next_sp): park the current execution
/// context and continue at `next_sp`. The callee-saved registers and the FPU
/// control words live on the stack being parked — the entire saved context is
/// the one stack-pointer word written through `save_sp`. Returns (with
/// callee-saved state restored) when something later switches back to the
/// saved pointer. System V x86-64; ~20 instructions, no syscalls.
extern "C" void amrio_event_fctx_switch(void** save_sp, void* next_sp);

asm(R"(
.text
.align 16
.globl amrio_event_fctx_switch
.type amrio_event_fctx_switch, @function
amrio_event_fctx_switch:
	.cfi_startproc
	endbr64
	pushq %rbp
	pushq %rbx
	pushq %r12
	pushq %r13
	pushq %r14
	pushq %r15
	subq $8, %rsp
	stmxcsr (%rsp)
	fnstcw 4(%rsp)
	movq %rsp, (%rdi)
	movq %rsi, %rsp
	ldmxcsr (%rsp)
	fldcw 4(%rsp)
	addq $8, %rsp
	popq %r15
	popq %r14
	popq %r13
	popq %r12
	popq %rbx
	popq %rbp
	ret
	.cfi_endproc
.size amrio_event_fctx_switch, .-amrio_event_fctx_switch
)");

#endif  // AMRIO_EVENT_COMPAT_STACKS

namespace amrio::exec {

namespace {

/// Pooled storage for suspended stack slices (and nothing else): bump
/// allocation from megabyte chunks, freed slices recycled through per-size-
/// class freelists. All O(1); nothing is returned to the OS until the run
/// ends, which is exactly the lifetime of the suspensions it backs.
class SliceArena {
 public:
  std::byte* alloc(std::size_t len, std::uint32_t* cls_out) {
    const auto cls = static_cast<std::uint32_t>((len + kGrain - 1) / kGrain);
    *cls_out = cls;
    if (cls < free_.size() && !free_[cls].empty()) {
      std::byte* p = free_[cls].back();
      free_[cls].pop_back();
      return p;
    }
    const std::size_t bytes = static_cast<std::size_t>(cls) * kGrain;
    if (bump_left_ < bytes) {
      const std::size_t chunk = bytes > kChunk ? bytes : kChunk;
      chunks_.push_back(std::make_unique<std::byte[]>(chunk));
      bump_ = chunks_.back().get();
      bump_left_ = chunk;
      allocated_ += chunk;
    }
    std::byte* p = bump_;
    bump_ += bytes;
    bump_left_ -= bytes;
    return p;
  }

  void release(std::byte* p, std::uint32_t cls) {
    if (cls >= free_.size()) free_.resize(cls + 1);
    free_[cls].push_back(p);
  }

  /// Bytes reserved from the OS across all chunks (never shrinks until the
  /// run ends) — the arena-pressure number engine self-profiling reports.
  std::size_t allocated_bytes() const { return allocated_; }

 private:
  static constexpr std::size_t kGrain = 512;
  static constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::byte* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::size_t allocated_ = 0;
  std::vector<std::vector<std::byte*>> free_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

struct EventState;

/// Engine state of the innermost EventEngine::run on this thread (the fresh-
/// start entry point has no argument channel). Saved/restored around nested
/// runs; a nested run is legal because its scheduler executes synchronously
/// within the outer rank's time slice.
thread_local EventState* g_current = nullptr;

struct EventState {
  enum class St : std::uint8_t {
    kUnstarted,       ///< body not entered yet (no stack slice exists)
    kRunning,         ///< on the execution stack right now
    kReady,           ///< woken, queued in `ready`
    kWaitCollective,  ///< suspended in arrive()
    kWaitToken,       ///< suspended in recv_token() on `wait_key`
    kWaitBytes,       ///< suspended in recv_bytes() on `wait_key`
    kDone,            ///< body returned or threw
  };

  struct VRank {
    St state = St::kUnstarted;
    std::uint32_t slice_class = 0;
    std::uint32_t slice_len = 0;
    void* sp = nullptr;        ///< saved stack pointer while suspended
    std::byte* slice = nullptr;  ///< saved stack bytes [sp, stack_top)
    std::uint64_t wait_key = 0;
#ifdef AMRIO_EVENT_COMPAT_STACKS
    ucontext_t ctx{};
    std::unique_ptr<char[]> stack;
    void* asan_fake = nullptr;  ///< ASan fake-stack handle across suspensions
#endif
  };

  EventState(int n, std::size_t stack_bytes)
      : n(n), stack_bytes(stack_bytes), vr(static_cast<std::size_t>(n)),
        ready(static_cast<std::size_t>(n) + 1),
        u64_slots(static_cast<std::size_t>(n)),
        u64_result(static_cast<std::size_t>(n)),
        bytev_slots(static_cast<std::size_t>(n)) {
    coll_waiters.reserve(static_cast<std::size_t>(n));
#ifndef AMRIO_EVENT_COMPAT_STACKS
    stack_mem = std::make_unique<std::byte[]>(stack_bytes + 64);
    std::byte* raw = stack_mem.get();
    auto top = reinterpret_cast<std::uintptr_t>(raw + stack_bytes + 64);
    stack_top = reinterpret_cast<std::byte*>(top & ~std::uintptr_t{63});
    std::memcpy(raw, &kCanary, sizeof kCanary);
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
    fpu_word = mxcsr | (static_cast<std::uint64_t>(fcw) << 32);
#endif
  }

  const int n;
  const std::size_t stack_bytes;
  const RankFn* fn = nullptr;
  int cur = -1;
  int ndone = 0;
  int next_start = 0;  ///< fresh-start cursor: ranks [next_start, n) unstarted
  std::vector<VRank> vr;
  // Ready queue: a fixed ring of capacity n+1. Each rank appears at most once
  // (wake() only enqueues suspended ranks, and enqueueing leaves the
  // suspended states), so the ring can never overflow — FIFO order with no
  // allocation on the scheduling hot path.
  std::vector<int> ready;
  std::size_t ready_head = 0;
  std::size_t ready_tail = 0;
  SliceArena arena;

  // Collective machinery: staging slots (written at arrival) and results
  // (snapshotted by the releasing rank). A released rank's result cannot be
  // clobbered early: the next release needs all n arrivals, which a rank that
  // has not yet consumed this result cannot contribute to.
  int arrived = 0;
  std::vector<int> coll_waiters;  ///< suspended arrivals, in arrival order
  std::vector<std::uint64_t> u64_slots;
  std::vector<std::uint64_t> u64_result;
  std::vector<std::vector<std::byte>> bytev_slots;
  std::vector<std::byte> bytes_result;

  // Mailboxes keyed by packed (src, dst, tag); at most one rank (dst) can
  // block per key, so a send wakes its receiver by direct lookup. A receive
  // that drains a mailbox erases it, so only undelivered messages hold
  // entries.
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> mail;
  std::unordered_map<std::uint64_t, std::deque<std::vector<std::byte>>>
      byte_mail;
  std::unordered_map<std::uint64_t, int> recv_waiters;

  std::exception_ptr first_error;
  bool aborted = false;
  bool abort_broadcast = false;  ///< blocked ranks woken to observe the abort

  // Self-profiling counters: plain locals on the scheduling path (no
  // synchronization), published once per run when a profiler is attached.
  std::uint64_t prof_resumes = 0;     ///< context switches into ranks
  std::size_t prof_ready_peak = 0;    ///< ready-queue depth high-water

#ifndef AMRIO_EVENT_COMPAT_STACKS
  static constexpr std::uint64_t kCanary = 0x5afe57ac4ca11edull;
  std::unique_ptr<std::byte[]> stack_mem;
  std::byte* stack_top = nullptr;
  std::uint64_t fpu_word = 0;
  void* sched_sp = nullptr;  ///< scheduler context, parked while a rank runs
#else
  ucontext_t main_ctx{};
  std::vector<std::unique_ptr<char[]>> stack_pool;
  /// Scheduler stack bounds, recorded on first fiber entry so yields and
  /// fiber exits can announce the switch back (ASan annotation only).
  const void* sched_stack_bottom = nullptr;
  std::size_t sched_stack_size = 0;
#endif

  static std::uint64_t mail_key(int src, int dst, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  }

  bool token_available(std::uint64_t key) const {
    const auto it = mail.find(key);
    return it != mail.end() && !it->second.empty();
  }

  bool bytes_available(std::uint64_t key) const {
    const auto it = byte_mail.find(key);
    return it != byte_mail.end() && !it->second.empty();
  }

  /// Move a suspended rank to the ready queue; no-op for any other state, so
  /// a stale waiter registration can never double-enqueue.
  void wake(int r) {
    VRank& v = vr[static_cast<std::size_t>(r)];
    if (v.state == St::kWaitCollective || v.state == St::kWaitToken ||
        v.state == St::kWaitBytes) {
      v.state = St::kReady;
      ready[ready_tail] = r;
      ready_tail = (ready_tail + 1) % ready.size();
      const std::size_t depth =
          (ready_tail + ready.size() - ready_head) % ready.size();
      if (depth > prof_ready_peak) prof_ready_peak = depth;
    }
  }

  /// Wake the receiver registered for `key`, if any (sends are buffered, so
  /// this is the only wake a p2p message triggers).
  void wake_receiver(std::uint64_t key) {
    const auto it = recv_waiters.find(key);
    if (it == recv_waiters.end()) return;
    const int r = it->second;
    recv_waiters.erase(it);
    wake(r);
  }

  // --- stackful primitives -------------------------------------------------

#ifndef AMRIO_EVENT_COMPAT_STACKS
  /// Lay out a fresh activation frame at the top of the shared stack: the
  /// restore sequence of amrio_event_fctx_switch pops the FPU word and six
  /// zeroed callee-saved registers, then `ret`s into the entry thunk. The
  /// slot above the return address is zero — a null return address, so any
  /// unwinder walking past the entry frame terminates there.
  void* seed_fresh_sp();

  void check_canary() const {
    std::uint64_t c = 0;
    std::memcpy(&c, stack_mem.get(), sizeof c);
    AMRIO_ENSURES_MSG(c == kCanary,
                      "EventEngine: shared execution stack overflow — raise "
                      "exec_stack_bytes");
  }
#endif

  [[gnu::noinline]] void resume(int r);
  void yield_current();

  void run_loop() {
    while (ndone < n) {
      int r;
      if (ready_head != ready_tail) {
        r = ready[ready_head];
        ready_head = (ready_head + 1) % ready.size();
      } else if (next_start < n) {
        r = next_start++;
      } else {
        // Every rank has started, none is ready, not all are done: the live
        // ranks are all blocked with no wake in flight. Two ways here: a
        // rank error set `aborted` and the blocked peers still need waking,
        // or this is a genuine deadlock. Either way, don't throw over the
        // suspended ranks (their locals would never be destructed) — resume
        // each one to throw CommAborted internally. One broadcast suffices:
        // every suspension point re-checks the abort flag before blocking
        // again, so a second pass through this branch is an engine bug.
        if (abort_broadcast)
          throw std::runtime_error(
              "EventEngine: internal error — aborted ranks did not unwind");
        if (!aborted) {
          if (!first_error)
            first_error = std::make_exception_ptr(std::runtime_error(
                "EventEngine: deadlock — all live ranks are blocked "
                "(mismatched collectives or a recv with no matching send)"));
          aborted = true;
        }
        abort_broadcast = true;
        for (int i = 0; i < n; ++i) wake(i);
        continue;
      }
      ++prof_resumes;
      resume(r);
    }
  }
};

/// Per-rank context bound to one virtual rank of an EventState. Identical
/// semantics to SerialEngine's FiberCtx; only the suspension mechanics and
/// the wake bookkeeping differ.
class EventCtx final : public RankCtx {
 public:
  EventCtx(EventState* st, int rank) : st_(st), rank_(rank) {}

  int rank() const override { return rank_; }
  int nranks() const override { return st_->n; }

  void barrier() override { arrive([](EventState&) {}); }

  std::uint64_t exscan_sum(std::uint64_t v) override {
    st_->u64_slots[static_cast<std::size_t>(rank_)] = v;
    arrive([](EventState& st) {
      std::uint64_t acc = 0;
      for (int r = 0; r < st.n; ++r) {
        const std::uint64_t x = st.u64_slots[static_cast<std::size_t>(r)];
        st.u64_result[static_cast<std::size_t>(r)] = acc;
        acc += x;
      }
    });
    return st_->u64_result[static_cast<std::size_t>(rank_)];
  }

  std::vector<std::uint64_t> gather(std::uint64_t v, int root) override {
    AMRIO_EXPECTS(root >= 0 && root < st_->n);
    st_->u64_slots[static_cast<std::size_t>(rank_)] = v;
    arrive([](EventState& st) { st.u64_result = st.u64_slots; });
    if (rank_ != root) return {};
    return st_->u64_result;
  }

  std::vector<std::byte> gatherv(std::span<const std::byte> bytes,
                                 int root) override {
    AMRIO_EXPECTS(root >= 0 && root < st_->n);
    // The contribution must be copied at arrival: `bytes` may point into this
    // rank's stack, which is swapped out while it waits for the release.
    st_->bytev_slots[static_cast<std::size_t>(rank_)].assign(bytes.begin(),
                                                             bytes.end());
    arrive([](EventState& st) {
      std::size_t total = 0;
      for (const auto& s : st.bytev_slots) total += s.size();
      st.bytes_result.clear();
      st.bytes_result.reserve(total);
      for (auto& s : st.bytev_slots) {
        st.bytes_result.insert(st.bytes_result.end(), s.begin(), s.end());
        std::vector<std::byte>().swap(s);  // drop capacity, not just size
      }
    });
    if (rank_ != root) return {};
    return st_->bytes_result;
  }

  void send_token(std::uint64_t value, int dest, int tag) override {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    check_tag(tag);
    const std::uint64_t key = EventState::mail_key(rank_, dest, tag);
    st_->mail[key].push_back(value);
    st_->wake_receiver(key);
  }

  std::uint64_t recv_token(int src, int tag) override {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    check_tag(tag);
    const std::uint64_t key = EventState::mail_key(src, rank_, tag);
    while (!st_->token_available(key)) {
      check_abort();
      block_on(key, EventState::St::kWaitToken);
    }
    return take(st_->mail, key);
  }

  void send_bytes(std::vector<std::byte> data, int dest, int tag) override {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    check_tag(tag);
    const std::uint64_t key = EventState::mail_key(rank_, dest, tag);
    st_->byte_mail[key].push_back(std::move(data));  // the buffer itself
    st_->wake_receiver(key);
  }

  std::vector<std::byte> recv_bytes(int src, int tag) override {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    check_tag(tag);
    const std::uint64_t key = EventState::mail_key(src, rank_, tag);
    while (!st_->bytes_available(key)) {
      check_abort();
      block_on(key, EventState::St::kWaitBytes);
    }
    return take(st_->byte_mail, key);
  }

 private:
  /// Pop the oldest message of a non-empty mailbox, and drop the mailbox once
  /// it is drained: a baton pair leaves nothing behind, so a 131k-rank dump
  /// does not keep one empty deque per (src, dst, tag) alive for the run.
  template <typename Map>
  static typename Map::mapped_type::value_type take(Map& boxes,
                                                    std::uint64_t key) {
    const auto it = boxes.find(key);
    auto v = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) boxes.erase(it);
    return v;
  }

  /// Arrive at a collective; the last rank computes the result and moves the
  /// waiters to the ready queue (in arrival order), then proceeds without
  /// yielding. Earlier ranks suspend until released.
  template <typename ReleaseFn>
  void arrive(ReleaseFn&& release) {
    check_abort();
    EventState& st = *st_;
    if (st.n == 1) {
      release(st);
      return;
    }
    if (++st.arrived == st.n) {
      st.arrived = 0;
      release(st);
      for (const int r : st.coll_waiters) st.wake(r);
      st.coll_waiters.clear();
      return;
    }
    st.coll_waiters.push_back(rank_);
    st.vr[static_cast<std::size_t>(rank_)].state =
        EventState::St::kWaitCollective;
    st.yield_current();
    check_abort();
  }

  void block_on(std::uint64_t key, EventState::St wait_state) {
    st_->recv_waiters[key] = rank_;
    auto& v = st_->vr[static_cast<std::size_t>(rank_)];
    v.state = wait_state;
    v.wait_key = key;
    st_->yield_current();
  }

  void check_abort() const {
    if (st_->aborted) throw simmpi::CommAborted();
  }

  static void check_tag(int tag) {
    AMRIO_EXPECTS_MSG(tag >= 0 && tag <= 0xffff,
                      "EventEngine: p2p tags must be in [0, 65535]");
  }

  EventState* st_;
  int rank_;
};

/// The rank body shared by both stack modes: run the driver, convert an
/// escape into the communicator abort, mark the rank done.
void run_rank_body(EventState* st) {
  const int r = st->cur;
  {
    EventCtx ctx(st, r);
    try {
      (*st->fn)(ctx);
    } catch (...) {
      if (!st->first_error) st->first_error = std::current_exception();
      st->aborted = true;
    }
  }
  st->vr[static_cast<std::size_t>(r)].state = EventState::St::kDone;
}

#ifndef AMRIO_EVENT_COMPAT_STACKS

/// Entered by `ret` from a seeded frame (see seed_fresh_sp); the ABI state at
/// this point is exactly a normal function entry. Runs the rank body, then
/// switches out for good — this frame is never resumed.
void fresh_rank_entry() {
  EventState* st = g_current;
  run_rank_body(st);
  void* scratch = nullptr;
  amrio_event_fctx_switch(&scratch, st->sched_sp);
  __builtin_unreachable();
}

void* EventState::seed_fresh_sp() {
  // Frame layout consumed by the switch's restore path, low to high:
  //   [0, 8)    mxcsr (4) + x87 control word (2) + pad
  //   [8, 56)   r15 r14 r13 r12 rbx rbp — zeroed
  //   [56, 64)  return address -> fresh_rank_entry
  //   [64, 72)  null "caller" return address (unwinder terminator)
  // stack_top is 64-aligned, so sp = top - 72 ≡ 8 (mod 16) — the alignment a
  // function entered by `call`/`ret` expects.
  std::byte* sp = stack_top - 72;
  std::memset(sp, 0, 72);
  std::memcpy(sp, &fpu_word, sizeof fpu_word);
  void (*entry)() = &fresh_rank_entry;
  std::memcpy(sp + 56, &entry, sizeof entry);
  return sp;
}

void EventState::yield_current() {
  amrio_event_fctx_switch(&vr[static_cast<std::size_t>(cur)].sp, sched_sp);
}

void EventState::resume(int r) {
  cur = r;
  VRank& v = vr[static_cast<std::size_t>(r)];
  if (v.state == St::kUnstarted) {
    v.state = St::kRunning;
    amrio_event_fctx_switch(&sched_sp, seed_fresh_sp());
  } else {
    v.state = St::kRunning;
    // Restore the suspended slice to its original addresses, then jump into
    // it. The slice buffer is recycled immediately — it is read before any
    // other rank can allocate from the arena.
    std::memcpy(v.sp, v.slice, v.slice_len);
    arena.release(v.slice, v.slice_class);
    v.slice = nullptr;
    amrio_event_fctx_switch(&sched_sp, v.sp);
  }
  // Back on the scheduler stack: the rank either finished or suspended.
  if (v.state == St::kDone) {
    ++ndone;
    return;
  }
  check_canary();
  const auto len =
      static_cast<std::size_t>(stack_top - static_cast<std::byte*>(v.sp));
  v.slice = arena.alloc(len, &v.slice_class);
  v.slice_len = static_cast<std::uint32_t>(len);
  std::memcpy(v.slice, v.sp, len);
}

#else  // AMRIO_EVENT_COMPAT_STACKS

/// makecontext only passes ints — smuggle the state pointer in two halves.
void compat_trampoline(unsigned int hi, unsigned int lo) {
  auto* st = reinterpret_cast<EventState*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  // Complete the switch onto this fiber and learn the scheduler's stack
  // bounds so yields and the final exit can announce the switch back.
  AMRIO_FIBER_FINISH_SWITCH(nullptr, &st->sched_stack_bottom,
                            &st->sched_stack_size);
  run_rank_body(st);
  // nullptr save: this fiber is done — release its ASan fake stack.
  AMRIO_FIBER_START_SWITCH(nullptr, st->sched_stack_bottom,
                           st->sched_stack_size);
  // returning resumes main_ctx via uc_link
}

void EventState::yield_current() {
  VRank& v = vr[static_cast<std::size_t>(cur)];
  AMRIO_FIBER_START_SWITCH(&v.asan_fake, sched_stack_bottom, sched_stack_size);
  swapcontext(&v.ctx, &main_ctx);
  AMRIO_FIBER_FINISH_SWITCH(v.asan_fake, nullptr, nullptr);
}

void EventState::resume(int r) {
  cur = r;
  VRank& v = vr[static_cast<std::size_t>(r)];
  if (v.state == St::kUnstarted) {
    v.state = St::kRunning;
    if (!stack_pool.empty()) {
      v.stack = std::move(stack_pool.back());
      stack_pool.pop_back();
    } else {
      v.stack.reset(new char[stack_bytes]);  // uninitialized by design
    }
    if (getcontext(&v.ctx) != 0)
      throw std::runtime_error("EventEngine: getcontext failed");
    v.ctx.uc_stack.ss_sp = v.stack.get();
    v.ctx.uc_stack.ss_size = stack_bytes;
    v.ctx.uc_link = &main_ctx;
    const auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&v.ctx, reinterpret_cast<void (*)()>(compat_trampoline), 2,
                static_cast<unsigned int>(ptr >> 32),
                static_cast<unsigned int>(ptr & 0xffffffffu));
  } else {
    v.state = St::kRunning;
  }
  void* sched_fake = nullptr;
  AMRIO_FIBER_START_SWITCH(&sched_fake, v.stack.get(), stack_bytes);
  if (swapcontext(&main_ctx, &v.ctx) != 0)
    throw std::runtime_error("EventEngine: swapcontext failed");
  AMRIO_FIBER_FINISH_SWITCH(sched_fake, nullptr, nullptr);
  if (v.state == St::kDone) {
    ++ndone;
    stack_pool.push_back(std::move(v.stack));
  }
}

#endif  // AMRIO_EVENT_COMPAT_STACKS

}  // namespace

EventEngine::EventEngine(int nranks, std::size_t exec_stack_bytes)
    : nranks_(nranks), stack_bytes_(exec_stack_bytes) {
  AMRIO_EXPECTS_MSG(nranks >= 1, "EventEngine needs at least one rank");
  AMRIO_EXPECTS_MSG(nranks < (1 << 24),
                    "EventEngine supports up to 2^24 - 1 ranks (mailbox keys "
                    "pack src/dst into 24 bits each)");
  AMRIO_EXPECTS_MSG(exec_stack_bytes >= 64 * 1024,
                    "EventEngine execution stack must be at least 64 KiB");
}

void EventEngine::run(const RankFn& fn) {
  auto st = std::make_unique<EventState>(nranks_, stack_bytes_);
  st->fn = &fn;
  EventState* const prev = g_current;
  g_current = st.get();
  const auto t0 = std::chrono::steady_clock::now();
  auto publish = [&] {
    if (profiler_ == nullptr) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    profiler_->count("engine.event.runs", 1);
    profiler_->count("engine.event.context_switches", st->prof_resumes);
    profiler_->gauge_max("engine.event.ready_queue_peak",
                         static_cast<double>(st->prof_ready_peak));
    profiler_->gauge_max("engine.event.slice_arena_bytes",
                         static_cast<double>(st->arena.allocated_bytes()));
    if (wall > 0)
      profiler_->gauge_max("engine.event.events_per_sec",
                           static_cast<double>(st->prof_resumes) / wall);
    profiler_->phase_add("engine.event.run", wall);
  };
  try {
    st->run_loop();
  } catch (...) {
    publish();
    g_current = prev;
    throw;
  }
  publish();
  g_current = prev;
  if (st->first_error) std::rethrow_exception(st->first_error);
}

}  // namespace amrio::exec
