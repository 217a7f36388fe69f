/// \file event_engine.cpp
/// The cooperative scheduler behind SerialEngine and EventEngine: virtual
/// ranks on one thread, event-driven wake-ups, O(active) scheduling.
///
///  * **Two ways to hold a suspended rank.** EventEngine runs every rank on
///    one shared execution stack. When a rank blocks (collective arrival,
///    empty mailbox) only its *live* slice — [current stack pointer, stack
///    top), under 1 KiB at the MACSio dump body's one end-of-dump gather —
///    is copied out into a size-classed arena pool. Resuming copies the
///    slice back to the identical addresses, so every pointer into the stack
///    stays valid. Suspended state per rank is one saved stack pointer plus
///    the slice; 516k suspended ranks cost well under a gigabyte, not tens.
///    SerialEngine gives every rank its own ucontext stack instead (a
///    `Fiber` record, allocated only in this mode). The event engine uses
///    the same per-rank stacks where the shared stack cannot work: off
///    x86-64, and under Address- or ThreadSanitizer, whose shadow-memory
///    bookkeeping cannot follow a multiplexed stack. The two modes differ
///    only in the resume/yield primitives; scheduling, collectives, mailboxes
///    and error handling are one code path.
///
///  * **Pooled inboxes.** Every rank has one FIFO inbox of undelivered
///    point-to-point messages, a linked list of nodes drawn from one pool
///    with a free list. A receive takes the oldest message with its
///    (src, tag) and kind (token or bytes) and returns the node to the pool,
///    payload already moved out; once the pool covers the most messages ever
///    in flight, messaging allocates nothing.
///
///  * **Event-driven wake-ups.** Blocked ranks are never polled. A collective
///    keeps an arrival counter; the last participant computes the result and
///    moves every waiter to the ready queue in rank order. A tagged send
///    wakes its destination only if that rank is blocked receiving exactly
///    this (src, tag) and kind; a byte send puts it at the *front* of the
///    queue, so a gatherv_group root lands each member's document before the
///    next member runs. One scheduling step is: pop the ready queue, or
///    start the next fresh rank if nothing is ready — O(1) either way. Together the two rules bound an
///    aggregation group to one shipped document in flight, dump after dump:
///    after the end-of-dump gather the aggregator (the group's lowest rank)
///    resumes before its members and is already waiting for the first one.
///
///  * **No syscalls on the shared-stack switch path.** The context switch is
///    ~20 instructions of assembly (callee-saved registers pushed to the
///    stack slice, stack pointer swapped) instead of ucontext's swapcontext,
///    which performs two sigprocmask system calls per switch.
///
/// The logical clock of the simulated file system needs no integration hook:
/// drivers collect tier-tagged `pfs::IoRequest`s and `pfs::SimFs::run` plays
/// them through its own discrete-event queue after the ranks finish, so no
/// rank ever waits on (or polls) a simulated I/O completion.
///
/// Determinism: fresh ranks start in ascending order, collective releases
/// wake in rank order, and sends wake exactly one receiver — the schedule is
/// a pure function of the driver body, so repeated runs are identical and
/// byte-parity with SpmdEngine holds wherever output order is fixed by data
/// dependencies (which the MIF baton and aggregation protocols guarantee).
///
/// Error semantics: the first rank exception aborts the communicator, every
/// blocked rank is resumed to throw exec::CommAborted, and run() rethrows
/// the original error once all ranks unwound. A deadlock (ready queue empty,
/// every rank started, none done) is detected in O(1) and reported the same
/// way.

#include "exec/engine.hpp"

#include <sys/mman.h>
#include <ucontext.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/selfprof.hpp"
#include "util/assert.hpp"

// The shared execution stack needs x86-64 and a build without ASan/TSan;
// everywhere else every engine runs on per-rank stacks.
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define AMRIO_EVENT_SHARED_STACK 1
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef AMRIO_EVENT_SHARED_STACK
#endif
#endif
#endif

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

#ifdef AMRIO_EVENT_SHARED_STACK

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

#endif  // AMRIO_EVENT_SHARED_STACK

namespace amrio::exec {

namespace {

/// Pooled storage for suspended stack slices (and nothing else): bump
/// allocation from megabyte chunks, freed slices recycled through per-size-
/// class freelists. All O(1); nothing is returned to the OS until the run
/// ends, which is exactly the lifetime of the suspensions it backs.
class SliceArena {
 public:
  std::byte* alloc(std::size_t len) {
    const std::size_t cls = size_class(len);
    if (cls < free_.size() && !free_[cls].empty()) {
      std::byte* p = free_[cls].back();
      free_[cls].pop_back();
      return p;
    }
    const std::size_t bytes = cls * kGrain;
    if (bump_left_ < bytes) {
      const std::size_t chunk = bytes > kChunk ? bytes : kChunk;
      // uninitialized by design: every slice is written before it is read
      chunks_.emplace_back(new std::byte[chunk]);
      bump_ = chunks_.back().get();
      bump_left_ = chunk;
      allocated_ += chunk;
    }
    std::byte* p = bump_;
    bump_ += bytes;
    bump_left_ -= bytes;
    return p;
  }

  /// Recycle a slice `alloc(len)` returned.
  void release(std::byte* p, std::size_t len) {
    const std::size_t cls = size_class(len);
    if (cls >= free_.size()) free_.resize(cls + 1);
    free_[cls].push_back(p);
  }

  /// Bytes reserved from the OS across all chunks (never shrinks until the
  /// run ends) — the arena-pressure number engine self-profiling reports.
  std::size_t allocated_bytes() const { return allocated_; }

 private:
  static constexpr std::size_t kGrain = 512;
  static constexpr std::size_t kChunk = std::size_t{1} << 20;
  static std::size_t size_class(std::size_t len) {
    return (len + kGrain - 1) / kGrain;
  }
  std::byte* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::size_t allocated_ = 0;
  std::vector<std::vector<std::byte*>> free_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

struct EventState;

/// Engine state of the innermost shared-stack run on this thread (the fresh-
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

  static constexpr std::uint32_t kNoMsg = UINT32_MAX;

  struct VRank {
    St state = St::kUnstarted;
    std::uint32_t slice_len = 0;
    void* sp = nullptr;        ///< saved stack pointer while suspended
    std::byte* slice = nullptr;  ///< saved stack bytes [sp, stack_top)
    std::uint64_t wait_key = 0;  ///< mail_key of the message awaited
    std::uint32_t inbox_head = kNoMsg;  ///< oldest undelivered message to it
    std::uint32_t inbox_tail = kNoMsg;  ///< newest
  };

  /// One undelivered point-to-point message, a node of its destination's
  /// inbox. `kind` is the state a receive of it blocks in, so token and byte
  /// messages on one (src, dst, tag) never match each other.
  struct Msg {
    std::uint64_t key = 0;  ///< mail_key(src, dst, tag)
    St kind = St::kWaitToken;
    std::uint32_t next = kNoMsg;  ///< next message in the inbox, or free node
    std::uint64_t token = 0;
    std::vector<std::byte> bytes;
  };

  /// A rank's ucontext, for per-rank-stack runs only. Kept out of VRank: a
  /// ucontext_t alone is about 1 KB, which a shared-stack run at 131k ranks
  /// must not pay per rank.
  struct Fiber {
    ucontext_t ctx{};
    void* asan_fake = nullptr;  ///< ASan fake-stack handle across suspensions
  };

  /// `per_rank_stacks` picks the stack mode; builds without the shared stack
  /// always use per-rank stacks.
  EventState(const char* engine, int n, std::size_t stack_bytes,
             [[maybe_unused]] bool per_rank_stacks)
      : engine(engine), n(n), stack_bytes(stack_bytes),
        vr(static_cast<std::size_t>(n)),
        ready(static_cast<std::size_t>(n) + 1),
        u64_slots(static_cast<std::size_t>(n)),
        u64_result(static_cast<std::size_t>(n)) {
#ifdef AMRIO_EVENT_SHARED_STACK
    if (!per_rank_stacks) {
      // uninitialized by design: the canary and each seeded entry frame are
      // written explicitly, and a rank writes every frame before reading it
      stack_mem.reset(new std::byte[stack_bytes + 64]);
      std::byte* raw = stack_mem.get();
      auto top = reinterpret_cast<std::uintptr_t>(raw + stack_bytes + 64);
      stack_top = reinterpret_cast<std::byte*>(top & ~std::uintptr_t{63});
      std::memcpy(raw, &kCanary, sizeof kCanary);
      std::uint32_t mxcsr = 0;
      std::uint16_t fcw = 0;
      asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
      fpu_word = mxcsr | (static_cast<std::uint64_t>(fcw) << 32);
      return;
    }
#endif
    fibers.resize(static_cast<std::size_t>(n));
    stacks_len = static_cast<std::size_t>(n) * stack_bytes;
    void* p = mmap(nullptr, stacks_len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    stacks = static_cast<char*>(p);
  }

  ~EventState() {
    if (stacks != nullptr) munmap(stacks, stacks_len);
  }
  EventState(const EventState&) = delete;
  EventState& operator=(const EventState&) = delete;

  const char* const engine;  ///< Engine::name(), for reports and errors
  const int n;
  const std::size_t stack_bytes;
  const RankFn* fn = nullptr;
  int cur = -1;
  int ndone = 0;
  int next_start = 0;  ///< fresh-start cursor: ranks [next_start, n) unstarted
  std::vector<VRank> vr;
  // Ready queue: a fixed ring of capacity n+1. Each rank appears at most once
  // (wake() only enqueues suspended ranks, and enqueueing leaves the
  // suspended states), so the ring can never overflow — no allocation on the
  // scheduling hot path.
  std::vector<int> ready;
  std::size_t ready_head = 0;
  std::size_t ready_tail = 0;
  SliceArena arena;

  // Collective machinery: staging slots (written at arrival) and results
  // (snapshotted by the releasing rank). A released rank's result cannot be
  // clobbered early: the next release needs all n arrivals, which a rank that
  // has not yet consumed this result cannot contribute to.
  int arrived = 0;
  std::vector<std::uint64_t> u64_slots;
  std::vector<std::uint64_t> u64_result;

  // Point-to-point messages: each rank's inbox is a FIFO list of nodes of
  // one pool, threaded through Msg::next from VRank::inbox_head to
  // inbox_tail. Taken nodes go to the `free_msg` list, so once the pool has
  // grown to the most messages ever undelivered at once, a send or receive
  // allocates nothing.
  std::vector<Msg> msgs;
  std::uint32_t free_msg = kNoMsg;

  std::exception_ptr first_error;
  bool aborted = false;
  bool abort_broadcast = false;  ///< blocked ranks woken to observe the abort

  // Self-profiling counters: plain locals on the scheduling path (no
  // synchronization), published once per run when a profiler is attached.
  std::uint64_t prof_resumes = 0;     ///< context switches into ranks
  std::size_t prof_ready_peak = 0;    ///< ready-queue depth high-water

  // Per-rank-stack mode: one Fiber per rank (empty in shared-stack mode),
  // the scheduler's own context, and the ranks' stacks: rank r's is
  // [stacks + r * stack_bytes, +stack_bytes) of one anonymous mapping, so a
  // stack costs only the pages the rank touches. (A malloc'd stack can sit
  // on heap pages that a freed payload left resident, and add them to the
  // run's peak.)
  std::vector<Fiber> fibers;
  char* stacks = nullptr;
  std::size_t stacks_len = 0;
  ucontext_t main_ctx{};
  /// Scheduler stack bounds, recorded on first fiber entry so yields and
  /// fiber exits can announce the switch back (ASan annotation only).
  const void* sched_stack_bottom = nullptr;
  std::size_t sched_stack_size = 0;

#ifdef AMRIO_EVENT_SHARED_STACK
  static constexpr std::uint64_t kCanary = 0x5afe57ac4ca11edull;
  std::unique_ptr<std::byte[]> stack_mem;
  std::byte* stack_top = nullptr;
  std::uint64_t fpu_word = 0;
  void* sched_sp = nullptr;  ///< scheduler context, parked while a rank runs
#endif

  static std::uint64_t mail_key(int src, int dst, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  }

  /// Append `m` to `dst`'s inbox and wake `dst` (at the front of the ready
  /// queue with `front`) if it is blocked receiving exactly this key and
  /// kind — the only wake a p2p message triggers, since sends are buffered.
  void post(int dst, Msg m, bool front) {
    std::uint32_t i = free_msg;
    if (i == kNoMsg) {
      i = static_cast<std::uint32_t>(msgs.size());
      msgs.push_back(std::move(m));
    } else {
      free_msg = msgs[i].next;
      msgs[i] = std::move(m);
    }
    msgs[i].next = kNoMsg;
    VRank& v = vr[static_cast<std::size_t>(dst)];
    if (v.inbox_tail == kNoMsg)
      v.inbox_head = i;
    else
      msgs[v.inbox_tail].next = i;
    v.inbox_tail = i;
    if (v.state == msgs[i].kind && v.wait_key == msgs[i].key) wake(dst, front);
  }

  /// Unlink the oldest message of `dst`'s inbox with this key and kind into
  /// `out` and recycle its node; false when there is none. The payload
  /// leaves the node here, so no shipped buffer outlives its receive.
  bool take(int dst, std::uint64_t key, St kind, Msg& out) {
    VRank& v = vr[static_cast<std::size_t>(dst)];
    std::uint32_t prev = kNoMsg;
    for (std::uint32_t i = v.inbox_head; i != kNoMsg; i = msgs[i].next) {
      Msg& m = msgs[i];
      if (m.key != key || m.kind != kind) {
        prev = i;
        continue;
      }
      (prev == kNoMsg ? v.inbox_head : msgs[prev].next) = m.next;
      if (v.inbox_tail == i) v.inbox_tail = prev;
      out = std::move(m);  // the node's vector is left empty
      m.next = free_msg;
      free_msg = i;
      return true;
    }
    return false;
  }

  /// Move a suspended rank to the back of the ready queue (the front with
  /// `front`); no-op for any other state, so a rank is never enqueued twice.
  void wake(int r, bool front = false) {
    VRank& v = vr[static_cast<std::size_t>(r)];
    if (v.state == St::kWaitCollective || v.state == St::kWaitToken ||
        v.state == St::kWaitBytes) {
      v.state = St::kReady;
      if (front) {
        ready_head = (ready_head + ready.size() - 1) % ready.size();
        ready[ready_head] = r;
      } else {
        ready[ready_tail] = r;
        ready_tail = (ready_tail + 1) % ready.size();
      }
      const std::size_t depth =
          (ready_tail + ready.size() - ready_head) % ready.size();
      if (depth > prof_ready_peak) prof_ready_peak = depth;
    }
  }

  // --- stackful primitives -------------------------------------------------

#ifdef AMRIO_EVENT_SHARED_STACK
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

  [[gnu::noinline]] void resume_shared(int r);
#endif
  [[gnu::noinline]] void resume_fiber(int r);

  void resume(int r) {
    cur = r;
#ifdef AMRIO_EVENT_SHARED_STACK
    if (fibers.empty()) {
      resume_shared(r);
      return;
    }
#endif
    resume_fiber(r);
  }

  void yield_current() {
#ifdef AMRIO_EVENT_SHARED_STACK
    if (fibers.empty()) {
      amrio_event_fctx_switch(&vr[static_cast<std::size_t>(cur)].sp, sched_sp);
      return;
    }
#endif
    Fiber& f = fibers[static_cast<std::size_t>(cur)];
    AMRIO_FIBER_START_SWITCH(&f.asan_fake, sched_stack_bottom,
                             sched_stack_size);
    swapcontext(&f.ctx, &main_ctx);
    AMRIO_FIBER_FINISH_SWITCH(f.asan_fake, nullptr, nullptr);
  }

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
          throw std::runtime_error(std::string(engine) +
                                   " engine: internal error — aborted ranks "
                                   "did not unwind");
        if (!aborted) {
          if (!first_error)
            first_error = std::make_exception_ptr(std::runtime_error(
                std::string(engine) +
                " engine: deadlock — all live ranks are blocked (mismatched "
                "collectives or a recv with no matching send)"));
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

/// Per-rank context bound to one virtual rank of an EventState; the stack
/// mode is invisible here.
class EventCtx final : public RankCtx {
 public:
  EventCtx(EventState* st, int rank) : st_(st), rank_(rank) {}

  int rank() const override { return rank_; }
  int nranks() const override { return st_->n; }

  void barrier() override { arrive([](EventState&) {}); }

  std::vector<std::uint64_t> gather(std::uint64_t v, int root) override {
    AMRIO_EXPECTS(root >= 0 && root < st_->n);
    st_->u64_slots[static_cast<std::size_t>(rank_)] = v;
    arrive([](EventState& st) { st.u64_result = st.u64_slots; });
    if (rank_ != root) return {};
    return st_->u64_result;
  }

  void send_token(std::uint64_t value, int dest, int tag) override {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    check_tag(tag);
    EventState::Msg m;
    m.key = EventState::mail_key(rank_, dest, tag);
    m.token = value;
    st_->post(dest, std::move(m), /*front=*/false);
  }

  std::uint64_t recv_token(int src, int tag) override {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    check_tag(tag);
    return receive(EventState::mail_key(src, rank_, tag),
                   EventState::St::kWaitToken)
        .token;
  }

  /// A receiver blocked on this message runs next, so it consumes the
  /// payload before anyone else can queue another.
  void send_bytes(std::vector<std::byte> data, int dest, int tag) override {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    check_tag(tag);
    EventState::Msg m;
    m.key = EventState::mail_key(rank_, dest, tag);
    m.kind = EventState::St::kWaitBytes;
    m.bytes = std::move(data);  // the buffer itself
    st_->post(dest, std::move(m), /*front=*/true);
  }

  std::vector<std::byte> recv_bytes(int src, int tag) override {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    check_tag(tag);
    return receive(EventState::mail_key(src, rank_, tag),
                   EventState::St::kWaitBytes)
        .bytes;
  }

 private:
  /// Take the oldest message for this rank with `key` and `kind`, blocking
  /// until one is posted.
  EventState::Msg receive(std::uint64_t key, EventState::St kind) {
    EventState::Msg m;
    while (!st_->take(rank_, key, kind, m)) {
      check_abort();
      block_on(key, kind);
    }
    return m;
  }

  /// Arrive at a collective; the last rank computes the result and wakes
  /// every other rank — all suspended here — in rank order, then proceeds
  /// without yielding. Earlier ranks suspend until released.
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
      for (int r = 0; r < st.n; ++r) st.wake(r);
      return;
    }
    st.vr[static_cast<std::size_t>(rank_)].state =
        EventState::St::kWaitCollective;
    st.yield_current();
    check_abort();
  }

  void block_on(std::uint64_t key, EventState::St wait_state) {
    auto& v = st_->vr[static_cast<std::size_t>(rank_)];
    v.state = wait_state;
    v.wait_key = key;
    st_->yield_current();
  }

  void check_abort() const {
    if (st_->aborted) throw CommAborted();
  }

  static void check_tag(int tag) {
    AMRIO_EXPECTS_MSG(tag >= 0 && tag <= 0xffff,
                      "exec: p2p tags must be in [0, 65535]");
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

#ifdef AMRIO_EVENT_SHARED_STACK

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

void EventState::resume_shared(int r) {
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
    arena.release(v.slice, v.slice_len);
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
  v.slice = arena.alloc(len);
  v.slice_len = static_cast<std::uint32_t>(len);
  std::memcpy(v.slice, v.sp, len);
}

#endif  // AMRIO_EVENT_SHARED_STACK

/// makecontext only passes ints — smuggle the state pointer in two halves.
void fiber_trampoline(unsigned int hi, unsigned int lo) {
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

void EventState::resume_fiber(int r) {
  VRank& v = vr[static_cast<std::size_t>(r)];
  Fiber& f = fibers[static_cast<std::size_t>(r)];
  char* const stack = stacks + static_cast<std::size_t>(r) * stack_bytes;
  if (v.state == St::kUnstarted) {
    if (getcontext(&f.ctx) != 0)
      throw std::runtime_error("exec: getcontext failed");
    f.ctx.uc_stack.ss_sp = stack;
    f.ctx.uc_stack.ss_size = stack_bytes;
    f.ctx.uc_link = &main_ctx;
    const auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(fiber_trampoline), 2,
                static_cast<unsigned int>(ptr >> 32),
                static_cast<unsigned int>(ptr & 0xffffffffu));
  }
  v.state = St::kRunning;
  [[maybe_unused]] void* sched_fake = nullptr;
  AMRIO_FIBER_START_SWITCH(&sched_fake, stack, stack_bytes);
  if (swapcontext(&main_ctx, &f.ctx) != 0)
    throw std::runtime_error("exec: swapcontext failed");
  AMRIO_FIBER_FINISH_SWITCH(sched_fake, nullptr, nullptr);
  if (v.state == St::kDone) ++ndone;
}

/// One run of either cooperative engine: schedule every rank of `fn`, then
/// publish `engine.<name>.*` self-profiling counters when a profiler is
/// attached.
void run_cooperative(const Engine& engine, std::size_t stack_bytes,
                     bool per_rank_stacks, const RankFn& fn) {
  auto st = std::make_unique<EventState>(engine.name(), engine.nranks(),
                                         stack_bytes, per_rank_stacks);
  st->fn = &fn;
  EventState* const prev = g_current;
  g_current = st.get();
  const auto t0 = std::chrono::steady_clock::now();
  auto publish = [&] {
    obs::SelfProfiler* const prof = engine.profiler();
    if (prof == nullptr) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::string key = std::string("engine.") + engine.name() + ".";
    prof->count(key + "runs", 1);
    prof->count(key + "context_switches", st->prof_resumes);
    prof->gauge_max(key + "ready_queue_peak",
                    static_cast<double>(st->prof_ready_peak));
    prof->gauge_max(key + "slice_arena_bytes",
                    static_cast<double>(st->arena.allocated_bytes()));
    if (wall > 0)
      prof->gauge_max(key + "events_per_sec",
                      static_cast<double>(st->prof_resumes) / wall);
    prof->phase_add(key + "run", wall);
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

void expect_rank_count(int nranks, const char* engine) {
  AMRIO_EXPECTS_MSG(nranks >= 1, engine << " needs at least one rank");
  AMRIO_EXPECTS_MSG(nranks < (1 << 24),
                    engine << " supports up to 2^24 - 1 ranks (mailbox keys "
                              "pack src/dst into 24 bits each)");
}

}  // namespace

SerialEngine::SerialEngine(int nranks) : nranks_(nranks) {
  expect_rank_count(nranks, "SerialEngine");
}

void SerialEngine::run(const RankFn& fn) {
  run_cooperative(*this, kStackBytes, /*per_rank_stacks=*/true, fn);
}

EventEngine::EventEngine(int nranks, std::size_t exec_stack_bytes)
    : nranks_(nranks), stack_bytes_(exec_stack_bytes) {
  expect_rank_count(nranks, "EventEngine");
  AMRIO_EXPECTS_MSG(exec_stack_bytes >= 64 * 1024,
                    "EventEngine execution stack must be at least 64 KiB");
}

void EventEngine::run(const RankFn& fn) {
  run_cooperative(*this, stack_bytes_, /*per_rank_stacks=*/false, fn);
}

}  // namespace amrio::exec
