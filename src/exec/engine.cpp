#include "exec/engine.hpp"

#include <ucontext.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "util/assert.hpp"

namespace amrio::exec {

// ---------------------------------------------------------------- SpmdEngine

int SpmdEngine::thread_cap() {
  constexpr int kDefaultCap = 1024;
  if (const char* env = std::getenv("AMRIO_SPMD_THREAD_CAP")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return kDefaultCap;
}

SpmdEngine::SpmdEngine(int nranks) : nranks_(nranks) {
  AMRIO_EXPECTS_MSG(nranks >= 1, "SpmdEngine needs at least one rank");
  // Fail fast with a usable message instead of letting pthread_create die on
  // resource exhaustion partway through spawning tens of thousands of threads.
  AMRIO_EXPECTS_MSG(
      nranks <= thread_cap(),
      "SpmdEngine: " << nranks << " ranks exceeds the thread cap of "
                     << thread_cap()
                     << " OS threads — use --engine=event for large rank "
                        "counts (or raise AMRIO_SPMD_THREAD_CAP)");
}

void SpmdEngine::run(const RankFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  simmpi::run_spmd(nranks_, [&fn](simmpi::Comm& comm) {
    CommCtx ctx(comm);
    fn(ctx);
  });
  if (profiler_ != nullptr) {
    profiler_->count("engine.spmd.runs", 1);
    profiler_->phase_add(
        "engine.spmd.run",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
}

// -------------------------------------------------------------- SerialEngine
//
// Each rank is a ucontext fiber. The scheduler round-robins over runnable
// fibers; a fiber blocks (swaps back to the scheduler) when it arrives at a
// collective before its peers or when it receives a token that has not been
// sent yet. The *last* rank arriving at a collective snapshots the result for
// everyone before releasing, so a rank resumed later never observes staging
// slots overwritten by the next collective (a full release requires all
// nranks arrivals, which a still-suspended rank cannot contribute to).
//
// Byte hand-off (see SerialEngine in engine.hpp): without it every member of
// an aggregation group would serialize and send its document before the
// aggregator resumed once, so a whole dump's payloads would sit in the
// mailboxes together.

namespace {

struct SerialState {
  explicit SerialState(int n)
      : n(n), u64_slots(static_cast<std::size_t>(n)),
        u64_result(static_cast<std::size_t>(n)),
        byte_slots(static_cast<std::size_t>(n)) {}

  enum class FiberState { kReady, kWaitCollective, kWaitToken, kWaitBytes, kDone };

  struct Fiber {
    ucontext_t ctx{};
    // Uninitialized on purpose: value-initializing would memset every stack
    // on every Engine::run, costing nranks x stack_bytes per serial replay.
    std::unique_ptr<char[]> stack;
    std::size_t stack_size = 0;
    FiberState state = FiberState::kReady;
    std::tuple<int, int, int> wait_key{};  // (src, dst, tag) for kWaitToken/Bytes
  };

  int n;
  const RankFn* fn = nullptr;
  ucontext_t main_ctx{};
  std::vector<Fiber> fibers;
  int current = -1;

  // collective staging (inputs, written at arrive) and results (snapshotted
  // by the releasing rank).
  int arrived = 0;
  std::vector<std::uint64_t> u64_slots;
  std::vector<std::uint64_t> u64_result;
  std::vector<std::span<const std::byte>> byte_slots;
  std::vector<std::byte> bytes_result;

  // token/byte mailboxes keyed by (src, dst, tag)
  std::map<std::tuple<int, int, int>, std::deque<std::uint64_t>> mail;
  std::map<std::tuple<int, int, int>, std::deque<std::vector<std::byte>>>
      byte_mail;
  /// Receivers a byte send fed while they were blocked in recv_bytes, in
  /// send order; the scheduler resumes them when the sender yields.
  std::vector<int> handoffs;

  std::exception_ptr first_error;
  bool aborted = false;

  bool token_available(const std::tuple<int, int, int>& key) const {
    const auto it = mail.find(key);
    return it != mail.end() && !it->second.empty();
  }

  bool bytes_available(const std::tuple<int, int, int>& key) const {
    const auto it = byte_mail.find(key);
    return it != byte_mail.end() && !it->second.empty();
  }
};

/// Rank context bound to one fiber of a SerialState.
class FiberCtx final : public RankCtx {
 public:
  FiberCtx(SerialState* st, int rank) : st_(st), rank_(rank) {}

  int rank() const override { return rank_; }
  int nranks() const override { return st_->n; }

  void barrier() override { arrive([](SerialState&) {}); }

  std::uint64_t exscan_sum(std::uint64_t v) override {
    st_->u64_slots[static_cast<std::size_t>(rank_)] = v;
    arrive([](SerialState& st) {
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
    arrive([](SerialState& st) { st.u64_result = st.u64_slots; });
    if (rank_ != root) return {};
    return st_->u64_result;
  }

  std::vector<std::byte> gatherv(std::span<const std::byte> bytes,
                                 int root) override {
    AMRIO_EXPECTS(root >= 0 && root < st_->n);
    st_->byte_slots[static_cast<std::size_t>(rank_)] = bytes;
    arrive([](SerialState& st) {
      st.bytes_result.clear();
      for (int r = 0; r < st.n; ++r) {
        const auto s = st.byte_slots[static_cast<std::size_t>(r)];
        st.bytes_result.insert(st.bytes_result.end(), s.begin(), s.end());
      }
    });
    if (rank_ != root) return {};
    return st_->bytes_result;
  }

  void send_token(std::uint64_t value, int dest, int tag) override {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    st_->mail[{rank_, dest, tag}].push_back(value);
  }

  std::uint64_t recv_token(int src, int tag) override {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    const std::tuple<int, int, int> key{src, rank_, tag};
    while (!st_->token_available(key)) {
      check_abort();
      auto& f = st_->fibers[static_cast<std::size_t>(rank_)];
      f.state = SerialState::FiberState::kWaitToken;
      f.wait_key = key;
      yield();
    }
    auto& q = st_->mail[key];
    const std::uint64_t v = q.front();
    q.pop_front();
    return v;
  }

  void send_bytes(std::vector<std::byte> data, int dest, int tag) override {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    const std::tuple<int, int, int> key{rank_, dest, tag};
    st_->byte_mail[key].push_back(std::move(data));
    const auto& f = st_->fibers[static_cast<std::size_t>(dest)];
    if (f.state == SerialState::FiberState::kWaitBytes && f.wait_key == key)
      st_->handoffs.push_back(dest);
  }

  std::vector<std::byte> recv_bytes(int src, int tag) override {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    const std::tuple<int, int, int> key{src, rank_, tag};
    while (!st_->bytes_available(key)) {
      check_abort();
      auto& f = st_->fibers[static_cast<std::size_t>(rank_)];
      f.state = SerialState::FiberState::kWaitBytes;
      f.wait_key = key;
      yield();
    }
    auto& q = st_->byte_mail[key];
    std::vector<std::byte> v = std::move(q.front());
    q.pop_front();
    return v;
  }

 private:
  /// Arrive at a collective; the last rank runs `release` (computes results
  /// from the staging slots) and wakes everyone, then proceeds without
  /// yielding. Earlier ranks suspend until released.
  template <typename ReleaseFn>
  void arrive(ReleaseFn&& release) {
    check_abort();
    if (st_->n == 1) {
      release(*st_);
      return;
    }
    if (++st_->arrived == st_->n) {
      st_->arrived = 0;
      release(*st_);
      for (auto& f : st_->fibers) {
        if (f.state == SerialState::FiberState::kWaitCollective)
          f.state = SerialState::FiberState::kReady;
      }
      return;
    }
    st_->fibers[static_cast<std::size_t>(rank_)].state =
        SerialState::FiberState::kWaitCollective;
    yield();
    check_abort();
  }

  void yield() {
    swapcontext(&st_->fibers[static_cast<std::size_t>(rank_)].ctx,
                &st_->main_ctx);
  }

  void check_abort() const {
    if (st_->aborted) throw simmpi::CommAborted();
  }

  SerialState* st_;
  int rank_;
};

/// makecontext only passes ints — smuggle the state pointer in two halves.
void fiber_trampoline(unsigned int hi, unsigned int lo) {
  auto* st = reinterpret_cast<SerialState*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  const int rank = st->current;
  FiberCtx ctx(st, rank);
  try {
    (*st->fn)(ctx);
  } catch (...) {
    if (!st->first_error) st->first_error = std::current_exception();
    st->aborted = true;
  }
  st->fibers[static_cast<std::size_t>(rank)].state =
      SerialState::FiberState::kDone;
  // returning resumes main_ctx via uc_link
}

/// Bind every (already stack-backed) fiber to the trampoline. Out of line so
/// getcontext's setjmp-like control flow never shares a frame with objects
/// the compiler could cache in clobbered registers (-Wclobbered).
[[gnu::noinline]] void prepare_fibers(SerialState& st) {
  const auto ptr = reinterpret_cast<std::uintptr_t>(&st);
  for (auto& f : st.fibers) {
    if (getcontext(&f.ctx) != 0)
      throw std::runtime_error("SerialEngine: getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = f.stack_size;
    f.ctx.uc_link = &st.main_ctx;
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(fiber_trampoline), 2,
                static_cast<unsigned int>(ptr >> 32),
                static_cast<unsigned int>(ptr & 0xffffffffu));
  }
}

/// Switch into fiber `r` until it yields or finishes; true once it is done.
/// Out of line for the same reason as run_fibers.
[[gnu::noinline]] bool resume_fiber(SerialState& st, int r) {
  auto& f = st.fibers[static_cast<std::size_t>(r)];
  st.current = r;
  if (swapcontext(&st.main_ctx, &f.ctx) != 0)
    throw std::runtime_error("SerialEngine: swapcontext failed");
  return f.state == SerialState::FiberState::kDone;
}

/// Resume every receiver a byte send handed off to, in send order — and the
/// receivers those fibers feed in turn — before the round-robin moves on.
/// Returns how many of them finished.
int run_handoffs(SerialState& st) {
  int finished = 0;
  for (std::size_t i = 0; i < st.handoffs.size(); ++i) {
    const int h = st.handoffs[i];
    auto& f = st.fibers[static_cast<std::size_t>(h)];
    if (f.state != SerialState::FiberState::kWaitBytes) continue;
    f.state = SerialState::FiberState::kReady;  // recv_bytes rechecks
    if (resume_fiber(st, h)) ++finished;
  }
  st.handoffs.clear();
  return finished;
}

/// Round-robin fiber scheduler. Kept free of nontrivial locals and out of
/// line: swapcontext has setjmp-like control flow and must not share a frame
/// with objects the compiler could cache in clobbered registers.
[[gnu::noinline]] void run_fibers(SerialState& st, int nranks) {
  int ndone = 0;
  while (ndone < nranks) {
    bool progressed = false;
    for (int r = 0; r < nranks; ++r) {
      auto& f = st.fibers[static_cast<std::size_t>(r)];
      if (f.state == SerialState::FiberState::kDone) continue;
      if (f.state == SerialState::FiberState::kWaitToken) {
        if (!st.token_available(f.wait_key) && !st.aborted) continue;
        f.state = SerialState::FiberState::kReady;  // recv_token rechecks
      }
      if (f.state == SerialState::FiberState::kWaitBytes) {
        if (!st.bytes_available(f.wait_key) && !st.aborted) continue;
        f.state = SerialState::FiberState::kReady;  // recv_bytes rechecks
      }
      if (st.aborted && f.state == SerialState::FiberState::kWaitCollective)
        f.state = SerialState::FiberState::kReady;  // resume to throw
      if (f.state != SerialState::FiberState::kReady) continue;
      if (resume_fiber(st, r)) ++ndone;
      ndone += run_handoffs(st);
      progressed = true;
    }
    if (!progressed && ndone < nranks) {
      // Deadlock: don't throw over suspended fibers (their locals would
      // never be destructed). Flag the abort and let the next pass resume
      // every blocked fiber; each throws CommAborted internally, unwinds,
      // and finishes, then run() rethrows the error recorded here.
      if (st.aborted)
        throw std::runtime_error(
            "SerialEngine: internal error — aborted fibers did not unwind");
      if (!st.first_error)
        st.first_error = std::make_exception_ptr(std::runtime_error(
            "SerialEngine: deadlock — all live ranks are blocked (mismatched "
            "collectives or a recv_token with no matching send_token)"));
      st.aborted = true;
    }
  }
}

/// Trivial context for the single-rank fast path (no fibers needed).
class SingleCtx final : public RankCtx {
 public:
  int rank() const override { return 0; }
  int nranks() const override { return 1; }
  void barrier() override {}
  std::uint64_t exscan_sum(std::uint64_t) override { return 0; }
  std::vector<std::uint64_t> gather(std::uint64_t v, int root) override {
    AMRIO_EXPECTS(root == 0);
    return {v};
  }
  std::vector<std::byte> gatherv(std::span<const std::byte> bytes,
                                 int root) override {
    AMRIO_EXPECTS(root == 0);
    return {bytes.begin(), bytes.end()};
  }
  void send_token(std::uint64_t, int, int) override {
    throw std::runtime_error("SerialEngine: send_token with one rank");
  }
  std::uint64_t recv_token(int, int) override {
    throw std::runtime_error("SerialEngine: recv_token with one rank");
  }
  void send_bytes(std::vector<std::byte>, int, int) override {
    throw std::runtime_error("SerialEngine: send_bytes with one rank");
  }
  std::vector<std::byte> recv_bytes(int, int) override {
    throw std::runtime_error("SerialEngine: recv_bytes with one rank");
  }
};

}  // namespace

SerialEngine::SerialEngine(int nranks, std::size_t stack_bytes)
    : nranks_(nranks), stack_bytes_(stack_bytes) {
  AMRIO_EXPECTS_MSG(nranks >= 1, "SerialEngine needs at least one rank");
  AMRIO_EXPECTS_MSG(stack_bytes >= 16 * 1024,
                    "SerialEngine fiber stacks must be at least 16 KiB");
}

void SerialEngine::run(const RankFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto publish = [&] {
    if (profiler_ == nullptr) return;
    profiler_->count("engine.serial.runs", 1);
    profiler_->phase_add(
        "engine.serial.run",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  };
  if (nranks_ == 1) {
    SingleCtx ctx;
    fn(ctx);
    publish();
    return;
  }

  SerialState st(nranks_);
  st.fn = &fn;
  st.fibers.resize(static_cast<std::size_t>(nranks_));
  for (auto& f : st.fibers) {
    f.stack.reset(new char[stack_bytes_]);  // uninitialized by design
    f.stack_size = stack_bytes_;
  }

  prepare_fibers(st);
  run_fibers(st, nranks_);

  publish();
  if (st.first_error) std::rethrow_exception(st.first_error);
}

void gatherv_group(RankCtx& ctx, std::vector<std::byte> mine,
                   std::span<const int> members, int root, int tag,
                   const LandFn& land, obs::Probe probe) {
  AMRIO_EXPECTS_MSG(!members.empty(), "gatherv_group: empty member list");
  bool in_group = false;
  bool root_in_group = false;
  for (std::size_t i = 0; i < members.size(); ++i) {
    AMRIO_EXPECTS_MSG(members[i] >= 0 && members[i] < ctx.nranks(),
                      "gatherv_group: member rank out of range");
    if (i > 0)
      AMRIO_EXPECTS_MSG(members[i] > members[i - 1],
                        "gatherv_group: members must be strictly ascending");
    if (members[i] == ctx.rank()) in_group = true;
    if (members[i] == root) root_in_group = true;
  }
  AMRIO_EXPECTS_MSG(in_group, "gatherv_group: calling rank not a member");
  AMRIO_EXPECTS_MSG(root_in_group, "gatherv_group: root not a member");

  if (ctx.rank() != root) {
    ctx.send_bytes(std::move(mine), root, tag);
    return;
  }
  AMRIO_EXPECTS_MSG(land != nullptr, "gatherv_group: the root needs a visitor");
  std::uint64_t shipped = 0;
  std::int64_t nmessages = 0;
  for (int member : members) {
    if (member == root) {
      land(member, mine);
      std::vector<std::byte>().swap(mine);  // landed: drop it now
      continue;
    }
    const std::vector<std::byte> payload = ctx.recv_bytes(member, tag);
    shipped += payload.size();
    ++nmessages;
    land(member, payload);
  }
  if (probe.metrics != nullptr) {
    probe.metrics->add("exec.gatherv.calls", 1);
    probe.metrics->add("exec.gatherv.messages", nmessages);
    probe.metrics->add("exec.gatherv.bytes",
                       static_cast<std::int64_t>(shipped));
  }
}

std::vector<std::byte> scatterv_group(
    RankCtx& ctx, std::vector<std::vector<std::byte>> payloads,
    std::span<const int> members, int root, int tag, obs::Probe probe) {
  AMRIO_EXPECTS_MSG(!members.empty(), "scatterv_group: empty member list");
  bool in_group = false;
  bool root_in_group = false;
  for (std::size_t i = 0; i < members.size(); ++i) {
    AMRIO_EXPECTS_MSG(members[i] >= 0 && members[i] < ctx.nranks(),
                      "scatterv_group: member rank out of range");
    if (i > 0)
      AMRIO_EXPECTS_MSG(members[i] > members[i - 1],
                        "scatterv_group: members must be strictly ascending");
    if (members[i] == ctx.rank()) in_group = true;
    if (members[i] == root) root_in_group = true;
  }
  AMRIO_EXPECTS_MSG(in_group, "scatterv_group: calling rank not a member");
  AMRIO_EXPECTS_MSG(root_in_group, "scatterv_group: root not a member");

  if (ctx.rank() != root) return ctx.recv_bytes(root, tag);
  AMRIO_EXPECTS_MSG(payloads.size() == members.size(),
                    "scatterv_group: root needs one payload per member");
  std::vector<std::byte> mine;
  std::uint64_t shipped = 0;
  std::int64_t nmessages = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == root) {
      mine = std::move(payloads[i]);
    } else {
      shipped += payloads[i].size();
      ++nmessages;
      ctx.send_bytes(std::move(payloads[i]), members[i], tag);
    }
  }
  if (probe.metrics != nullptr) {
    probe.metrics->add("exec.scatterv.calls", 1);
    probe.metrics->add("exec.scatterv.messages", nmessages);
    probe.metrics->add("exec.scatterv.bytes",
                       static_cast<std::int64_t>(shipped));
  }
  return mine;
}

std::unique_ptr<Engine> make_engine(EngineKind kind, int nranks) {
  switch (kind) {
    case EngineKind::kSerial: return std::make_unique<SerialEngine>(nranks);
    case EngineKind::kSpmd: return std::make_unique<SpmdEngine>(nranks);
    case EngineKind::kEvent: return std::make_unique<EventEngine>(nranks);
  }
  throw std::invalid_argument("make_engine: unknown engine kind");
}

EngineKind engine_kind_from_name(const std::string& name) {
  if (name == "serial") return EngineKind::kSerial;
  if (name == "spmd") return EngineKind::kSpmd;
  if (name == "event") return EngineKind::kEvent;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (valid: serial, spmd, event)");
}

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSerial: return "serial";
    case EngineKind::kSpmd: return "spmd";
    case EngineKind::kEvent: return "event";
  }
  return "unknown";
}

}  // namespace amrio::exec
