#include "exec/engine.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "util/assert.hpp"

namespace amrio::exec {

// ---------------------------------------------------------------- SpmdEngine
//
// One shared state under one mutex: the u64 gather slots and the token and
// byte mailboxes. A rank that must wait marks itself blocked and sleeps on the
// one condition variable; whoever makes its wait condition true (the last
// arrival at a collective, or the sender of the message it waits for) clears
// the mark before notifying, as EventState::wake does. So a rank with a wake-
// up pending is never counted as blocked, and "every unfinished rank is
// blocked" is an exact deadlock test, checked whenever a rank blocks or
// finishes.

namespace {

using MailKey = std::tuple<int, int, int>;  // (src, dst, tag)

/// wait_key of a rank blocked in a collective: matches no mailbox, so no
/// message can release it.
constexpr MailKey kNoMailbox{-1, -1, -1};

struct SpmdState {
  explicit SpmdState(int n)
      : n(n), live(n), blocked(static_cast<std::size_t>(n), 0),
        wait_key(static_cast<std::size_t>(n)),
        u64_slots(static_cast<std::size_t>(n)) {}

  const int n;
  std::mutex mu;
  std::condition_variable cv;

  int live;          ///< ranks whose body has not returned or thrown
  int nblocked = 0;  ///< live ranks asleep with no wake-up pending
  std::vector<char> blocked;
  std::vector<MailKey> wait_key;  ///< mailbox a blocked receiver waits on

  // collective staging (inputs, written at arrival) and result (snapshotted
  // by the releasing rank); as in EventState, the next release needs every
  // rank's arrival, so a result is read before it can be overwritten
  int arrived = 0;
  std::vector<int> coll_waiters;
  std::vector<std::uint64_t> u64_slots;
  std::vector<std::uint64_t> u64_result;

  // mailboxes, erased once drained
  std::map<MailKey, std::deque<std::uint64_t>> mail;
  std::map<MailKey, std::deque<std::vector<std::byte>>> byte_mail;

  std::exception_ptr first_error;
  bool aborted = false;

  /// Flag the abort (keeping the first error) and wake every sleeper.
  void abort(std::exception_ptr error) {
    if (!first_error) first_error = std::move(error);
    aborted = true;
    cv.notify_all();
  }

  void check_deadlock() {
    if (!aborted && live > 0 && nblocked == live)
      abort(std::make_exception_ptr(std::runtime_error(
          "SpmdEngine: deadlock — all live ranks are blocked (mismatched "
          "collectives or a recv with no matching send)")));
  }

  /// Sleep until a waker clears rank `r`'s blocked mark or the run aborts;
  /// `key` is the mailbox whose next message may clear it.
  void block(std::unique_lock<std::mutex>& lock, int r, const MailKey& key) {
    const auto i = static_cast<std::size_t>(r);
    wait_key[i] = key;
    blocked[i] = 1;
    ++nblocked;
    check_deadlock();
    cv.wait(lock, [&] { return blocked[i] == 0 || aborted; });
    if (blocked[i] != 0) {
      blocked[i] = 0;
      --nblocked;
    }
  }

  /// Clear a blocked rank's mark; the caller notifies.
  void wake(int r) {
    auto& b = blocked[static_cast<std::size_t>(r)];
    if (b != 0) {
      b = 0;
      --nblocked;
    }
  }

  void wake_receiver(const MailKey& key) {
    const int dst = std::get<1>(key);
    if (blocked[static_cast<std::size_t>(dst)] != 0 &&
        wait_key[static_cast<std::size_t>(dst)] == key) {
      wake(dst);
      cv.notify_all();
    }
  }
};

/// SpmdEngine's RankCtx: one rank thread's view of the shared state.
class SpmdCtx final : public RankCtx {
 public:
  SpmdCtx(SpmdState* st, int rank) : st_(st), rank_(rank) {}

  int rank() const override { return rank_; }
  int nranks() const override { return st_->n; }

  void barrier() override {
    std::unique_lock<std::mutex> lock(st_->mu);
    arrive(lock, [](SpmdState&) {});
  }

  std::vector<std::uint64_t> gather(std::uint64_t v, int root) override {
    AMRIO_EXPECTS(root >= 0 && root < st_->n);
    std::unique_lock<std::mutex> lock(st_->mu);
    st_->u64_slots[static_cast<std::size_t>(rank_)] = v;
    arrive(lock, [](SpmdState& st) { st.u64_result = st.u64_slots; });
    if (rank_ != root) return {};
    return st_->u64_result;
  }

  void send_token(std::uint64_t value, int dest, int tag) override {
    post(st_->mail, value, dest, tag);
  }

  std::uint64_t recv_token(int src, int tag) override {
    return take(st_->mail, src, tag);
  }

  void send_bytes(std::vector<std::byte> data, int dest, int tag) override {
    post(st_->byte_mail, std::move(data), dest, tag);
  }

  std::vector<std::byte> recv_bytes(int src, int tag) override {
    return take(st_->byte_mail, src, tag);
  }

 private:
  /// Arrive at a collective; the last rank runs `release` (computes results
  /// from the staging slots) and wakes everyone, then proceeds. Earlier
  /// ranks block until released. Returns with `lock` held.
  template <typename ReleaseFn>
  void arrive(std::unique_lock<std::mutex>& lock, ReleaseFn&& release) {
    SpmdState& st = *st_;
    if (st.aborted) throw CommAborted();
    if (++st.arrived == st.n) {
      st.arrived = 0;
      release(st);
      for (const int r : st.coll_waiters) st.wake(r);
      st.coll_waiters.clear();
      st.cv.notify_all();
      return;
    }
    st.coll_waiters.push_back(rank_);
    st.block(lock, rank_, kNoMailbox);
    if (st.aborted) throw CommAborted();
  }

  template <typename Map, typename T>
  void post(Map& boxes, T&& msg, int dest, int tag) {
    AMRIO_EXPECTS(dest >= 0 && dest < st_->n && dest != rank_);
    const MailKey key{rank_, dest, tag};
    std::lock_guard<std::mutex> lock(st_->mu);
    boxes[key].push_back(std::forward<T>(msg));
    st_->wake_receiver(key);
  }

  template <typename Map>
  typename Map::mapped_type::value_type take(Map& boxes, int src, int tag) {
    AMRIO_EXPECTS(src >= 0 && src < st_->n && src != rank_);
    const MailKey key{src, rank_, tag};
    std::unique_lock<std::mutex> lock(st_->mu);
    auto it = boxes.find(key);
    while (it == boxes.end()) {
      if (st_->aborted) throw CommAborted();
      st_->block(lock, rank_, key);
      it = boxes.find(key);
    }
    auto v = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) boxes.erase(it);
    return v;
  }

  SpmdState* st_;
  int rank_;
};

/// Run rank `r`'s body; an escaping error aborts the run. Marks the rank
/// finished, which may leave every remaining rank blocked.
void run_spmd_rank(SpmdState& st, const RankFn& fn, int r) {
  try {
    SpmdCtx ctx(&st, r);
    fn(ctx);
  } catch (...) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.abort(std::current_exception());
  }
  std::lock_guard<std::mutex> lock(st.mu);
  --st.live;
  st.check_deadlock();
}

}  // namespace

SpmdEngine::SpmdEngine(int nranks) : nranks_(nranks) {
  AMRIO_EXPECTS_MSG(nranks >= 1, "SpmdEngine needs at least one rank");
  // Fail fast with a usable message instead of letting pthread_create die on
  // resource exhaustion partway through spawning tens of thousands of threads.
  AMRIO_EXPECTS_MSG(nranks <= thread_cap(),
                    "SpmdEngine: " << nranks
                                   << " ranks exceeds the thread cap of "
                                   << thread_cap()
                                   << " OS threads — use --engine=event for "
                                      "large rank counts");
}

void SpmdEngine::run(const RankFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  SpmdState st(nranks_);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_ - 1));
  try {
    for (int r = 1; r < nranks_; ++r)
      threads.emplace_back(run_spmd_rank, std::ref(st), std::cref(fn), r);
  } catch (...) {
    // Could not spawn every rank: release the ones that did start.
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.abort(std::current_exception());
    }
    for (auto& t : threads) t.join();
    throw;
  }
  run_spmd_rank(st, fn, 0);
  for (auto& t : threads) t.join();
  if (profiler_ != nullptr) {
    profiler_->count("engine.spmd.runs", 1);
    profiler_->phase_add(
        "engine.spmd.run",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
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
