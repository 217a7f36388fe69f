#include "pfs/simfs.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <map>
#include <queue>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/whatif.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace amrio::pfs {

namespace {
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

std::uint32_t IoBatch::add_file(std::string path) {
  AMRIO_EXPECTS_MSG(files.size() < UINT32_MAX, "IoBatch: path table is full");
  files.push_back(std::move(path));
  return static_cast<std::uint32_t>(files.size() - 1);
}

SimFs::SimFs(SimFsConfig cfg) : cfg_(cfg) {
  AMRIO_EXPECTS(cfg_.n_ost >= 1);
  AMRIO_EXPECTS(cfg_.stripe_count >= 1 && cfg_.stripe_count <= cfg_.n_ost);
  AMRIO_EXPECTS(cfg_.stripe_size >= 1);
  AMRIO_EXPECTS(cfg_.ost_bandwidth > 0 && cfg_.client_bandwidth > 0);
  AMRIO_EXPECTS(cfg_.mds_latency >= 0);
  AMRIO_EXPECTS(cfg_.variability_sigma >= 0);
  if (cfg_.bb.enabled) {
    AMRIO_EXPECTS_MSG(cfg_.bb.nodes >= 1, "SimFs: bb.nodes must be >= 1");
    AMRIO_EXPECTS_MSG(cfg_.bb.ranks_per_node >= 1,
                      "SimFs: bb.ranks_per_node must be >= 1");
    AMRIO_EXPECTS_MSG(cfg_.bb.write_bandwidth > 0 && cfg_.bb.drain_bandwidth > 0,
                      "SimFs: bb bandwidths must be > 0");
    AMRIO_EXPECTS_MSG(cfg_.bb.drain_concurrency >= 1,
                      "SimFs: bb.drain_concurrency must be >= 1");
    AMRIO_EXPECTS_MSG(cfg_.bb.read_bandwidth > 0,
                      "SimFs: bb.read_bandwidth must be > 0");
    AMRIO_EXPECTS_MSG(cfg_.bb.prefetch_concurrency >= 0,
                      "SimFs: bb.prefetch_concurrency must be >= 0");
  }
}

int SimFs::node_of(int client) const {
  AMRIO_EXPECTS(client >= 0);
  return (client / std::max(cfg_.bb.ranks_per_node, 1)) %
         std::max(cfg_.bb.nodes, 1);
}

std::vector<IoResult> SimFs::run(const IoBatch& batch) {
  return run(batch, obs::Probe{});
}

std::vector<IoResult> SimFs::run(const IoBatch& batch, obs::Probe probe) {
  const std::vector<IoRequest>& requests = batch.requests;
  const std::vector<std::string>& files = batch.files;
  for (const IoRequest& req : requests)
    AMRIO_EXPECTS_MSG(req.file < files.size(),
                      "SimFs: request names no entry of the path table");

  // Per-file identity, computed once per table entry: a rank by path text
  // (equal text, equal rank — one file however many entries name it) and
  // the first OST of its stripe set, by path hash.
  std::vector<std::uint32_t> file_rank(files.size());
  std::vector<int> file_ost(files.size());
  {
    std::vector<std::uint32_t> by_text(files.size());
    for (std::uint32_t f = 0; f < by_text.size(); ++f) by_text[f] = f;
    std::sort(by_text.begin(), by_text.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return files[a] < files[b];
              });
    for (std::size_t k = 0; k < by_text.size(); ++k) {
      const std::uint32_t f = by_text[k];
      file_rank[f] = k > 0 && files[f] == files[by_text[k - 1]]
                         ? file_rank[by_text[k - 1]]
                         : static_cast<std::uint32_t>(k);
      file_ost[f] = static_cast<int>(fnv1a(files[f]) %
                                     static_cast<std::uint64_t>(cfg_.n_ost));
    }
  }

  // Request state while streaming chunks over the OST layer. Direct writes,
  // direct reads, burst-buffer drains, and prefetches all become flights;
  // they differ only in the client-side rate cap and in what happens at
  // completion (reads simply transfer in the other direction — the OST FIFOs
  // are shared either way).
  struct Flight {
    std::size_t index;          // into requests/results
    std::uint64_t remaining;    // data bytes not yet committed
    int next_stripe = 0;        // round-robin position in the stripe set
    int first_ost = 0;
    double ready = 0.0;         // client-side time the next chunk can issue
    double rate = 0.0;          // client/drain-stream bandwidth cap
    bool is_drain = false;
    bool is_prefetch = false;
    int node = 0;               // BB node (drains/prefetches only)
  };

  std::vector<IoResult> results(requests.size());

  // Per-request observability bookkeeping, filled during the event loop and
  // turned into spans/metrics/ledger entries *after* it, in request-index
  // order — emission inherits the loop's determinism and never perturbs the
  // timeline. Only a probed run keeps it.
  struct Aux {
    double service_sum = 0.0;   // summed chunk service time (no queue waits)
    double flight_start = 0.0;  // direct issue / drain start / prefetch start
    double absorb_start = 0.0;  // staged writes: when the absorb ran
    double read_start = 0.0;    // BB reads: when the node-local read began
    bool capacity_stalled = false;  // ever parked on the capacity wait list
    bool prefetch_gated = false;    // BB read gated on a pending prefetch
  };
  const bool observed = static_cast<bool>(probe);
  std::vector<Aux> aux(observed ? requests.size() : 0);
  const bool want_series = cfg_.bb.enabled && probe.metrics != nullptr;
  std::vector<std::pair<double, std::int64_t>> occ_deltas;    // occupancy
  std::vector<std::pair<double, std::int64_t>> drain_deltas;  // busy streams

  // Resource-ledger bookkeeping: per-OST service seconds accumulated at
  // chunk grain, and (resource, time, ±delta) queue-depth events for the
  // stream pools / capacity wait lists. All of it is recorded from the
  // deterministic event loop, so the ledger is engine-invariant like the
  // spans.
  const bool want_ledger = probe.ledger != nullptr;
  std::vector<double> ost_busy(
      want_ledger ? static_cast<std::size_t>(cfg_.n_ost) : 0, 0.0);
  std::vector<std::tuple<std::string, double, int>> ledger_q;
  auto bb_res = [](int node, const char* what) {
    return "bb[" + std::to_string(node) + "]." + what;
  };
  auto lq = [&](std::string name, double t, int delta) {
    if (want_ledger) ledger_q.emplace_back(std::move(name), t, delta);
  };

  // Phase 1: metadata. The MDS services creates FIFO by submit time; ties are
  // broken by (client, path text) then request index, so the service order —
  // and with it every downstream time — is independent of request-list and
  // path-table order for distinct (client, file) pairs (documented
  // guarantee; drain replays rely on it).
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const IoRequest& ra = requests[a];
                     const IoRequest& rb = requests[b];
                     if (ra.submit_time != rb.submit_time)
                       return ra.submit_time < rb.submit_time;
                     if (ra.client != rb.client) return ra.client < rb.client;
                     return file_rank[ra.file] < file_rank[rb.file];
                   });

  const bool bb_on = cfg_.bb.enabled;

  // Phase 2 state: one event queue drives absorbs, drain/prefetch stream
  // starts, node-local reads, and OST chunk issues. Kind order at equal
  // times: chunks first (so a drain completion frees capacity before a
  // stalled absorb re-tries, and a prefetch completion lands before the read
  // it wakes), then stream starts, then absorb tries, then BB reads; seq
  // (push order) makes everything FIFO and deterministic.
  enum EvKind {
    kChunk = 0,
    kDrainStart = 1,
    kPrefetchStart = 2,
    kAbsorbTry = 3,
    kBbRead = 4
  };
  struct Event {
    double time;
    int kind;
    std::uint64_t seq;
    std::size_t id;  // flight slot (kChunk) or request index (others, opens)
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      if (kind != other.kind) return kind > other.kind;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  // Opens take their MDS position as seq; later events number after them.
  std::uint64_t seq = order.size();

  // A flight exists from its first chunk to its last; finished flights'
  // slots are recycled, so `flights` holds only the peak concurrent ones.
  // Path, rate and node follow from the request and its served tier.
  std::vector<Flight> flights;
  std::vector<std::size_t> free_slots;
  auto start_flight = [&](std::size_t idx, double ready) {
    Flight fl;
    fl.index = idx;
    fl.remaining = requests[idx].bytes;
    fl.first_ost = results[idx].first_ost;
    fl.ready = ready;
    if (results[idx].tier == kTierBurstBuffer) {
      fl.is_prefetch = requests[idx].op == kOpPrefetch;
      fl.is_drain = !fl.is_prefetch;
      fl.rate = cfg_.bb.drain_bandwidth;
      fl.node = node_of(requests[idx].client);
    } else {
      fl.rate = cfg_.client_bandwidth;
    }
    if (observed) aux[idx].flight_start = ready;
    if (free_slots.empty()) {
      flights.push_back(fl);
      return flights.size() - 1;
    }
    const std::size_t slot = free_slots.back();
    free_slots.pop_back();
    flights[slot] = fl;
    return slot;
  };

  struct Node {
    double ingest_free = 0.0;       // absorb server is FIFO per node
    double read_free = 0.0;         // node-local read server is FIFO per node
    std::uint64_t occupancy = 0;    // staged bytes not yet drained/consumed
    // free times of the node's currently idle drain streams (min-heap);
    // size + running drains == drain_concurrency at all times
    std::priority_queue<double, std::vector<double>, std::greater<double>> slots;
    int idle_prefetch_streams = 0;  // prefetch stream pool (OST→node)
    std::deque<std::size_t> pending_drains;     // absorbed, all streams busy
    std::deque<std::size_t> pending_prefetch;   // admitted, all streams busy
    std::vector<std::size_t> waiting;  // capacity-stalled absorbs/prefetches
  };
  std::vector<Node> nodes;
  const int prefetch_streams = cfg_.bb.prefetch_concurrency > 0
                                   ? cfg_.bb.prefetch_concurrency
                                   : cfg_.bb.drain_concurrency;
  if (bb_on) {
    nodes.resize(static_cast<std::size_t>(cfg_.bb.nodes));
    for (auto& nd : nodes) {
      for (int s = 0; s < cfg_.bb.drain_concurrency; ++s) nd.slots.push(0.0);
      nd.idle_prefetch_streams = prefetch_streams;
    }
  }

  // A BB-tier read of a (node, file) this batch also prefetches must wait
  // until enough of that key's bytes are resident: several ranks may each
  // prefetch their slice of one shared dump file, and a read consumes (and
  // evicts) its own size from the staged pool in FIFO order — so reads
  // interleave with prefetch waves instead of deadlocking when the staging
  // area cannot hold the whole image at once. Keys are deterministic (node
  // id, path-text rank); per-key state counts outstanding prefetches and
  // tracks the staged-byte pool with the time it last grew.
  auto bb_key = [&](const IoRequest& req) {
    const auto node = static_cast<std::uint64_t>(node_of(req.client));
    return (node << 32) | file_rank[req.file];
  };
  struct PrefetchState {
    int pending = 0;             // prefetches of this key not yet complete
    std::uint64_t resident = 0;  // staged bytes not yet consumed by reads
    double resident_time = 0.0;  // latest completion that grew `resident`
  };
  std::map<std::uint64_t, PrefetchState> prefetch_state;
  std::map<std::uint64_t, std::vector<std::size_t>> read_waiters;
  if (bb_on) {
    for (const auto& req : requests)
      if (req.op == kOpPrefetch && req.bytes > 0)
        ++prefetch_state[bb_key(req)].pending;
  }

  double mds_free = 0.0;
  for (std::size_t idx : order) {
    const IoRequest& req = requests[idx];
    AMRIO_EXPECTS(req.client >= 0);
    AMRIO_EXPECTS_MSG(req.op == kOpWrite || req.op == kOpRead ||
                          req.op == kOpPrefetch,
                      "SimFs: unknown request op");
    // Which path serves this request? With the BB tier disabled, every tag
    // collapses onto the direct PFS path (reads and prefetches become cold
    // OST fetches, staged writes direct writes).
    const bool staged = bb_on && req.op == kOpWrite &&
                        req.tier == kTierBurstBuffer;
    const bool prefetch = bb_on && req.op == kOpPrefetch;
    const bool bb_read = bb_on && req.op == kOpRead &&
                         req.tier == kTierBurstBuffer;
    if ((staged || prefetch) && cfg_.bb.capacity > 0)
      AMRIO_EXPECTS_MSG(req.bytes <= cfg_.bb.capacity,
                        "SimFs: staged request larger than bb.capacity can "
                        "never be absorbed");
    const double open_start = std::max(req.submit_time, mds_free);
    const double open_end = open_start + cfg_.mds_latency;
    mds_free = open_end;
    IoResult& res = results[idx];
    res.open_start = open_start;
    res.open_end = open_end;
    res.end = open_end;  // zero-byte files end at create/open
    res.pfs_end = open_end;
    res.bytes = req.bytes;
    res.op = req.op;
    res.tier = (staged || prefetch || bb_read) ? kTierBurstBuffer : kTierPfs;
    res.first_ost = file_ost[req.file];
  }

  // Opens enter the queue lazily: before each pop, every open due no later
  // than the queue top is pushed. Open times never decrease along `order`
  // and an open's seq is below every later event's, so the (time, kind,
  // seq) pop order — and with it the RNG draw order — is the one of pushing
  // them all up front, while the queue holds only live events.
  std::size_t next_open = 0;
  auto admit_opens = [&] {
    for (; next_open < order.size(); ++next_open) {
      const std::size_t idx = order[next_open];
      const IoResult& res = results[idx];
      if (!pq.empty() && res.open_end > pq.top().time) break;
      if (res.bytes == 0) continue;
      int kind = kChunk;  // direct: its flight starts at the first chunk
      if (res.tier == kTierBurstBuffer)
        kind = res.op == kOpWrite     ? kAbsorbTry
               : res.op == kOpPrefetch ? kPrefetchStart
                                       : kBbRead;
      pq.push({res.open_end, kind, next_open, idx});
    }
    return !pq.empty();
  };

  std::vector<double> ost_free(static_cast<std::size_t>(cfg_.n_ost), 0.0);
  util::Xoshiro256 rng(cfg_.seed);
  // Mean-corrected lognormal: E[exp(sigma Z - sigma^2/2)] = 1, so turning the
  // noise on does not change mean service time.
  const double mu = -0.5 * cfg_.variability_sigma * cfg_.variability_sigma;

  // Re-try events for capacity-stalled requests: absorbs and prefetches share
  // the per-node waiting list, each re-entering through its own handler.
  auto wake_waiting = [&](Node& nd, int node, double when) {
    for (std::size_t w : nd.waiting) {
      pq.push({when,
               requests[w].op == kOpPrefetch ? static_cast<int>(kPrefetchStart)
                                             : static_cast<int>(kAbsorbTry),
               seq++, w});
      lq(bb_res(node, "capacity_wait"), when, -1);
    }
    nd.waiting.clear();
  };

  while (admit_opens()) {
    const Event ev = pq.top();
    pq.pop();

    if (ev.kind == kPrefetchStart) {
      const std::size_t idx = ev.id;
      const IoRequest& req = requests[idx];
      const int node = node_of(req.client);
      Node& nd = nodes[static_cast<std::size_t>(node)];
      if (cfg_.bb.capacity > 0 &&
          nd.occupancy + req.bytes > cfg_.bb.capacity) {
        nd.waiting.push_back(idx);  // woken when a drain/read frees space
        if (observed) aux[idx].capacity_stalled = true;
        lq(bb_res(node, "capacity_wait"), ev.time, 1);
        continue;
      }
      nd.occupancy += req.bytes;  // reserve staging space for the extent
      if (want_series)
        occ_deltas.emplace_back(ev.time, static_cast<std::int64_t>(req.bytes));
      if (nd.idle_prefetch_streams == 0) {  // all streams busy: queue FIFO
        nd.pending_prefetch.push_back(idx);
        lq(bb_res(node, "prefetch"), ev.time, 1);
        continue;
      }
      --nd.idle_prefetch_streams;
      pq.push({ev.time, kChunk, seq++, start_flight(idx, ev.time)});
      continue;
    }

    if (ev.kind == kBbRead) {
      const std::size_t idx = ev.id;
      const IoRequest& req = requests[idx];
      const std::uint64_t key = bb_key(req);
      const auto pf = prefetch_state.find(key);
      double start = ev.time;
      if (pf != prefetch_state.end()) {
        PrefetchState& st = pf->second;
        if (st.pending > 0 && st.resident < req.bytes) {
          // Not enough of this key staged yet, more on the way: wait. Every
          // completion of the key wakes the waiters to re-check (FIFO), so
          // reads drain the pool between prefetch waves.
          read_waiters[key].push_back(idx);
          if (observed) aux[idx].prefetch_gated = true;
          continue;
        }
        // Completions may already be *booked* (their last chunks were
        // issued) but lie in the future — the read still cannot start
        // before the bytes it consumes are resident.
        if (observed && st.resident_time > start)
          aux[idx].prefetch_gated = true;
        start = std::max(start, st.resident_time);
      }
      const int node = node_of(req.client);
      Node& nd = nodes[static_cast<std::size_t>(node)];
      start = std::max(start, nd.read_free);  // node read server is FIFO
      if (observed) aux[idx].read_start = start;
      const double read_end =
          start + static_cast<double>(req.bytes) / cfg_.bb.read_bandwidth;
      nd.read_free = read_end;
      results[idx].end = read_end;
      results[idx].pfs_end = read_end;
      // The solver owns the extent now: evict what this key's prefetches
      // actually staged (never other requests' reservations — a BB read
      // with no prefetch in the batch frees nothing) and wake anything
      // stalled on capacity.
      if (pf != prefetch_state.end()) {
        const std::uint64_t freed = std::min(pf->second.resident, req.bytes);
        pf->second.resident -= freed;
        nd.occupancy -= freed;
        if (want_series && freed > 0)
          occ_deltas.emplace_back(read_end, -static_cast<std::int64_t>(freed));
        if (freed > 0) wake_waiting(nd, node, read_end);
      }
      continue;
    }

    if (ev.kind == kAbsorbTry) {
      const std::size_t idx = ev.id;
      const IoRequest& req = requests[idx];
      const int node = node_of(req.client);
      Node& nd = nodes[static_cast<std::size_t>(node)];
      if (nd.ingest_free > ev.time) {  // absorb server busy: come back later
        pq.push({nd.ingest_free, kAbsorbTry, seq++, idx});
        continue;
      }
      if (cfg_.bb.capacity > 0 &&
          nd.occupancy + req.bytes > cfg_.bb.capacity) {
        nd.waiting.push_back(idx);  // woken when a drain frees space
        if (observed) aux[idx].capacity_stalled = true;
        lq(bb_res(node, "capacity_wait"), ev.time, 1);
        continue;
      }
      // Node-local absorb: burst-buffer bandwidth alone (no NIC crossing).
      const double absorb_end =
          ev.time + static_cast<double>(req.bytes) / cfg_.bb.write_bandwidth;
      nd.occupancy += req.bytes;
      if (want_series)
        occ_deltas.emplace_back(ev.time, static_cast<std::int64_t>(req.bytes));
      nd.ingest_free = absorb_end;
      if (observed) aux[idx].absorb_start = ev.time;
      results[idx].end = absorb_end;  // perceived completion
      pq.push({absorb_end, kDrainStart, seq++, idx});
      continue;
    }

    if (ev.kind == kDrainStart) {
      const std::size_t idx = ev.id;
      const int node = node_of(requests[idx].client);
      Node& nd = nodes[static_cast<std::size_t>(node)];
      if (nd.slots.empty()) {  // every drain stream busy: wait for a release
        nd.pending_drains.push_back(idx);
        lq(bb_res(node, "drain"), ev.time, 1);
        continue;
      }
      nd.slots.pop();  // stream acquired; released at flight completion
      if (want_series) drain_deltas.emplace_back(ev.time, 1);
      pq.push({ev.time, kChunk, seq++, start_flight(idx, ev.time)});
      continue;
    }

    // kChunk: issue the flight's next chunk onto its OST. A direct request's
    // open (seq below order.size()) carries its request index: its flight
    // starts with this first chunk.
    const std::size_t slot =
        ev.seq < order.size() ? start_flight(ev.id, ev.time) : ev.id;
    Flight& fl = flights[slot];
    const std::uint64_t chunk =
        std::min<std::uint64_t>(fl.remaining, cfg_.stripe_size);
    const int ost = (fl.first_ost + fl.next_stripe) % cfg_.n_ost;
    fl.next_stripe = (fl.next_stripe + 1) % cfg_.stripe_count;

    double service =
        static_cast<double>(chunk) / std::min(fl.rate, cfg_.ost_bandwidth);
    if (cfg_.variability_sigma > 0)
      service *= rng.lognormal(mu, cfg_.variability_sigma);

    const double start =
        std::max(fl.ready, ost_free[static_cast<std::size_t>(ost)]);
    const double end = start + service;
    ost_free[static_cast<std::size_t>(ost)] = end;
    if (want_ledger) ost_busy[static_cast<std::size_t>(ost)] += service;
    fl.ready = end;
    fl.remaining -= chunk;
    if (observed) aux[fl.index].service_sum += service;

    if (fl.remaining > 0) {
      pq.push({fl.ready, kChunk, seq++, slot});
      continue;
    }
    // Flight complete: free its slot. Starting the next prefetch below may
    // reuse the slot or grow `flights`, so keep a copy, not `fl`.
    const Flight done = fl;
    free_slots.push_back(slot);
    IoResult& res = results[done.index];
    res.pfs_end = end;
    if (done.is_prefetch) {
      // Prefetch complete: the extent is resident node-local. Release the
      // stream to the next queued prefetch and wake reads gated on this
      // (node, file).
      res.end = end;
      Node& nd = nodes[static_cast<std::size_t>(done.node)];
      ++nd.idle_prefetch_streams;
      if (!nd.pending_prefetch.empty()) {
        const std::size_t next = nd.pending_prefetch.front();
        nd.pending_prefetch.pop_front();
        lq(bb_res(done.node, "prefetch"), end, -1);
        --nd.idle_prefetch_streams;
        pq.push({end, kChunk, seq++, start_flight(next, end)});
      }
      const std::uint64_t key = bb_key(requests[done.index]);
      PrefetchState& st = prefetch_state[key];
      --st.pending;
      st.resident += res.bytes;
      st.resident_time = std::max(st.resident_time, end);
      // Wake the key's waiting reads to re-check the pool — unsatisfied
      // ones re-register, satisfied ones consume in FIFO order.
      const auto waiters = read_waiters.find(key);
      if (waiters != read_waiters.end()) {
        std::vector<std::size_t> woken = std::move(waiters->second);
        read_waiters.erase(waiters);
        for (std::size_t w : woken) pq.push({end, kBbRead, seq++, w});
      }
      continue;
    }
    if (!done.is_drain) {
      res.end = end;
      continue;
    }
    // Drain complete: free staging space and the stream, hand the stream to
    // the next absorbed-but-undrained request, wake stalled
    // absorbs/prefetches.
    Node& nd = nodes[static_cast<std::size_t>(done.node)];
    nd.occupancy -= res.bytes;
    if (want_series) {
      occ_deltas.emplace_back(end, -static_cast<std::int64_t>(res.bytes));
      drain_deltas.emplace_back(end, -1);
    }
    nd.slots.push(end);
    if (!nd.pending_drains.empty()) {
      const std::size_t next = nd.pending_drains.front();
      nd.pending_drains.pop_front();
      lq(bb_res(done.node, "drain"), end, -1);
      pq.push({end, kDrainStart, seq++, next});
    }
    wake_waiting(nd, done.node, end);
  }

  // A batch must drain completely: anything still parked here means the BB
  // tier can never serve it (e.g. prefetches whose combined reservation
  // exceeds capacity with no reads to evict between waves) — fail loudly
  // rather than return those requests as instantaneously complete.
  if (bb_on) {
    bool stalled = !read_waiters.empty();
    for (const auto& nd : nodes)
      stalled = stalled || !nd.waiting.empty() || !nd.pending_prefetch.empty() ||
                !nd.pending_drains.empty();
    AMRIO_ENSURES_MSG(!stalled,
                      "SimFs: batch ended with capacity-stalled or gated "
                      "requests the bb tier can never serve — raise "
                      "bb.capacity or interleave reads with the prefetches");
  }

  // ------------------------------------------------------- observability
  // Spans and metrics are emitted here, in request-index order, from the aux
  // data the (deterministic) event loop recorded — so the span stream is as
  // engine-invariant as the results themselves.
  if (probe.tracer != nullptr || probe.metrics != nullptr) {
    constexpr double kEps = 1e-12;
    constexpr double kSecQuantum = 1e-9;
    obs::SpanSink* tr = probe.tracer;
    obs::MetricsRegistry* mx = probe.metrics;
    auto observe = [&](const char* name, double v) {
      if (mx != nullptr) mx->observe(name, v, kSecQuantum);
    };
    // Main span id per request, for the prefetch→bb_read edges below.
    std::vector<std::uint64_t> span_of(requests.size(), 0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const IoRequest& req = requests[i];
      const IoResult& res = results[i];
      const Aux& a = aux[i];
      if (req.bytes == 0) continue;
      if (mx != nullptr) {
        mx->add("simfs.requests", 1);
        mx->observe("simfs.mds.queue_s", res.open_start - req.submit_time,
                    kSecQuantum);
      }
      const bool on_bb = res.tier == kTierBurstBuffer;
      if (!on_bb) {
        // Direct OST path (writes, cold reads, and — with the tier disabled
        // — everything tagged for it): one span, wait = time in the OST
        // FIFOs / NIC beyond the summed chunk service.
        const bool is_write = res.op == kOpWrite;
        const double queue_wait =
            std::max(0.0, (res.end - res.open_end) - a.service_sum);
        if (tr != nullptr) {
          obs::Span s;
          s.rank = req.client;
          s.stage = is_write ? "pfs_write" : "pfs_read";
          s.detail = files[req.file];
          s.start = res.open_start;
          s.end = res.end;
          s.wait = queue_wait;
          if (queue_wait > kEps) s.resource = "ost_queue";
          s.service = a.service_sum;
          s.res = "ost[" + std::to_string(res.first_ost) + "]";
          span_of[i] = tr->record(std::move(s));
        }
        if (mx != nullptr)
          mx->add(is_write ? "simfs.pfs.write_bytes" : "simfs.pfs.read_bytes",
                  static_cast<std::int64_t>(req.bytes));
        observe(is_write ? "simfs.pfs.write_queue_s" : "simfs.pfs.read_queue_s",
                queue_wait);
        observe(is_write ? "simfs.pfs.write_service_s"
                         : "simfs.pfs.read_service_s",
                a.service_sum);
      } else if (res.op == kOpWrite) {
        // Staged write: absorb (perceived) + async drain (durable), linked by
        // a happens-before edge; a nested bb_stall child marks capacity or
        // ingest gating ahead of the absorb.
        const double stall = std::max(0.0, a.absorb_start - res.open_end);
        const char* gate = a.capacity_stalled ? "bb_capacity" : "bb_ingest";
        const double slot_wait = std::max(0.0, a.flight_start - res.end);
        if (tr != nullptr) {
          obs::Span absorb;
          absorb.rank = req.client;
          absorb.stage = "bb_absorb";
          absorb.detail = files[req.file];
          absorb.start = res.open_start;
          absorb.end = res.end;
          absorb.wait = stall;
          if (stall > kEps) absorb.resource = gate;
          absorb.service = res.end - a.absorb_start;
          absorb.res = bb_res(node_of(req.client), "ingest");
          const std::uint64_t absorb_id = tr->record(std::move(absorb));
          span_of[i] = absorb_id;
          if (stall > kEps) {
            obs::Span st;
            st.parent = absorb_id;
            st.rank = req.client;
            st.stage = "bb_stall";
            st.detail = files[req.file];
            st.start = res.open_end;
            st.end = a.absorb_start;
            st.wait = stall;
            st.resource = gate;
            tr->record(std::move(st));
          }
          obs::Span drain;
          drain.rank = req.client;
          drain.stage = "bb_drain";
          drain.detail = files[req.file];
          drain.start = res.end;
          drain.end = res.pfs_end;
          drain.wait = slot_wait;
          if (slot_wait > kEps) drain.resource = "drain_stream";
          drain.service = a.service_sum;
          drain.res = bb_res(node_of(req.client), "drain");
          const std::uint64_t drain_id = tr->record(std::move(drain));
          tr->edge(absorb_id, drain_id);
        }
        if (mx != nullptr) {
          mx->add("simfs.bb.absorb_bytes",
                  static_cast<std::int64_t>(req.bytes));
          mx->add("simfs.bb.drain_bytes", static_cast<std::int64_t>(req.bytes));
          if (a.capacity_stalled) mx->add("simfs.bb.capacity_stalls", 1);
        }
        observe("simfs.bb.absorb_stall_s", stall);
        observe("simfs.bb.drain_slot_wait_s", slot_wait);
        observe("simfs.bb.drain_service_s", a.service_sum);
      } else if (res.op == kOpPrefetch) {
        const double wait = std::max(0.0, a.flight_start - res.open_end);
        if (tr != nullptr) {
          obs::Span s;
          s.rank = req.client;
          s.stage = "bb_prefetch";
          s.detail = files[req.file];
          s.start = res.open_start;
          s.end = res.end;
          s.wait = wait;
          if (wait > kEps)
            s.resource =
                a.capacity_stalled ? "bb_capacity" : "prefetch_stream";
          s.service = a.service_sum;
          s.res = bb_res(node_of(req.client), "prefetch");
          span_of[i] = tr->record(std::move(s));
        }
        if (mx != nullptr) {
          mx->add("simfs.bb.prefetch_bytes",
                  static_cast<std::int64_t>(req.bytes));
          if (a.capacity_stalled) mx->add("simfs.bb.capacity_stalls", 1);
        }
        observe("simfs.bb.prefetch_wait_s", wait);
      } else {  // BB-tier node-local read
        const double wait = std::max(0.0, a.read_start - res.open_end);
        if (tr != nullptr) {
          obs::Span s;
          s.rank = req.client;
          s.stage = "bb_read";
          s.detail = files[req.file];
          s.start = res.open_start;
          s.end = res.end;
          s.wait = wait;
          if (wait > kEps)
            s.resource = a.prefetch_gated ? "prefetch_gate" : "bb_read_queue";
          s.service = res.end - a.read_start;
          s.res = bb_res(node_of(req.client), "read");
          span_of[i] = tr->record(std::move(s));
        }
        if (mx != nullptr)
          mx->add("simfs.bb.read_bytes", static_cast<std::int64_t>(req.bytes));
        observe("simfs.bb.read_wait_s", wait);
      }
      observe("simfs.request.duration_s", res.end - res.open_start);
    }

    // Happens-before from the prefetch wave that staged a BB read's bytes:
    // the latest same-(node, file) prefetch completing at or before the
    // read's start, the lowest request index among equal completions. Each
    // key's prefetches are indexed once, sorted by (end, request index).
    if (tr != nullptr && bb_on) {
      using Wave = std::pair<double, std::size_t>;  // (end, request index)
      std::map<std::uint64_t, std::vector<Wave>> waves;
      for (std::size_t j = 0; j < requests.size(); ++j)
        if (requests[j].op == kOpPrefetch && span_of[j] != 0)
          waves[bb_key(requests[j])].emplace_back(results[j].end, j);
      for (auto& [key, w] : waves) std::sort(w.begin(), w.end());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (span_of[i] == 0 || results[i].op != kOpRead ||
            results[i].tier != kTierBurstBuffer)
          continue;
        const auto it = waves.find(bb_key(requests[i]));
        if (it == waves.end()) continue;
        const std::vector<Wave>& w = it->second;
        const auto after = std::upper_bound(
            w.begin(), w.end(), aux[i].read_start + kEps,
            [](double t, const Wave& x) { return t < x.first; });
        if (after == w.begin()) continue;
        const auto best = std::lower_bound(
            w.begin(), after, std::prev(after)->first,
            [](const Wave& x, double t) { return x.first < t; });
        tr->edge(span_of[best->second], span_of[i]);
      }
    }

    // Virtual-time series + peak gauge from the loop's delta streams. The
    // deltas were recorded in event order (deterministic); a stable sort on
    // time keeps that order within ties.
    if (mx != nullptr && want_series) {
      std::stable_sort(occ_deltas.begin(), occ_deltas.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      std::int64_t occ = 0;
      std::int64_t peak = 0;
      for (const auto& [t, d] : occ_deltas) {
        occ += d;
        peak = std::max(peak, occ);
        mx->sample("bb.occupancy_bytes", t, static_cast<double>(occ));
      }
      mx->gauge_max("simfs.bb.peak_occupancy_bytes",
                    static_cast<double>(peak));
      std::stable_sort(drain_deltas.begin(), drain_deltas.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      std::int64_t busy = 0;
      for (const auto& [t, d] : drain_deltas) {
        busy += d;
        mx->sample("bb.drain_streams_busy", t, static_cast<double>(busy));
      }
    }
  }

  // --------------------------------------------------- utilization ledger
  // Per-resource busy seconds and queue depth, from the same post-loop aux
  // data. Resources are declared with their pool capacity so the report's
  // busy + idle = capacity × makespan conservation holds per resource.
  if (want_ledger) {
    obs::ResourceLedger& lg = *probe.ledger;
    lg.declare("mds", 1);
    lg.add_busy("mds", cfg_.mds_latency * static_cast<double>(requests.size()));
    for (int o = 0; o < cfg_.n_ost; ++o) {
      const std::string name = "ost[" + std::to_string(o) + "]";
      lg.declare(name, 1);
      lg.add_busy(name, ost_busy[static_cast<std::size_t>(o)]);
    }
    if (bb_on) {
      for (int n = 0; n < cfg_.bb.nodes; ++n) {
        lg.declare(bb_res(n, "ingest"), 1);
        lg.declare(bb_res(n, "drain"), cfg_.bb.drain_concurrency);
        lg.declare(bb_res(n, "prefetch"), prefetch_streams);
        lg.declare(bb_res(n, "read"), 1);
      }
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const IoRequest& req = requests[i];
      const IoResult& res = results[i];
      const Aux& a = aux[i];
      if (req.bytes == 0) continue;
      lg.extend_makespan(std::max(res.end, res.pfs_end));
      if (res.tier != kTierBurstBuffer) continue;
      const int node = node_of(req.client);
      if (res.op == kOpWrite) {
        lg.add_busy(bb_res(node, "ingest"), res.end - a.absorb_start);
        lg.add_busy(bb_res(node, "drain"), res.pfs_end - a.flight_start);
      } else if (res.op == kOpPrefetch) {
        lg.add_busy(bb_res(node, "prefetch"), res.end - a.flight_start);
      } else {  // BB-tier node-local read
        lg.add_busy(bb_res(node, "read"), res.end - a.read_start);
      }
    }
    for (const auto& [name, t, delta] : ledger_q) lg.queue_delta(name, t, delta);
  }

  return results;
}

obs::ReliefKnobs relief_knobs(const SimFsConfig& cfg) {
  obs::ReliefKnobs knobs;
  knobs.ost_bandwidth = cfg.ost_bandwidth;
  knobs.client_bandwidth = cfg.client_bandwidth;
  knobs.drain_bandwidth = cfg.bb.drain_bandwidth;
  return knobs;
}

}  // namespace amrio::pfs
