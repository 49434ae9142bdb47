#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <utility>

#include "sim/logging.hh"
#include "sim/shard.hh"

namespace atomsim
{

namespace
{

/** Saturating tick addition: kTickNever stays kTickNever. */
inline Tick
satAdd(Tick a, Tick x)
{
    return a == kTickNever ? kTickNever : a + x;
}

} // namespace

/**
 * The sharded scheduler (leader-side state, persistent across
 * advanceTo() calls).
 *
 * Every window barrier the leader:
 *
 *  1. collects the domains' mesh sends and control submissions;
 *  2. routes pending sends up to a bound no control-plane send can
 *     still undercut (link reservations are order-sensitive);
 *  3. replays the sequential windowed tiling from the executed-tick
 *     logs (FlatTiling) to find the canonical barrier tick of any
 *     held control ops, and executes them there -- with every
 *     control-plane queue paused at the same tick -- once the known
 *     frontier covers the barrier;
 *  4. runs a lookahead fixpoint over per-domain earliest-output /
 *     earliest-inbound bounds (CMB null progress: quiescent domains
 *     advertise their next-event tick) and grants each domain an
 *     individual window end.
 *
 * Soundness invariants are enforced with hard panics (in the mesh:
 * lookahead, region ownership, causality; here: fixpoint convergence
 * and the uniform control-barrier grant), so a scheduler bug aborts
 * the run instead of silently diverging from the goldens.
 */
struct ShardEngine
{
    explicit ShardEngine(System &system);

    System &sys;
    Mesh &mesh;
    std::vector<SimDomain *> domains;
    std::vector<std::vector<SimDomain *>> owned; //!< per worker
    std::uint32_t numCores = 0;
    std::uint32_t numTiles = 0;

    Tick window = 1;          //!< sequential tiling width W
    FlatTiling tiling;
    std::vector<Tick> ends;   //!< granted window end per domain

    /** Per-domain executed-tick logs (EventQueue::setTickLog) with
     * consumed-prefix cursors; merged in global tick order into the
     * tiling. */
    std::vector<std::vector<Tick>> tickBuf;
    std::vector<std::size_t> tickCur;

    std::vector<SimDomain::ControlOp> held;      //!< canonical order
    std::vector<SimDomain::ControlOp> execBatch; //!< one drain round
    /** Nonzero while waiting for the frontier to reach a control
     * barrier: every control-plane domain is granted exactly this. */
    Tick uniformB = 0;
    /** Control lower bound of the previous barrier's fixpoint: no
     * control op can execute at a tick below it. */
    Tick lastCtrlLB = 0;
    /** Known frontier of the previous barrier: if it stalls, a
     * quadrant-deferred send is pinning its destination's inbound
     * bound and must be flushed to restore progress. */
    Tick lastFknown = kTickNever;

    // Reused fixpoint / merge scratch (steady state allocates nothing).
    std::vector<Tick> nextTickV, minInbound, eo, ei;
    std::vector<std::uint32_t> domNode;  //!< domain -> mesh node
    std::vector<Tick> nodeBest;          //!< chamfer grid (numNodes)
    std::vector<std::pair<Tick, std::uint32_t>> heap;

    ShardRunStats stats; //!< scheduler half (mesh half lives in Mesh)

    /** Control-plane domain: core tile or memory controller (both can
     * submit/receive control ops; L2 slices never do). */
    bool
    isCtrlDomain(std::uint32_t d) const
    {
        return d < numCores || d >= numCores + numTiles;
    }

    void beginCall(Tick limit);
    bool leaderBarrier(Runner &runner, Tick limit);
    void gatherHeld();
    void consumeUpTo(Tick t);
    void executeBatch(Tick barrier_tick);
    void computeGrants(Tick limit, Tick pending_earliest);
    void lookaheadFixpoint(Tick ctrl_eff);
};

ShardEngine::ShardEngine(System &system)
    : sys(system), mesh(system.mesh())
{
    const ShardLayout &layout = sys.shardLayout();
    numCores = layout.numCores;
    numTiles = layout.numTiles;
    const std::uint32_t ndomains = sys.numDomains();
    owned.resize(layout.workers);
    for (std::uint32_t d = 0; d < ndomains; ++d) {
        domains.push_back(&sys.domain(d));
        owned[layout.workerOfDomain(d)].push_back(domains.back());
    }
    ends.assign(ndomains, 0);
    nextTickV.assign(ndomains, kTickNever);
    minInbound.assign(ndomains, kTickNever);
    eo.assign(ndomains, 0);
    ei.assign(ndomains, 0);
    domNode.resize(ndomains);
    for (std::uint32_t d = 0; d < ndomains; ++d)
        domNode[d] = mesh.domainNode(d);
    nodeBest.assign(mesh.numNodes(), kTickNever);
    tickCur.assign(ndomains, 0);
    tickBuf.resize(ndomains);
    // The outer vector never resizes again, so the per-domain inner
    // vectors the queues log into stay put.
    for (std::uint32_t d = 0; d < ndomains; ++d)
        domains[d]->queue().setTickLog(&tickBuf[d]);

    const SystemConfig &cfg = sys.config();
    window = cfg.windowTicks ? cfg.windowTicks : cfg.hopLatency;
    tiling.configure(window, kTickNever);
}

void
ShardEngine::beginCall(Tick limit)
{
    // The sequential loop re-anchors its first window at the earliest
    // pending tick of the new call, so ticks executed by previous
    // calls can never anchor a window again: drop them and re-anchor.
    for (std::size_t d = 0; d < tickBuf.size(); ++d) {
        tickBuf[d].clear();
        tickCur[d] = 0;
        domains[d]->queue().setTickLog(&tickBuf[d]);
    }
    tiling.setLimit(limit);
    tiling.reset();
}

void
ShardEngine::gatherHeld()
{
    bool any = false;
    for (SimDomain *dom : domains) {
        auto &out = dom->controlOut();
        if (out.empty())
            continue;
        for (auto &op : out.items())
            held.push_back(std::move(op));
        out.clear();
        any = true;
    }
    if (any)
        std::sort(held.begin(), held.end(), controlOpBefore);
}

void
ShardEngine::consumeUpTo(Tick t)
{
    // Merge the per-domain executed-tick logs (each nondecreasing) in
    // global order into the tiling, up to and including tick t.
    heap.clear();
    const std::size_t ndomains = domains.size();
    for (std::uint32_t d = 0; d < ndomains; ++d) {
        if (tickCur[d] < tickBuf[d].size() && tickBuf[d][tickCur[d]] <= t)
            heap.emplace_back(tickBuf[d][tickCur[d]], d);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const Tick tk = heap.back().first;
        const std::uint32_t d = heap.back().second;
        heap.pop_back();
        tiling.consume(tk);
        std::size_t &cur = tickCur[d];
        ++cur;
        if (cur < tickBuf[d].size() && tickBuf[d][cur] <= t) {
            heap.emplace_back(tickBuf[d][cur], d);
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
    }
    for (std::uint32_t d = 0; d < ndomains; ++d) {
        auto &buf = tickBuf[d];
        if (tickCur[d] > 4096 && tickCur[d] * 2 > buf.size()) {
            buf.erase(buf.begin(), buf.begin() + std::ptrdiff_t(tickCur[d]));
            tickCur[d] = 0;
        }
    }
}

void
ShardEngine::executeBatch(Tick barrier_tick)
{
    // Every control-plane queue must sit at the canonical barrier tick
    // so zero-latency cross-domain ops observe the same now() the
    // sequential run had. Their grants were pinned to exactly
    // barrier_tick while the barrier was pending.
    for (std::uint32_t d = 0; d < domains.size(); ++d) {
        if (!isCtrlDomain(d))
            continue;
        panic_if(domains[d]->queue().now() != barrier_tick - 1,
                 "control domain %u at tick %llu, barrier at %llu",
                 d, (unsigned long long)domains[d]->queue().now(),
                 (unsigned long long)barrier_tick);
    }
    // Drain rounds, exactly like the sequential barrier: execute every
    // op below the barrier, re-gather ops submitted by that execution
    // (e.g. a quiesced truncate completing inline), repeat until none
    // remain. Ops at or past the barrier stay held for a later window.
    for (;;) {
        std::size_t n = 0;
        while (n < held.size() && held[n].tick < barrier_tick)
            ++n;
        if (n == 0)
            return;
        execBatch.clear();
        for (std::size_t i = 0; i < n; ++i)
            execBatch.push_back(std::move(held[i]));
        held.erase(held.begin(), held.begin() + std::ptrdiff_t(n));
        for (auto &op : execBatch)
            op.fn();
        gatherHeld();
    }
}

void
ShardEngine::lookaheadFixpoint(Tick ctrl_eff)
{
    // Greatest fixpoint of
    //   EO(d) = min(nextTick(d), EI(d))
    //   EI(d) = min(minInbound(d),
    //               min over s of min(EO(s), ctrlEvt(s)) + la(s, d))
    // iterated downward from the nextTick upper bound. EO is the
    // earliest tick domain d could execute any event; the ctrlEvt term
    // adds events a *future control barrier* could still inject:
    // ctrl_eff into a core's queue (continuations post at +1), and
    // ctrl_eff - 1 into an MC's (truncates schedule at the barrier
    // tick itself). Every lookahead edge is >= hopLatency x 2, so the
    // min-plus iteration converges within |domains| rounds.
    //
    // Each round evaluates the min-plus product without materializing
    // the lookahead matrix: la(s, d) is hop x (1 + manhattan distance
    // of the hosting nodes) plus the MC proxy floor toward cores, so
    // grouping sources by mesh node and running a two-pass chamfer
    // distance transform over the grid yields
    // min_s(out(s) + la(s, d)) for every d in O(domains + nodes) --
    // exact for the L1 metric with a uniform hop cost, where the
    // O(domains^2) inner product it replaces was intractable at 1024
    // tiles.
    const std::size_t ndomains = domains.size();
    const Tick ctrl_mc = ctrl_eff == kTickNever
                             ? kTickNever
                             : (ctrl_eff > 0 ? ctrl_eff - 1 : 0);
    const Tick hop = mesh.hopTick();
    const std::uint32_t rows = mesh.meshRows();
    const std::uint32_t cols = mesh.meshCols();
    for (std::size_t d = 0; d < ndomains; ++d)
        eo[d] = nextTickV[d];
    for (std::size_t round = 0;; ++round) {
        panic_if(round > ndomains + 2,
                 "lookahead fixpoint failed to converge");
        // nodeBest[n] = min over sources s hosted on node n of
        // min(EO(s), ctrlEvt(s)); mc_best the same over MC sources
        // only (their proxy sends depart from any tile node).
        std::fill(nodeBest.begin(), nodeBest.end(), kTickNever);
        Tick mc_best = kTickNever;
        for (std::size_t s = 0; s < ndomains; ++s) {
            Tick out = eo[s];
            const Tick ce = s < numCores
                                ? ctrl_eff
                                : (s >= numCores + numTiles ? ctrl_mc
                                                            : kTickNever);
            if (ce < out)
                out = ce;
            const std::uint32_t n = domNode[s];
            if (out < nodeBest[n])
                nodeBest[n] = out;
            if (s >= numCores + numTiles && out < mc_best)
                mc_best = out;
        }
        // In-place chamfer: after both passes
        // nodeBest[n] = min_m(sources at m + hop x manhattan(m, n)).
        for (std::uint32_t r = 0; r < rows; ++r) {
            for (std::uint32_t c = 0; c < cols; ++c) {
                const std::size_t i = std::size_t(r) * cols + c;
                Tick v = nodeBest[i];
                if (r > 0)
                    v = std::min(v, satAdd(nodeBest[i - cols], hop));
                if (c > 0)
                    v = std::min(v, satAdd(nodeBest[i - 1], hop));
                nodeBest[i] = v;
            }
        }
        for (std::uint32_t r = rows; r-- > 0;) {
            for (std::uint32_t c = cols; c-- > 0;) {
                const std::size_t i = std::size_t(r) * cols + c;
                Tick v = nodeBest[i];
                if (r + 1 < rows)
                    v = std::min(v, satAdd(nodeBest[i + cols], hop));
                if (c + 1 < cols)
                    v = std::min(v, satAdd(nodeBest[i + 1], hop));
                nodeBest[i] = v;
            }
        }
        for (std::size_t d = 0; d < ndomains; ++d) {
            const std::uint32_t nd = domNode[d];
            Tick v = std::min(minInbound[d], satAdd(nodeBest[nd], hop));
            if (d < numCores)
                v = std::min(v, satAdd(mc_best,
                                       mesh.minTileLatency(nd)));
            ei[d] = v;
        }
        bool changed = false;
        for (std::size_t d = 0; d < ndomains; ++d) {
            const Tick v = std::min(nextTickV[d], ei[d]);
            if (v != eo[d]) {
                eo[d] = v;
                changed = true;
            }
        }
        if (!changed)
            return;
    }
}

void
ShardEngine::computeGrants(Tick limit, Tick pending_earliest)
{
    const std::size_t ndomains = domains.size();
    Tick fknown = kTickNever;
    for (std::size_t d = 0; d < ndomains; ++d)
        fknown = std::min(fknown, ends[d]);
    const Tick held_min = held.empty() ? kTickNever : held.front().tick;

    // Effective control bound: no control op can execute at a tick
    // below ctrl_eff - 1. Found by upward iteration from a sound base
    // (submissions so far all landed below the known frontier; a held
    // op pins the bound at its own tick): each pass runs the lookahead
    // fixpoint at the current bound, then re-derives the bound from
    // the cores' instruction-stream promises (Core::ctrlLowerBound)
    // and -- while a truncate is in flight -- the MC domains' own
    // event horizons. Every iterate is sound, so capping the loop is
    // safe (merely conservative).
    Tick ctrl_eff = std::min(fknown < 1 ? Tick(1) : fknown,
                             satAdd(held_min, 1));
    const bool trunc = sys.designContext().truncInFlight();
    for (std::uint32_t iter = 0;; ++iter) {
        lookaheadFixpoint(ctrl_eff);
        Tick lb = kTickNever;
        for (std::uint32_t c = 0; c < numCores; ++c)
            lb = std::min(lb, std::max(sys.core(c).ctrlLowerBound(),
                                       eo[c]));
        if (trunc) {
            for (std::size_t d = numCores + numTiles; d < ndomains; ++d)
                lb = std::min(lb, eo[d]);
        }
        const Tick next_eff = std::min(satAdd(lb, 1),
                                       satAdd(held_min, 1));
        if (next_eff == ctrl_eff || iter >= 64)
            break;
        panic_if(next_eff < ctrl_eff, "control bound regressed");
        ctrl_eff = next_eff;
    }
    lastCtrlLB = ctrl_eff == kTickNever ? kTickNever : ctrl_eff - 1;

    // Keep grants finite even for domains nothing can ever reach
    // again (EI = never): cap at the last known activity plus one
    // window, so run-tail now() stays near the final event and the
    // measured cycle counts stay meaningful.
    Tick max_finite = fknown == kTickNever ? 0 : fknown;
    for (std::size_t d = 0; d < ndomains; ++d) {
        if (nextTickV[d] != kTickNever)
            max_finite = std::max(max_finite, nextTickV[d]);
    }
    if (held_min != kTickNever)
        max_finite = std::max(max_finite, held_min);
    if (pending_earliest != kTickNever)
        max_finite = std::max(max_finite, pending_earliest);
    Tick cap = max_finite + window;
    if (limit != kTickNever)
        cap = std::min(cap, limit + 1);

    for (std::uint32_t d = 0; d < ndomains; ++d) {
        Tick g;
        if (uniformB != 0 && isCtrlDomain(d)) {
            // A control barrier is pending at uniformB: every control
            // domain must stop exactly there -- no earlier (the
            // barrier needs them at uniformB - 1) and no later (no
            // event past the barrier may run before its ops).
            panic_if(ei[d] < uniformB,
                     "uniform control window %llu overruns domain %u "
                     "(EI %llu)",
                     (unsigned long long)uniformB, d,
                     (unsigned long long)ei[d]);
            g = uniformB;
        } else {
            g = ei[d];
            if (isCtrlDomain(d))
                g = std::min(g, ctrl_eff);
        }
        g = std::min(g, cap);
        if (g > ends[d]) {
            ++stats.grants;
            stats.grantedTicks += g - ends[d];
            stats.maxWindowTicks = std::max(stats.maxWindowTicks,
                                            g - ends[d]);
            ends[d] = g;
        }
    }
    uniformB = 0;
}

bool
ShardEngine::leaderBarrier(Runner &runner, Tick limit)
{
    ++stats.barriers;
    mesh.shardCollect();
    gatherHeld();

    Tick fknown = kTickNever;
    for (std::size_t d = 0; d < domains.size(); ++d)
        fknown = std::min(fknown, ends[d]);
    Tick tau0 = held.empty() ? kTickNever : held.front().tick;

    // Route pending sends -- but only below the earliest tick a
    // control-plane send could still materialize at: the sequential
    // schedule routes a control send before any data send of a
    // strictly later tick, and link reservations are order-sensitive.
    Tick route_bound = std::min(fknown, satAdd(lastCtrlLB, 1));
    route_bound = std::min(route_bound, satAdd(tau0, 1));
    mesh.shardRouteUpTo(route_bound, ends);
    mesh.shardEmitTrace(fknown);

    if (tau0 != kTickNever && fknown >= satAdd(tau0, 1)) {
        // The earliest held op's tick is final (every domain has run
        // past it): replay the tiling to its canonical barrier.
        consumeUpTo(tau0);
        const Tick barrier_tick = tiling.end();
        if (fknown >= barrier_tick) {
            mesh.shardRouteUpTo(barrier_tick, ends);
            executeBatch(barrier_tick);
            mesh.shardRouteNew(ends);
            uniformB = 0;
        } else {
            uniformB = barrier_tick;
        }
    } else if (fknown > 0) {
        consumeUpTo(std::min(fknown - 1, tau0));
    }

    // Forced flush points for the deferred routing queue. While a
    // control barrier is pending, every control domain is granted
    // exactly uniformB, so any deferred send bounding a control domain
    // below B must route first (computeGrants asserts EI >= B). A
    // frontier stalled at or past the earliest deferred arrival bound
    // means deferral itself is pinning some domain's window -- flush
    // to restore progress (a stall with the bound still ahead of the
    // frontier has some other cause, and the queue may keep
    // accumulating through it). And when the run is complete, drain
    // the queue so the trailing deliveries still execute (the
    // non-deferring schedule executed them before completion).
    const bool had_deferred = mesh.shardHasDeferred();
    if (had_deferred && (uniformB != 0 || runner.allDone())) {
        mesh.shardFlushDeferred(ends);
    } else if (had_deferred && fknown == lastFknown &&
               mesh.shardDeferredBound() <= fknown) {
        // Partial: route just the frontier-pinning prefix; the tail
        // keeps accumulating toward a parallel dispatch.
        mesh.shardFlushDeferredUpTo(fknown, ends);
    }
    lastFknown = fknown;

    // Stop check (identical decision to the sequential loop: nothing
    // left, or nothing left at or below the limit).
    for (std::size_t d = 0; d < domains.size(); ++d)
        nextTickV[d] = domains[d]->queue().nextTick();
    Tick pending_earliest = kTickNever;
    mesh.shardInboundBounds(minInbound, pending_earliest);
    Tick next = pending_earliest;
    for (std::size_t d = 0; d < domains.size(); ++d)
        next = std::min(next, nextTickV[d]);
    tau0 = held.empty() ? kTickNever : held.front().tick;
    next = std::min(next, tau0);
    if ((runner.allDone() && !had_deferred) || next == kTickNever ||
        next > limit) {
        panic_if(!held.empty(),
                 "stopping with %zu control ops still held",
                 held.size());
        mesh.shardEmitTraceAll();
        return true;
    }
    computeGrants(limit, pending_earliest);
    return false;
}

Runner::Runner(const SystemConfig &cfg, Workload &workload,
               std::uint32_t txns_per_core, Addr data_bytes)
    : _system(std::make_unique<System>(cfg, data_bytes)),
      _workload(workload),
      _txnsPerCore(txns_per_core),
      _issued(cfg.numCores, 0)
{
    _heap = std::make_unique<PersistentHeap>(
        kPageBytes,  // keep page 0 unmapped (null detection)
        _system->addressMap().logBase(), cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        _rngs.emplace_back(cfg.seed * 7919 + c);
    _latency.resize(std::size_t(cfg.tenantSlots()) * kTxnClasses);
}

// Out of line: ~ShardEngine needs the complete type.
Runner::~Runner() = default;

void
Runner::setUp()
{
    DirectAccessor direct(_system->archMem());
    _workload.init(direct, *_heap, _system->numCores());
    _system->makeDurableSnapshot();
    for (CoreId c = 0; c < _system->numCores(); ++c) {
        _system->core(c).setSource(this);
        _system->core(c).setTxnObserver(
            [this](CoreId, const Transaction &txn, Tick start, Tick end) {
                const std::uint32_t tenant = std::min<std::uint32_t>(
                    txn.tenant, _system->config().tenantSlots() - 1);
                const std::uint32_t cls = std::min<std::uint32_t>(
                    txn.txnClass, kTxnClasses - 1);
                _latency[tenant * kTxnClasses + cls].record(end - start);
            });
        _system->core(c).start();
    }
}

const LatencyHistogram &
Runner::latency(std::uint32_t tenant, std::uint32_t cls) const
{
    return _latency[std::size_t(tenant) * kTxnClasses +
                    std::min(cls, kTxnClasses - 1)];
}

bool
Runner::next(CoreId core, Transaction &txn)
{
    if (_issued[core] >= _txnsPerCore)
        return false;
    ++_issued[core];

    // Refill the core's buffer in place: the op and modified-line
    // vectors keep their capacity from the previous transaction.
    txn.id = _nextTxnId++;
    txn.tenant = 0;
    txn.txnClass = 0;
    txn.ops.clear();
    txn.modifiedLines.clear();
    RecordingAccessor rec(_system->archMem(), txn);
    _workload.runTransaction(core, rec, _rngs[core]);
    panic_if(rec.inAtomic(), "workload left the atomic region open");
    return true;
}

void
Runner::fetchNext(CoreId core, Transaction &txn, FetchDone done)
{
    if (!_system->sharded()) {
        done(next(core, txn));
        return;
    }
    // Per-tile domains: transaction generation mutates shared
    // functional state, so it is a control op -- leader-executed at
    // the barrier in canonical (tick, core) order, with the result
    // posted back into the requesting core's domain queue. The core
    // leaves its buffer alone until then, so the leader may fill it.
    SimDomain *d = SimDomain::current();
    panic_if(!d, "sharded transaction fetch outside a domain scope");
    d->submitControl(
        core, ctrlsub::kFetchTxn,
        InplaceCallback<64>([this, core, &txn,
                             done = std::move(done)]() mutable {
            EventQueue &q = _system
                                ->domain(_system->shardLayout()
                                             .coreDomain(core))
                                .queue();
            q.postIn(1, [fetched = next(core, txn),
                         done = std::move(done)]() mutable {
                done(fetched);
            });
        }));
}

bool
Runner::allDone() const
{
    return _system->coreTally().idle == _system->numCores();
}

std::uint64_t
Runner::committed() const
{
    return _system->coreTally().committed;
}

RunResult
Runner::collect(Tick start_tick, Tick end_tick) const
{
    const StatSet &stats = std::as_const(*_system).stats();
    RunResult r;
    r.txns = committed();
    r.cycles = end_tick - start_tick;
    const double secs =
        double(r.cycles) / _system->config().clockHz;
    r.txnPerSec = secs > 0 ? double(r.txns) / secs : 0.0;
    r.sqFullCycles = stats.sum("core", "sq_full_cycles");
    r.logWrites = stats.sum("logi", "log_writes");
    r.logEntries = stats.sum("logm", "entries") +
                   stats.sum("redo", "log_entries");
    r.sourceLogged = stats.sum("logm", "source_logged");
    r.memLogWrites = stats.sum("mc", "log_writes");
    r.memDataWrites = stats.sum("mc", "data_writes");
    r.memDemandReads = stats.sum("mc", "demand_reads");
    r.memLogReads = stats.sum("mc", "log_reads");
    r.dramHits = stats.sum("mc", "dram_hits");
    r.dramMisses = stats.sum("mc", "dram_misses");
    r.dramRowHits = stats.sum("mc", "row_hits");
    r.dramWbEvictions = stats.sum("mc", "wb_evictions");
    return r;
}

RunResult
Runner::run(Tick limit)
{
    const Tick start = _system->eventQueue().now();
    advanceTo(limit);
    fatal_if(!allDone(), "simulation hit the tick limit before "
                         "completing (deadlock or limit too small)");
    return collect(start, _system->eventQueue().now());
}

void
Runner::advanceTo(Tick limit)
{
    if (_system->sharded()) {
        runSharded(limit);
        return;
    }
    _system->eventQueue().runUntil([this] { return allDone(); }, limit);
}

void
Runner::runSharded(Tick limit)
{
    System &sys = *_system;
    const std::uint32_t workers = sys.shardLayout().workers;

    if (!_engine)
        _engine = std::make_unique<ShardEngine>(sys);
    ShardEngine &engine = *_engine;
    engine.beginCall(limit);

    Mesh &mesh = sys.mesh();

    // Published by the leader under the barrier's release; read by
    // workers after their matching acquire.
    enum class Mode : std::uint32_t { Run, Assist, Stop };
    struct Shared
    {
        Mode mode = Mode::Run;
        std::uint32_t sliceCount = 0;
        std::atomic<std::uint32_t> sliceIdx{0};
    } shared;

    WindowBarrier barrier(workers - 1);

    auto run_window = [&engine](std::vector<SimDomain *> &doms) {
        // Run each owned domain up to its individually granted window
        // end, with the domain published as the thread's execution
        // scope (the mesh and the control plane attribute sends/ops
        // to it).
        for (SimDomain *d : doms) {
            const Tick end = engine.ends[d->id()];
            if (end == 0)
                continue;
            SimDomain::Scope scope(d);
            d->queue().run(end - 1);
        }
    };
    auto run_slices = [&shared, &mesh] {
        std::uint32_t i;
        while ((i = shared.sliceIdx.fetch_add(
                    1, std::memory_order_relaxed)) < shared.sliceCount)
            mesh.shardRunSlice(i);
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (std::uint32_t w = 1; w < workers; ++w) {
        threads.emplace_back([&shared, &barrier, &engine, &run_window,
                              &run_slices, w] {
            for (;;) {
                barrier.workerArrive();
                switch (shared.mode) {
                  case Mode::Stop:
                    return;
                  case Mode::Assist:
                    run_slices();
                    break;
                  case Mode::Run:
                    run_window(engine.owned[w]);
                    break;
                }
            }
        });
    }

    // Region-parallel routing: once the mesh has accumulated enough
    // deferred sends, it hands per-quadrant route slices to the parked
    // workers through this hook and blocks until they finish. Every
    // thread pulls slices until exhausted -- segmented seam-crossers
    // hand their head-flit tick from slice to slice, so each slice
    // needs a thread behind it.
    mesh.shardSetAssist(
        [&shared, &barrier, &run_slices](std::uint32_t nslices) {
            shared.sliceCount = nslices;
            shared.sliceIdx.store(0, std::memory_order_relaxed);
            shared.mode = Mode::Assist;
            barrier.leaderRelease();
            run_slices();
            barrier.leaderWait();
        },
        workers);

    for (;;) {
        barrier.leaderWait();  // every domain parked: exclusive access
        if (engine.leaderBarrier(*this, limit)) {
            shared.mode = Mode::Stop;
            barrier.leaderRelease();
            break;
        }
        shared.mode = Mode::Run;
        barrier.leaderRelease();
        run_window(engine.owned[0]);
    }
    for (auto &t : threads)
        t.join();
    mesh.shardSetAssist(nullptr);
}

ShardRunStats
Runner::shardStats() const
{
    ShardRunStats s;
    if (_engine)
        s = _engine->stats;
    if (_system->sharded()) {
        const Mesh::ShardRouteStats &rs =
            _system->mesh().shardRouteStats();
        s.sends = rs.sends;
        s.sameWorkerSends = rs.sameWorkerSends;
        s.routedParallel = rs.routedParallel;
        s.routedSerial = rs.routedSerial;
    }
    return s;
}

Tick
Runner::runUntilCrash(double fraction, std::uint64_t crash_seed)
{
    fatal_if(_system->sharded(),
             "crash injection requires the sequential kernel "
             "(numShards = 0)");
    EventQueue &eq = _system->eventQueue();
    const std::uint64_t target = std::uint64_t(
        fraction * double(_txnsPerCore) * _system->numCores());

    eq.runUntil([this, target] { return committed() >= target; });

    // Jitter the exact crash point so sweeps hit different machine
    // states (mid-log-write, mid-flush, mid-truncate, ...).
    Random rng(crash_seed);
    const Cycles extra = rng.below(2000);
    const Tick deadline = eq.now() + extra;
    eq.run(deadline);

    _system->powerFail();
    return eq.now();
}

Tick
Runner::crashAt(Tick tick)
{
    fatal_if(_system->sharded(),
             "crash injection requires the sequential kernel "
             "(numShards = 0)");
    EventQueue &eq = _system->eventQueue();
    eq.run(tick);
    _system->powerFail();
    return eq.now();
}

Tick
Runner::runUntilDestageCrash(std::uint64_t crash_seed)
{
    fatal_if(_system->sharded(),
             "crash injection requires the sequential kernel "
             "(numShards = 0)");
    fatal_if(!_system->destage(0),
             "runUntilDestageCrash needs the flash tier (ssdTier)");
    EventQueue &eq = _system->eventQueue();

    eq.runUntil([this] {
        if (allDone())
            return true;
        const std::uint32_t mcs = _system->config().numMemCtrls;
        for (McId m = 0; m < mcs; ++m) {
            if (_system->destage(m)->destagesInFlight() > 0)
                return true;
        }
        return false;
    });

    // Jitter so sweeps land the crash in different destage phases
    // (snapshot programming, map write, promotion, clear).
    Random rng(crash_seed);
    const Tick deadline = eq.now() + rng.below(500);
    eq.run(deadline);

    _system->powerFail();
    return eq.now();
}

RecoveryReport
Runner::crashDuringRecovery(double fraction)
{
    fatal_if(fraction < 0.0 || fraction > 1.0,
             "recovery-crash fraction must be in [0, 1]");
    System &sys = *_system;
    const SystemConfig &cfg = sys.config();
    const bool redo = cfg.design == DesignKind::Redo;
    RecoveryManager undo_mgr(cfg, sys.addressMap());
    RedoRecovery redo_mgr(cfg, sys.addressMap());

    // Reference pass on a clone: counts the total record applications
    // a single uninterrupted recovery performs (so the fraction is of
    // real work, not a guess), without touching the durable image.
    DataImage probe = sys.nvmImage().clone();
    RecoveryOptions ref_opts;
    if (sys.ssd(0)) {
        // Flash tier: the reference pass must rehydrate too (from the
        // real, read-only flash images) or it undercounts the work of
        // a pass over destaged log buckets.
        ref_opts.flashImage = [&sys](McId m) -> const DataImage * {
            SsdDevice *ssd = sys.ssd(m);
            return ssd ? &ssd->flash() : nullptr;
        };
    }
    const RecoveryReport full = redo ? redo_mgr.recover(probe, ref_opts)
                                     : undo_mgr.recover(probe, ref_opts);

    // Interrupted pass on the real image: recovery itself crashes
    // after fraction * N applications, and -- when the fault model
    // says so -- the second failure tears recovery's own in-flight
    // writes at a seeded word boundary.
    RecoveryOptions opts;
    opts.maxApplications =
        std::uint32_t(double(full.recordsApplied) * fraction);
    opts.tornWrites = cfg.tornWrites;
    opts.faultSeed = cfg.faultSeed;
    if (redo)
        sys.recoverRedo(opts);
    else
        sys.recover(opts);

    // Restart: a fresh full pass. The log and ADR regions were only
    // read by the interrupted pass, so this pass sees the identical
    // valid-record set and rewrites every affected data line in full
    // -- newest-first undo is idempotent under double failure.
    return redo ? sys.recoverRedo() : sys.recover();
}

} // namespace atomsim
