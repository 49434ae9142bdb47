/**
 * @file
 * Core model: an in-order issue window over a memory-op stream with a
 * 32-entry store queue.
 *
 * The core pulls transactions from a TransactionSource (timing-directed
 * dispatch) and executes their ops: loads block; stores issue into the
 * StoreQueue and retire asynchronously; Atomic_Begin / Atomic_End call
 * into the active design's hooks (AUS acquisition, commit protocol).
 * See DESIGN.md for how this substitutes for the paper's OoO core.
 */

#ifndef ATOMSIM_CPU_CORE_HH
#define ATOMSIM_CPU_CORE_HH

#include <atomic>
#include <cstdint>
#include <functional>

#include "cpu/mem_op.hh"
#include "cpu/store_queue.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace atomsim
{

class L1Cache;

/**
 * Supplies transactions to a core at dispatch time. Each core owns one
 * Transaction buffer and hands it to every fetch, so a source refills
 * the same op and modified-line vectors transaction after transaction
 * (their capacity is kept; steady-state generation allocates nothing).
 */
class TransactionSource
{
  public:
    /** Continuation of a fetch: true when the core's buffer holds the
     * next transaction, false when the source is exhausted. */
    using FetchDone = InplaceFunction<void(bool), 16>;

    virtual ~TransactionSource() = default;

    /**
     * Fill @p txn (its previous contents are discarded) with the next
     * transaction for @p core; false when done.
     */
    virtual bool next(CoreId core, Transaction &txn) = 0;

    /**
     * Asynchronous fetch into @p txn: @p done receives next()'s
     * result. Default: inline. Sharded runners override this to route
     * the (functional, shared-state) workload dispatch through the
     * barrier control plane so per-tile domains never race on it; the
     * core does not touch @p txn until @p done runs.
     */
    virtual void
    fetchNext(CoreId core, Transaction &txn, FetchDone done)
    {
        done(next(core, txn));
    }
};

/**
 * Design-specific actions at atomic-region boundaries. Implemented by
 * designs::DesignContext.
 */
class DesignHooks
{
  public:
    /** Hook completion (the core's capture: a pointer and an op
     * index). */
    using Done = InplaceCallback<32>;

    virtual ~DesignHooks() = default;

    /**
     * Atomic_Begin: acquire an AUS (stalling on structural overflow)
     * and arm logging for @p core.
     */
    virtual void atomicBegin(CoreId core, Done done) = 0;

    /**
     * Atomic_End commit protocol: for undo designs, durably flush
     * @p modified_lines then truncate the log; for REDO, drain the
     * combine buffer and persist the commit record. @p done marks the
     * transaction durable.
     */
    virtual void atomicEnd(CoreId core,
                           const std::vector<Addr> &modified_lines,
                           Done done) = 0;
};

/**
 * Global transaction ticket: at most one core holds it, waiters are
 * granted strictly in arrival order. This is the timing-level stand-in
 * for the lock-based isolation ATOM requires from software: workloads
 * whose atomic regions mutate SHARED structures (TPC-C's B+-trees and
 * district rows) are only crash-consistent when concurrent regions
 * never overlap on a line -- rolling back one core's incomplete region
 * would otherwise restore pre-images over another core's committed
 * writes.
 *
 * The ticket spans the WHOLE transaction (fetch through completion),
 * not just the Atomic_Begin..Atomic_End window. A transaction's store
 * payloads are computed functionally at fetch, so fetch order is the
 * order shared-structure mutations compose in; serializing only the
 * region would let a core whose pre-region loads finish early commit
 * ahead of a functionally-earlier peer, and rolling that peer back
 * after a crash leaves durable writes that structurally assume the
 * rolled-back update. Opt-in via
 * SystemConfig::serializeAtomicRegions (sequential kernel only); the
 * per-core micro workloads never need it, so default timing -- and
 * every pinned golden -- is unchanged.
 */
class RegionSerializer
{
  public:
    using Granted = InplaceCallback<16>;

    /** Call @p granted once the ticket is exclusively held. Runs
     * inline when the ticket is free. */
    void
    acquire(Granted granted)
    {
        if (!_held) {
            _held = true;
            granted();
            return;
        }
        Waiter *w = _pool.acquire();
        w->granted = std::move(granted);
        _waiters.push(w);
    }

    /** Hand the ticket to the oldest waiter (inline), or free it. */
    void
    release()
    {
        if (_waiters.empty()) {
            _held = false;
            return;
        }
        Waiter *w = _waiters.pop();
        Granted granted = std::move(w->granted);
        _pool.release(w);
        granted();
    }

  private:
    struct Waiter
    {
        Waiter *next = nullptr;
        Granted granted;
    };

    bool _held = false;
    FreeListPool<Waiter> _pool;
    NodeFifo<Waiter> _waiters;
};

/**
 * Machine-wide core progress, bumped by the cores themselves so a run
 * loop can test "every core idle" or "N commits" in O(1) instead of
 * scanning the cores before every event. Atomic because sharded runs
 * bump it from per-domain worker threads.
 */
struct CoreTally
{
    std::atomic<std::uint32_t> idle{0};       //!< cores gone idle
    std::atomic<std::uint64_t> committed{0};  //!< transactions committed
};

/** One simulated core. */
class Core
{
  public:
    Core(CoreId id, EventQueue &eq, const SystemConfig &cfg, L1Cache &l1,
         StatSet &stats);

    /**
     * Completion hook for latency measurement: fires once per
     * transaction when its last op retires, with the dispatch tick
     * (transaction received from the source) and the completion tick.
     * Runs on the core's own domain queue, so what it observes is
     * shard-invariant. Purely observational -- installing one never
     * changes simulated behavior.
     */
    using TxnObserver = std::function<void(
        CoreId, const Transaction &, Tick start, Tick end)>;

    void setSource(TransactionSource *src) { _source = src; }
    void setHooks(DesignHooks *hooks) { _hooks = hooks; }
    void setTxnObserver(TxnObserver obs) { _observer = std::move(obs); }
    /** Gate each whole transaction (fetch through completion) on the
     * shared ticket (see RegionSerializer; nullptr = default ungated
     * timing). */
    void setRegionSerializer(RegionSerializer *s) { _regionSer = s; }
    /** Progress tally this core bumps on idle and on commit (nullptr:
     * none). */
    void setTally(CoreTally *t) { _tally = t; }

    /** Begin pulling and executing transactions. */
    void start();

    /** True once the source is exhausted and all work retired. */
    bool done() const { return _done; }

    CoreId id() const { return _id; }
    StoreQueue &storeQueue() { return _sq; }

    std::uint64_t committed() const { return _statCommitted.value(); }

    /**
     * Lower bound on the tick of this core's next control-plane
     * submission (Atomic_Begin/End hook call or transaction fetch).
     *
     * The in-order core inserts a computeGap between consecutive ops,
     * so from the currently executing op the next transaction-boundary
     * op is at least (ops until boundary) x computeGap away. The bound
     * is updated at op issue and goes kTickNever once the source is
     * exhausted. It may be stale-low while the core idles inside a
     * window (the sharded engine maxes it with live queue bounds); it
     * is never higher than the true next submission tick.
     */
    Tick ctrlLowerBound() const { return _ctrlLB; }

  private:
    void nextTransaction();
    void fetchTransaction();
    void execOp(std::size_t idx);
    void opDone(std::size_t idx);
    void updateCtrlBound(std::size_t idx);

    CoreId _id;
    EventQueue &_eq;
    const SystemConfig &_cfg;
    L1Cache &_l1;
    StoreQueue _sq;

    TransactionSource *_source = nullptr;
    DesignHooks *_hooks = nullptr;
    RegionSerializer *_regionSer = nullptr;
    CoreTally *_tally = nullptr;

    /** The running transaction: one buffer, refilled by every fetch. */
    Transaction _txn;
    bool _done = false;
    TxnObserver _observer;
    Tick _txnStart = 0;  //!< dispatch tick of the running transaction

    Tick _ctrlLB = 0;             //!< see ctrlLowerBound()
    std::size_t _ctrlNextIdx = 0; //!< cached next boundary-op index

    // Recurring kernel events (one of each pending at most; the core
    // is in-order, so op completion and the inter-op gap alternate).
    TickEvent _nextTxnEvent;  //!< pull the next transaction
    TickEvent _opDoneEvent;   //!< completion of the op at _opDoneIdx
    TickEvent _execOpEvent;   //!< start of the op at _execIdx
    std::size_t _opDoneIdx = 0;
    std::size_t _execIdx = 0;

    Counter &_statCommitted;
    Counter &_statOps;
    Counter &_statLoadStallCycles;
};

} // namespace atomsim

#endif // ATOMSIM_CPU_CORE_HH
