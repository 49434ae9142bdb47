/**
 * @file
 * Design layer: AUS slot pool and per-design atomic-region hooks.
 *
 * The five evaluated designs (Section V) share the same substrate and
 * differ only in the hooks installed here:
 *
 *  - BASE      undo log, ack-on-persist (logging in the critical path)
 *  - ATOM      undo log with posted log writes
 *  - ATOM-OPT  posted + source logging
 *  - NON-ATOMIC no logging (upper bound); still flushes at commit
 *  - REDO      hardware-assisted redo logging (Doshi et al.)
 */

#ifndef ATOMSIM_DESIGNS_DESIGN_HH
#define ATOMSIM_DESIGNS_DESIGN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

class L1Cache;
class LogM;
class RedoEngine;

/**
 * Log-placement policy of the hybrid memory system, as it applies to
 * the configured design: where ATOM's log region lands relative to the
 * DRAM tier. "direct" = log pages bypass the DRAM cache (straight to
 * NVM); "dram-cached" = the log region sits behind the cache (log
 * *writes* still persist write-through -- only log reads, i.e. the
 * REDO backend's replay traffic, gain DRAM locality); "flat-nvm" =
 * no DRAM tier at all. bench/hybrid_sweep.cc labels its design points
 * with this.
 */
const char *logPlacementName(const SystemConfig &cfg);

/**
 * Pool of AUS slots shared by the cores.
 *
 * The paper supports one atomic update per core (32 AUS); when fewer
 * slots than cores are configured, Atomic_Begin stalls until a slot
 * frees -- a structural overflow, which cannot deadlock because the
 * waiting update holds no resources (Section IV-E).
 */
class AusPool
{
  public:
    /** Grant continuation: receives the slot id. Sized for the
     * design layer's capture (a pointer, a core and a hook Done). */
    using Granted = InplaceFunction<void(std::uint32_t), 64>;

    AusPool(EventQueue &eq, std::uint32_t slots, std::uint32_t cores,
            StatSet &stats);

    /** Acquire a slot for @p core; @p granted runs with the slot id. */
    void acquire(CoreId core, Granted granted);

    /** Release @p core's slot (after truncation completes). */
    void release(CoreId core);

    /** Slot of @p core, or -1 when it has no active atomic update. */
    int slotOf(CoreId core) const;

    std::uint64_t
    structuralStallCycles() const
    {
        return _statStallCycles.value();
    }

    /** Per-core tenant acquire counters ("tenantN.aus_acquires");
     * empty (the default) disables per-tenant accounting. */
    void
    setTenantCounters(std::vector<Counter *> per_core)
    {
        _tenantAcquires = std::move(per_core);
    }

  private:
    /** A core stalled on structural overflow (pooled). */
    struct Waiter
    {
        Waiter *next = nullptr;
        Tick since = 0;
        CoreId core = 0;
        Granted granted;
    };

    EventQueue &_eq;
    std::vector<int> _slotOf;        //!< per core; -1 = none
    std::vector<bool> _slotBusy;
    FreeListPool<Waiter> _waiterPool;
    NodeFifo<Waiter> _waiters;

    Counter &_statStallCycles;
    Counter &_statAcquires;
    std::vector<Counter *> _tenantAcquires;  //!< per core; may be empty
};

/**
 * DesignHooks implementation shared by all designs; behavior branches
 * on the configured DesignKind.
 */
class DesignContext : public DesignHooks
{
  public:
    DesignContext(EventQueue &eq, const SystemConfig &cfg,
                  std::vector<std::unique_ptr<LogM>> &logms,
                  const std::vector<L1Cache *> &l1s, AusPool &pool,
                  RedoEngine *redo, StatSet &stats);

    void atomicBegin(CoreId core, Done done) override;
    void atomicEnd(CoreId core, const std::vector<Addr> &modified_lines,
                   Done done) override;

    /**
     * Sharded runs: AUS acquisition and log-manager arm/truncate are
     * zero-latency cross-domain register operations, so they cannot
     * run mid-window -- they are queued as control ops and executed by
     * the barrier leader in canonical (tick, core) order. @p domains
     * is the full domain list; @p layout maps cores/MCs to domains.
     */
    void setSharded(std::vector<SimDomain *> domains,
                    const ShardLayout &layout);

    /**
     * True while any core's commit-time truncate is waiting on MC
     * completions (sharded mode). The completions arrive as control
     * submissions from MC-domain events, so while one is in flight the
     * sharded engine must bound the control plane by the MC domains'
     * own progress, not just the cores'.
     */
    bool
    truncInFlight() const
    {
        for (const CommitState &c : _commit)
            if (c.truncLeft != 0)
                return true;
        return false;
    }

    /** Per-core tenant commit counters ("tenantN.commits"); empty (the
     * default) disables per-tenant accounting. */
    void
    setTenantCounters(std::vector<Counter *> per_core)
    {
        _tenantCommits = std::move(per_core);
    }

    /** Eventual durability: commits acked from the volatile staging
     * window whose truncation is still in flight. A crash now rolls
     * exactly these commits back -- the policy's recovery-point loss. */
    std::uint32_t stagedCommits() const { return _stagedCommits; }

    /** High-water mark of staging-window occupancy (bench gate: must
     * stay <= SystemConfig::ssdStagingWindow). */
    std::uint32_t stagedPeak() const { return _stagedPeak; }

  private:
    /** Count a commit for @p core (global + per-tenant). */
    void
    countCommit(CoreId core)
    {
        _statCommits.inc();
        if (!_tenantCommits.empty())
            _tenantCommits[core]->inc();
    }

    /**
     * Per-core commit state. A core runs at most one commit at a time
     * (the commit's Done resumes it; under eventual durability its
     * next Atomic_Begin parks until the previous truncation released
     * the AUS), so each core reuses one record and the commit path
     * allocates nothing.
     */
    struct CommitState
    {
        /** The commit's completion, held across the flush loop. */
        Done done;
        // --- flush loop (bounded issue window) -----------------------
        std::vector<Addr> lines;  //!< capacity kept across commits
        std::size_t next = 0;
        std::size_t pending = 0;
        Done flushed;
        // --- truncation at every controller --------------------------
        std::uint32_t truncLeft = 0;  //!< controllers still truncating
        Done truncated;
        // --- eventual durability (sequential kernel only) ------------
        /** An early-acked commit's truncation still runs, so the AUS
         * slot is not yet released and a new begin must park. */
        bool inFlight = false;
        Done parkedBegin;
    };

    /** Leader-executed: acquire an AUS + arm every LogM. */
    void shardedBegin(CoreId core, Done done);

    /** Leader-executed: truncate @p core's AUS at every controller;
     * per-MC completions hop back through the control plane, then
     * the commit's Done resumes the core. */
    void shardedTruncate(CoreId core);

    /** Undo designs, after the commit flushes: truncate (sharded,
     * staged or synchronous) and complete the commit. */
    void afterFlush(CoreId core);

    /** Flush @p lines durably with a bounded issue window. */
    void flushLines(CoreId core, const std::vector<Addr> &lines,
                    Done done);

    /** Issue flushes up to the window (the L1 MSHR count). */
    void pumpFlushes(CoreId core);

    /** Truncate @p core's AUS at every controller, then release it. */
    void truncateAll(CoreId core, Done done);

    /** One controller finished truncating @p core's AUS. */
    void truncateDone(CoreId core);

    /** The queue of the domain executing on this thread (sharded), or
     * the machine queue (sequential): where an inline hook running in
     * a core's context must post its continuation. */
    EventQueue &hereQueue();

    /** The queue @p core's continuations belong to (leader context:
     * the core's domain queue when sharded). */
    EventQueue &coreQueue(CoreId core);

    EventQueue &_eq;
    const SystemConfig &_cfg;
    std::vector<std::unique_ptr<LogM>> &_logms;
    const std::vector<L1Cache *> &_l1s;
    AusPool &_pool;
    RedoEngine *_redo;

    // --- sharded-mode state (leader-only) ----------------------------
    std::vector<SimDomain *> _domains;       //!< empty when sequential
    ShardLayout _layout;

    std::vector<CommitState> _commit;        //!< per core

    std::vector<Counter *> _tenantCommits;   //!< per core; may be empty

    // --- eventual durability (sequential kernel only; the staging
    // window is cross-domain state, so config validation rejects the
    // policy under sharding) ------------------------------------------
    std::uint32_t _stagedCommits = 0;
    std::uint32_t _stagedPeak = 0;

    Counter &_statFlushes;
    Counter &_statCommits;
    Counter &_statStagedAcks;
};

} // namespace atomsim

#endif // ATOMSIM_DESIGNS_DESIGN_HH
