#include "designs/design.hh"

#include "atom/logm.hh"
#include "cache/l1_cache.hh"
#include "designs/redo_engine.hh"
#include "sim/logging.hh"

namespace atomsim
{

const char *
logPlacementName(const SystemConfig &cfg)
{
    switch (cfg.hybridMode) {
      case HybridMode::NvmOnly:
        return "flat-nvm";
      case HybridMode::MemoryMode:
        return "dram-cached";
      case HybridMode::AppDirect:
        return cfg.appDirectRegion == AppDirectRegion::LogRegion
                   ? "direct"
                   : "dram-cached";
    }
    return "?";
}

AusPool::AusPool(EventQueue &eq, std::uint32_t slots, std::uint32_t cores,
                 StatSet &stats)
    : _eq(eq),
      _slotOf(cores, -1),
      _slotBusy(slots, false),
      _statStallCycles(stats.counter("aus", "structural_stall_cycles")),
      _statAcquires(stats.counter("aus", "acquires"))
{
}

void
AusPool::acquire(CoreId core, Granted granted)
{
    panic_if(_slotOf[core] >= 0, "core %u already holds an AUS", core);
    for (std::uint32_t s = 0; s < _slotBusy.size(); ++s) {
        if (!_slotBusy[s]) {
            _slotBusy[s] = true;
            _slotOf[core] = int(s);
            _statAcquires.inc();
            if (!_tenantAcquires.empty())
                _tenantAcquires[core]->inc();
            granted(s);
            return;
        }
    }
    // Structural overflow: wait for a slot (Section IV-E).
    Waiter *w = _waiterPool.acquire();
    w->since = _eq.now();
    w->core = core;
    w->granted = std::move(granted);
    _waiters.push(w);
}

void
AusPool::release(CoreId core)
{
    const int slot = _slotOf[core];
    panic_if(slot < 0, "core %u releases no AUS", core);
    _slotOf[core] = -1;

    if (!_waiters.empty()) {
        Waiter *w = _waiters.pop();
        _statStallCycles.inc(_eq.now() - w->since);
        const CoreId wcore = w->core;
        Granted granted = std::move(w->granted);
        _waiterPool.release(w);
        _slotOf[wcore] = slot;
        _statAcquires.inc();
        if (!_tenantAcquires.empty())
            _tenantAcquires[wcore]->inc();
        granted(std::uint32_t(slot));
        return;
    }
    _slotBusy[std::size_t(slot)] = false;
}

int
AusPool::slotOf(CoreId core) const
{
    return _slotOf[core];
}

DesignContext::DesignContext(EventQueue &eq, const SystemConfig &cfg,
                             std::vector<std::unique_ptr<LogM>> &logms,
                             const std::vector<L1Cache *> &l1s,
                             AusPool &pool,
                             RedoEngine *redo, StatSet &stats)
    : _eq(eq),
      _cfg(cfg),
      _logms(logms),
      _l1s(l1s),
      _pool(pool),
      _redo(redo),
      _commit(cfg.numCores),
      _statFlushes(stats.counter("design", "commit_flushes")),
      _statCommits(stats.counter("design", "commits")),
      _statStagedAcks(stats.counter("design", "staged_acks"))
{
}

void
DesignContext::setSharded(std::vector<SimDomain *> domains,
                          const ShardLayout &layout)
{
    _domains = std::move(domains);
    _layout = layout;
}

EventQueue &
DesignContext::hereQueue()
{
    SimDomain *d = SimDomain::current();
    return d ? d->queue() : _eq;
}

EventQueue &
DesignContext::coreQueue(CoreId core)
{
    return _domains.empty()
               ? _eq
               : _domains[_layout.coreDomain(core)]->queue();
}

void
DesignContext::shardedBegin(CoreId core, Done done)
{
    _pool.acquire(core, [this, core, done = std::move(done)](
                            std::uint32_t slot) mutable {
        // Leader context: every LogM's domain is parked at the
        // barrier, so arming the AUS registers directly is safe. The
        // continuation resumes the core, so it posts into the core's
        // own domain queue.
        for (auto &logm : _logms)
            logm->beginUpdate(slot);
        coreQueue(core).postIn(1, std::move(done));
    });
}

void
DesignContext::shardedTruncate(CoreId core)
{
    const int slot = _pool.slotOf(core);
    panic_if(slot < 0, "truncate without an AUS (core %u)", core);
    _commit[core].truncLeft = std::uint32_t(_logms.size());

    for (std::uint32_t m = 0; m < _logms.size(); ++m) {
        // Execute each LogM's truncate in its own domain scope: the
        // completion (inline when quiesced, or later on the MC's
        // worker) hops back to the control plane under the canonical
        // key (tick, core, mc).
        SimDomain::Scope scope(_domains[_layout.mcDomain(m)]);
        _logms[m]->truncate(std::uint32_t(slot), [this, core, m] {
            SimDomain::current()->submitControl(
                core, m, InplaceCallback<64>([this, core] {
                    CommitState &c = _commit[core];
                    if (--c.truncLeft != 0)
                        return;
                    _pool.release(core);
                    countCommit(core);
                    coreQueue(core).postIn(1, std::move(c.done));
                }));
        });
    }
}

void
DesignContext::atomicBegin(CoreId core, Done done)
{
    switch (_cfg.design) {
      case DesignKind::NonAtomic:
        hereQueue().postIn(1, std::move(done));
        return;

      case DesignKind::Redo:
        _redo->beginTxn(core);
        _eq.postIn(1, std::move(done));
        return;

      case DesignKind::Base:
      case DesignKind::Atom:
      case DesignKind::AtomOpt:
        if (!_domains.empty()) {
            SimDomain::current()->submitControl(
                core, ctrlsub::kBegin,
                InplaceCallback<64>(
                    [this, core, done = std::move(done)]() mutable {
                        shardedBegin(core, std::move(done));
                    }));
            return;
        }
        if (_commit[core].inFlight) {
            // Eventual durability: this core's previous commit was
            // acked from the staging window and its truncation is
            // still running, so the AUS slot is not yet released.
            // Park the begin; it resumes when the truncation lands.
            panic_if(bool(_commit[core].parkedBegin),
                     "core %u double-parked an atomicBegin", core);
            _commit[core].parkedBegin = std::move(done);
            return;
        }
        _pool.acquire(core, [this, done = std::move(done)](
                                std::uint32_t slot) mutable {
            // Arm the AUS at every controller: entries of one update
            // may land behind any of them (data placement decides).
            for (auto &logm : _logms)
                logm->beginUpdate(slot);
            _eq.postIn(1, std::move(done));
        });
        return;
    }
    panic("unknown design");
}

void
DesignContext::flushLines(CoreId core, const std::vector<Addr> &lines,
                          Done done)
{
    if (lines.empty()) {
        done();
        return;
    }
    // Flush with a bounded issue window (the L1 MSHR count), like a
    // clwb loop with limited outstanding misses.
    CommitState &c = _commit[core];
    panic_if(c.pending != 0 || bool(c.flushed),
             "core %u started overlapping commit flushes", core);
    c.lines.assign(lines.begin(), lines.end());
    c.next = 0;
    c.flushed = std::move(done);
    pumpFlushes(core);
}

void
DesignContext::pumpFlushes(CoreId core)
{
    CommitState &c = _commit[core];
    while (c.next < c.lines.size() && c.pending < _cfg.mshrs) {
        const Addr line = c.lines[c.next++];
        ++c.pending;
        _statFlushes.inc();
        _l1s[core]->flush(line, [this, core] {
            CommitState &cs = _commit[core];
            --cs.pending;
            if (cs.next < cs.lines.size()) {
                pumpFlushes(core);
            } else if (cs.pending == 0) {
                Done flushed = std::move(cs.flushed);
                flushed();
            }
        });
    }
}

void
DesignContext::truncateAll(CoreId core, Done done)
{
    const int slot = _pool.slotOf(core);
    panic_if(slot < 0, "truncate without an AUS (core %u)", core);

    CommitState &c = _commit[core];
    c.truncLeft = std::uint32_t(_logms.size());
    c.truncated = std::move(done);
    for (auto &logm : _logms)
        logm->truncate(std::uint32_t(slot),
                       [this, core] { truncateDone(core); });
}

void
DesignContext::truncateDone(CoreId core)
{
    CommitState &c = _commit[core];
    if (--c.truncLeft != 0)
        return;
    _pool.release(core);
    countCommit(core);
    Done truncated = std::move(c.truncated);
    truncated();
}

void
DesignContext::afterFlush(CoreId core)
{
    CommitState &c = _commit[core];
    if (!_domains.empty()) {
        // Flushes completed on the cache-complex domain; hand the
        // cross-domain truncate to the barrier leader.
        SimDomain::current()->submitControl(
            core, ctrlsub::kTruncate,
            InplaceCallback<64>([this, core] { shardedTruncate(core); }));
        return;
    }
    if (_cfg.durabilityPolicy == DurabilityPolicy::Eventual &&
        _stagedCommits < _cfg.ssdStagingWindow) {
        // Eventual durability: ack from the volatile staging window.
        // Truncation (and with it genuine durability and the AUS
        // release) continues in the background; a crash before it
        // lands rolls this commit back, so the recovery-point loss is
        // bounded by the window size. A full window falls through to
        // the synchronous path.
        ++_stagedCommits;
        if (_stagedCommits > _stagedPeak)
            _stagedPeak = _stagedCommits;
        _statStagedAcks.inc();
        c.inFlight = true;
        _eq.postIn(1, std::move(c.done));
        truncateAll(core, [this, core] {
            --_stagedCommits;
            CommitState &cs = _commit[core];
            cs.inFlight = false;
            if (cs.parkedBegin) {
                Done parked = std::move(cs.parkedBegin);
                atomicBegin(core, std::move(parked));
            }
        });
        return;
    }
    truncateAll(core, std::move(c.done));
}

void
DesignContext::atomicEnd(CoreId core,
                         const std::vector<Addr> &modified_lines,
                         Done done)
{
    switch (_cfg.design) {
      case DesignKind::NonAtomic:
        // Upper bound: still writes all modified data back to NVM on
        // completion of the update (Section V), just without logging.
        flushLines(core, modified_lines, std::move(done));
        return;

      case DesignKind::Redo:
        // No data flushes: the commit record makes the update durable;
        // the backend applies the log in place in the background.
        _redo->commitTxn(core, std::move(done));
        return;

      case DesignKind::Base:
      case DesignKind::Atom:
      case DesignKind::AtomOpt:
        _commit[core].done = std::move(done);
        flushLines(core, modified_lines,
                   [this, core] { afterFlush(core); });
        return;
    }
    panic("unknown design");
}

} // namespace atomsim
