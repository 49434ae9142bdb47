/**
 * @file
 * Directory state for the banked shared L2.
 *
 * Each L2 tile is the home node for the lines that map to it and keeps,
 * per resident line, the owning L1 (Modified/Exclusive holder) and a
 * sharer bitmask. A per-line busy flag serializes coherence
 * transactions; queued requests run in arrival order.
 *
 * Transaction waiters are fixed-capacity continuations in pooled
 * intrusive nodes (no allocation in steady state), and the per-line
 * control blocks are cached across acquire/release cycles so contending
 * on a hot line does not churn the map. The idle cache is capped
 * (setIdleCap, scaled with the core count via idleCapFor): past it,
 * released control blocks are erased instead, trading per-transaction
 * map churn on cold lines for bounded memory on huge footprints.
 */

#ifndef ATOMSIM_CACHE_DIRECTORY_HH
#define ATOMSIM_CACHE_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/addr_table.hh"
#include "sim/callback.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Sentinel: no owning core. */
constexpr CoreId kNoCore = ~CoreId(0);

/**
 * A set of sharing cores, scaled past 64.
 *
 * The historical representation was a bare uint64_t indexed by core
 * id, which shifts out of range (and would alias invalidations) on the
 * 256-/1024-core presets. Word 0 stays inline, so machines up to 64
 * cores keep the allocation-free fast path bit-for-bit; larger core
 * ids spill into heap words on first set().
 */
class SharerSet
{
  public:
    void
    set(CoreId core)
    {
        if (core < 64) {
            _w0 |= std::uint64_t(1) << core;
            return;
        }
        const std::size_t w = core / 64;
        if (_hi.size() < w)
            _hi.resize(w, 0);
        _hi[w - 1] |= std::uint64_t(1) << (core % 64);
    }

    /** Remove @p core (no-op when absent). */
    void
    clear(CoreId core)
    {
        if (core < 64) {
            _w0 &= ~(std::uint64_t(1) << core);
            return;
        }
        const std::size_t w = core / 64;
        if (w <= _hi.size())
            _hi[w - 1] &= ~(std::uint64_t(1) << (core % 64));
    }

    bool
    test(CoreId core) const
    {
        if (core < 64)
            return (_w0 >> core) & 1;
        const std::size_t w = core / 64;
        return w <= _hi.size() && ((_hi[w - 1] >> (core % 64)) & 1);
    }

    /** Empty the set (spilled capacity is kept for reuse). */
    void
    reset()
    {
        _w0 = 0;
        std::fill(_hi.begin(), _hi.end(), 0);
    }

    bool
    none() const
    {
        if (_w0)
            return false;
        for (std::uint64_t w : _hi)
            if (w)
                return false;
        return true;
    }

    std::uint32_t
    count() const
    {
        std::uint32_t n = std::uint32_t(__builtin_popcountll(_w0));
        for (std::uint64_t w : _hi)
            n += std::uint32_t(__builtin_popcountll(w));
        return n;
    }

    /** True when the set minus @p core is nonempty. */
    bool
    anyBut(CoreId core) const
    {
        return count() > (test(core) ? 1u : 0u);
    }

  private:
    std::uint64_t _w0 = 0;
    std::vector<std::uint64_t> _hi;  //!< words for cores >= 64
};

/** Directory entry for one line homed at a tile. */
struct DirEntry
{
    /** L1 holding the line Exclusive/Modified, or kNoCore. */
    CoreId owner = kNoCore;
    /** Cores that may hold the line Shared (may be stale:
     * clean lines drop silently; spurious invalidations are no-ops). */
    SharerSet sharers;

    bool
    anySharerBut(CoreId core) const
    {
        return sharers.anyBut(core);
    }
};

/** Per-line transaction serialization + directory entries. */
class Directory
{
  public:
    /** Inline capacity of a queued transaction: the flush handler's
     * this + addr + flags + a 64-byte line. */
    static constexpr std::size_t kTxnBytes = 104;
    using Txn = InplaceCallback<kTxnBytes>;

    /** Default idle-control-block cache cap: covers the hot working
     * set of the paper's 32-core shapes. Larger machines must scale
     * the cap with setIdleCap() -- at 256+ tiles a fixed 64K cap
     * thrashes (every release erases, every acquire re-inserts). */
    static constexpr std::size_t kMaxIdleCtl = 64 * 1024;

    /** Per-core idle-block budget used by idleCapFor(): at 32 cores it
     * reproduces kMaxIdleCtl exactly, so the paper's shapes keep their
     * historical behavior. */
    static constexpr std::size_t kIdleCtlPerCore = 2048;

    /** Idle-cache cap for a machine with @p num_cores cores. */
    static constexpr std::size_t
    idleCapFor(std::uint32_t num_cores)
    {
        const std::size_t scaled = std::size_t(num_cores) * kIdleCtlPerCore;
        return scaled > kMaxIdleCtl ? scaled : kMaxIdleCtl;
    }

    /**
     * Publish occupancy stats: @p live_hw gets the live control-block
     * high-water mark ("dirN.ctrl_blocks_live"; live = busy +
     * cached-idle blocks, bounded near the idle cap), and @p evictions
     * (optional) counts idle blocks dropped because the cache was at
     * its cap ("dirN.ctrl_evictions") -- the thrash signal.
     */
    void
    attachStats(Counter *live_hw, Counter *evictions = nullptr)
    {
        _liveHw = live_hw;
        _evictions = evictions;
    }

    /** Override the idle-cache cap (defaults to kMaxIdleCtl). */
    void setIdleCap(std::size_t cap) { _idleCap = cap; }

    /** Current idle-cache cap. */
    std::size_t idleCap() const { return _idleCap; }

    /** Current live control blocks (tests). */
    std::size_t liveCtl() const { return _ctl.size(); }

    /** Directory entry for @p line_addr (created on demand). The
     * reference is valid until the next entry() or erase() (the
     * entries live in a flat table). */
    DirEntry &entry(Addr line_addr);

    /** Drop the entry (line evicted from L2). */
    void erase(Addr line_addr);

    /**
     * Run @p txn when the line's busy slot frees (immediately if free).
     * The transaction must call release() exactly once when done.
     */
    void acquire(Addr line_addr, Txn txn);

    /** Finish the current transaction; starts the next queued one. */
    void release(Addr line_addr);

    /** True if a transaction is active on the line. */
    bool busy(Addr line_addr) const;

    /** Power failure: all volatile directory state vanishes. */
    void clear();

  private:
    struct Waiter
    {
        Waiter *next = nullptr;
        Txn fn;
    };

    struct LineCtl
    {
        bool busy = false;
        Waiter *head = nullptr;
        Waiter *tail = nullptr;
    };

    void releaseWaiter(Waiter *w);

    AddrTable<DirEntry> _entries;
    /** Cached across acquire/release (busy=false when idle) so hot
     * lines skip the table insert; bounded by _idleCap. */
    AddrTable<LineCtl> _ctl;
    std::size_t _idleCtl = 0;
    std::size_t _idleCap = kMaxIdleCtl;
    Counter *_liveHw = nullptr;  //!< optional occupancy high-water
    Counter *_evictions = nullptr;  //!< optional at-cap drop count
    std::size_t _liveHwSeen = 0;

    FreeListPool<Waiter> _pool;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_DIRECTORY_HH
