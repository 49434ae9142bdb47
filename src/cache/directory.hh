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
#include "sim/logging.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

/** Sentinel: no owning core. */
constexpr CoreId kNoCore = ~CoreId(0);

/**
 * The spill words of one directory's SharerSets: fixed-size blocks
 * holding the sharer bits of core ids >= 64, recycled through an
 * intrusive free list (a free block's first word links the next), so
 * sets that spill and drain in steady state allocate nothing. Blocks
 * are named by index; the backing store grows by doubling to the
 * high-water number of spilled sets and never shrinks.
 */
class SharerSpill
{
  public:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    /** Blocks sized for core ids below @p num_cores. */
    explicit SharerSpill(std::uint32_t num_cores)
        : _words(num_cores > 64 ? (num_cores - 1) / 64 : 0)
    {
    }

    /** Words per block (core ids 64 .. 64 * (words + 1) - 1). */
    std::uint32_t words() const { return _words; }

    /** A zeroed block. */
    std::uint32_t
    acquire()
    {
        std::uint32_t blk;
        if (_free != kNone) {
            blk = _free;
            _free = std::uint32_t(block(blk)[0]);
            std::fill_n(block(blk), _words, 0);
        } else {
            blk = std::uint32_t(_store.size() / _words);
            _store.resize(_store.size() + _words, 0);
        }
        ++_live;
        return blk;
    }

    void
    release(std::uint32_t blk)
    {
        block(blk)[0] = _free;
        _free = blk;
        --_live;
    }

    std::uint64_t *
    block(std::uint32_t blk)
    {
        return _store.data() + std::size_t(blk) * _words;
    }

    const std::uint64_t *
    block(std::uint32_t blk) const
    {
        return _store.data() + std::size_t(blk) * _words;
    }

    /** Blocks held by sets right now (tests). */
    std::size_t live() const { return _live; }

    /** Blocks ever created (tests: the high-water mark). */
    std::size_t
    created() const
    {
        return _words ? _store.size() / _words : 0;
    }

  private:
    std::uint32_t _words;
    std::vector<std::uint64_t> _store;
    std::uint32_t _free = kNone;
    std::size_t _live = 0;
};

/**
 * A set of sharing cores, scaled past 64.
 *
 * Word 0 stays inline, so machines up to 64 cores keep the
 * allocation-free fast path bit-for-bit. The bits of core ids >= 64
 * live in one block of a SharerSpill, taken on the first such set()
 * and returned by reset() or destruction; a set built without a spill
 * holds core ids < 64 only. Sets move but do not copy (a moved-from
 * set is empty and keeps its spill).
 */
class SharerSet
{
  public:
    SharerSet() = default;
    explicit SharerSet(SharerSpill *spill) : _spill(spill) {}

    SharerSet(SharerSet &&other) noexcept
        : _w0(other._w0), _spill(other._spill), _blk(other._blk)
    {
        other._w0 = 0;
        other._blk = SharerSpill::kNone;
    }

    SharerSet &
    operator=(SharerSet &&other) noexcept
    {
        if (this != &other) {
            dropBlock();
            _w0 = other._w0;
            _spill = other._spill;
            _blk = other._blk;
            other._w0 = 0;
            other._blk = SharerSpill::kNone;
        }
        return *this;
    }

    SharerSet(const SharerSet &) = delete;
    SharerSet &operator=(const SharerSet &) = delete;

    ~SharerSet() { dropBlock(); }

    void
    set(CoreId core)
    {
        if (core < 64) {
            _w0 |= std::uint64_t(1) << core;
            return;
        }
        panic_if(!_spill || core / 64 > _spill->words(),
                 "core %u does not fit this sharer set", core);
        if (_blk == SharerSpill::kNone)
            _blk = _spill->acquire();
        _spill->block(_blk)[core / 64 - 1] |= std::uint64_t(1)
                                              << (core % 64);
    }

    /** Remove @p core (no-op when absent). */
    void
    clear(CoreId core)
    {
        if (core < 64) {
            _w0 &= ~(std::uint64_t(1) << core);
            return;
        }
        if (_blk != SharerSpill::kNone && core / 64 <= _spill->words())
            _spill->block(_blk)[core / 64 - 1] &=
                ~(std::uint64_t(1) << (core % 64));
    }

    bool
    test(CoreId core) const
    {
        if (core < 64)
            return (_w0 >> core) & 1;
        return _blk != SharerSpill::kNone &&
               core / 64 <= _spill->words() &&
               ((_spill->block(_blk)[core / 64 - 1] >> (core % 64)) & 1);
    }

    /** Empty the set (its spill block goes back to the spill). */
    void
    reset()
    {
        _w0 = 0;
        dropBlock();
    }

    bool none() const { return count() == 0; }

    std::uint32_t
    count() const
    {
        std::uint32_t n = std::uint32_t(__builtin_popcountll(_w0));
        if (_blk != SharerSpill::kNone) {
            const std::uint64_t *hi = _spill->block(_blk);
            for (std::uint32_t w = 0; w < _spill->words(); ++w)
                n += std::uint32_t(__builtin_popcountll(hi[w]));
        }
        return n;
    }

    /** True when the set minus @p core is nonempty. */
    bool
    anyBut(CoreId core) const
    {
        return count() > (test(core) ? 1u : 0u);
    }

    /** Visit every member in ascending core-id order. Each word is
     * read before its members are visited, so @p fn may grow the
     * spill (set() on another set). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        visitWord(_w0, 0, fn);
        for (std::uint32_t w = 0;
             _blk != SharerSpill::kNone && w < _spill->words(); ++w)
            visitWord(_spill->block(_blk)[w], CoreId(64 * (w + 1)), fn);
    }

  private:
    template <typename Fn>
    static void
    visitWord(std::uint64_t bits, CoreId base, Fn &fn)
    {
        while (bits) {
            fn(CoreId(base + CoreId(__builtin_ctzll(bits))));
            bits &= bits - 1;
        }
    }

    void
    dropBlock()
    {
        if (_blk != SharerSpill::kNone) {
            _spill->release(_blk);
            _blk = SharerSpill::kNone;
        }
    }

    std::uint64_t _w0 = 0;
    SharerSpill *_spill = nullptr;
    std::uint32_t _blk = SharerSpill::kNone;  //!< words for cores >= 64
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
    /** A directory for a machine of @p num_cores cores (sizes the
     * sharer sets' spill blocks). */
    explicit Directory(std::uint32_t num_cores = 64) : _spill(num_cores) {}

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

    /** Sharer-set spill blocks (tests). */
    const SharerSpill &spill() const { return _spill; }

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

    /** Declared before _entries: the entries' sharer sets return
     * their blocks here when destroyed. */
    SharerSpill _spill;
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
