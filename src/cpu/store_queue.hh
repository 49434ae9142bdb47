/**
 * @file
 * The store queue (SQ).
 *
 * Stores issue into the SQ and retire, in order, from its head into the
 * L1 -- possibly waiting on the active design's logging protocol. When
 * retirement is slow the SQ fills and back-pressures the pipeline; the
 * cycles a store spends waiting for a free SQ entry are the paper's
 * "SQ full cycles" metric (Figure 6).
 *
 * The SQ is a fixed ring of `sqEntries` slots with inline payloads (a
 * store op carries at most one 8-byte word), and every continuation it
 * holds -- accept, full-queue retry, drain -- is an inline callback in
 * a pooled node, so issuing, stalling and retiring stores allocates
 * nothing in steady state.
 */

#ifndef ATOMSIM_CPU_STORE_QUEUE_HH
#define ATOMSIM_CPU_STORE_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/mem_op.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace atomsim
{

class L1Cache;

/** One core's store queue. */
class StoreQueue
{
  public:
    /** Accept / drain continuation (the core's captures are a
     * pointer and an op index). */
    using Callback = InplaceCallback<32>;

    StoreQueue(CoreId core, EventQueue &eq, std::uint32_t entries,
               std::uint32_t drain_width, L1Cache &l1, StatSet &stats);

    /**
     * Issue a store of @p size (<= MemOp::kMaxStoreBytes) bytes from
     * @p bytes (copied). @p accepted runs as soon as the store owns an
     * SQ entry (immediately when not full); the producing core stalls
     * until then. Retirement proceeds asynchronously.
     */
    void push(Addr addr, const std::uint8_t *bytes, std::uint32_t size,
              Callback accepted);

    /** True when no stores are buffered or in flight. */
    bool empty() const { return _count == 0; }

    /** Run @p cb once the queue fully drains (immediately if empty). */
    void whenEmpty(Callback cb);

    /** True if a pending store targets the line of @p addr
     * (store-to-load forwarding). */
    bool holdsLine(Addr addr) const;

    std::size_t occupancy() const { return _count; }

    /** Cycles stores spent waiting for a free entry (Figure 6). */
    std::uint64_t fullCycles() const { return _statFullCycles.value(); }

  private:
    using Payload = std::array<std::uint8_t, MemOp::kMaxStoreBytes>;

    /** One ring slot. */
    struct Entry
    {
        Addr addr = 0;
        Payload payload{};
        std::uint8_t size = 0;
        bool issued = false;
        bool done = false;
    };

    /** A store stalled on a full queue (pooled). */
    struct FullWaiter
    {
        FullWaiter *next = nullptr;
        Tick since = 0;
        Addr addr = 0;
        Payload payload{};
        std::uint8_t size = 0;
        Callback accepted;
    };

    /** A whenEmpty continuation (pooled). */
    struct DrainWaiter
    {
        DrainWaiter *next = nullptr;
        Callback cb;
    };

    /** Ring slot of the i-th oldest entry. */
    std::uint32_t
    slotAt(std::uint32_t i) const
    {
        const std::uint32_t s = _head + i;
        return s >= _entries ? s - _entries : s;
    }

    void pump();
    void retireCompleted();

    CoreId _core;
    EventQueue &_eq;
    std::uint32_t _entries;
    std::uint32_t _drainWidth;
    L1Cache &_l1;

    std::vector<Entry> _ring;  //!< _entries slots, fixed
    std::uint32_t _head = 0;   //!< slot of the oldest entry
    std::uint32_t _count = 0;  //!< live entries
    std::uint32_t _issued = 0;

    FreeListPool<FullWaiter> _fullPool;
    NodeFifo<FullWaiter> _full;  //!< full-queue stalls
    FreeListPool<DrainWaiter> _drainPool;
    NodeFifo<DrainWaiter> _drain;

    Counter &_statFullCycles;
    Counter &_statRetired;
};

} // namespace atomsim

#endif // ATOMSIM_CPU_STORE_QUEUE_HH
