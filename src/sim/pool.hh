/**
 * @file
 * Intrusive free-list pool for hot-path nodes.
 *
 * Every allocation-free subsystem pools its nodes the same way: grow
 * to the in-flight high-water mark once, then recycle forever. This
 * template is that idiom in one place, so the no-allocation property
 * is auditable centrally. Users:
 *
 *  - net: mesh packets;
 *  - cache: MSHR waiters, directory waiters, pending stores/flushes,
 *    parked L2 fills, invalidation joins (Round), L1 writeback-buffer
 *    entries and deferred-unpin actions;
 *  - cpu: store-queue full-queue and drain waiters, the region
 *    serializer's waiters;
 *  - designs: AUS-pool waiters;
 *  - atom: LogM record registers (OpenRecord), BASE persist acks and
 *    gate-parked writes;
 *  - mem: controller requests, combine-overflow and line-durability
 *    acks, DRAM-tier ops and device requests, SSD commands,
 *    destage-engine parked accesses and truncations parked on the
 *    backlog bound.
 *
 * Per-line state lives in the companion flat table (sim/addr_table.hh).
 *
 * T must expose a `T *next` member, used as the free-list link while
 * the node is idle (subsystems may reuse it for their own chains while
 * the node is live). Scrubbing node state (destroying callbacks,
 * clearing payloads) stays the caller's job before release().
 */

#ifndef ATOMSIM_SIM_POOL_HH
#define ATOMSIM_SIM_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace atomsim
{

template <typename T>
class FreeListPool
{
  public:
    /** A node with indeterminate (recycled) payload; next == nullptr. */
    T *
    acquire()
    {
        if (_free) {
            T *node = _free;
            _free = node->next;
            node->next = nullptr;
            --_freeCount;
            return node;
        }
        _nodes.push_back(std::make_unique<T>());
        return _nodes.back().get();
    }

    /** Return a node to the free list (caller has scrubbed it). */
    void
    release(T *node)
    {
        node->next = _free;
        _free = node;
        ++_freeCount;
    }

    /** Nodes ever allocated (high-water mark). */
    std::size_t allocated() const { return _nodes.size(); }

    /** Nodes currently idle on the free list. */
    std::size_t idle() const { return _freeCount; }

  private:
    std::vector<std::unique_ptr<T>> _nodes;
    T *_free = nullptr;
    std::size_t _freeCount = 0;
};

/**
 * FIFO chain of live pooled nodes, linked through the same `T *next`
 * member (waiter lists: oldest first, fired in arrival order).
 */
template <typename T>
struct NodeFifo
{
    T *head = nullptr;
    T *tail = nullptr;

    bool empty() const { return head == nullptr; }

    void
    push(T *node)
    {
        node->next = nullptr;
        if (tail)
            tail->next = node;
        else
            head = node;
        tail = node;
    }

    /** Unlink and return the oldest node (the chain is nonempty). */
    T *
    pop()
    {
        T *node = head;
        head = node->next;
        if (!head)
            tail = nullptr;
        return node;
    }

    /** Detach the whole chain; returns its oldest node (walk it via
     * `next`, reading each link before releasing the node). */
    T *
    take()
    {
        T *first = head;
        head = tail = nullptr;
        return first;
    }
};

} // namespace atomsim

#endif // ATOMSIM_SIM_POOL_HH
