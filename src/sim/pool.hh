/**
 * @file
 * Intrusive free-list pool for hot-path nodes.
 *
 * Every allocation-free subsystem pools its nodes the same way: grow
 * to the in-flight high-water mark once, then recycle forever. This
 * template is that idiom in one place, so the no-allocation property
 * is auditable centrally. Users:
 *
 *  - sim: EventQueue's pooled one-shot events (post()/postIn());
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
 * Nodes come from chunks that double the pool's size (a chained slab)
 * and are constructed when first handed out, so a node never moves
 * and a pool allocates O(log high-water) times over its life.
 *
 * T must expose a `T *next` member, used as the free-list link while
 * the node is idle (subsystems may reuse it for their own chains while
 * the node is live). Scrubbing node state (destroying callbacks,
 * clearing payloads) stays the caller's job before release().
 */

#ifndef ATOMSIM_SIM_POOL_HH
#define ATOMSIM_SIM_POOL_HH

#include <cstddef>
#include <new>

namespace atomsim
{

template <typename T>
class FreeListPool
{
  public:
    FreeListPool() = default;
    FreeListPool(const FreeListPool &) = delete;
    FreeListPool &operator=(const FreeListPool &) = delete;

    ~FreeListPool()
    {
        // Every chunk is full but the newest, which ends at _cursor.
        T *end = _cursor;
        for (Chunk *chunk = _chunk; chunk;) {
            for (T *node = nodesOf(chunk); node != end; ++node)
                node->~T();
            Chunk *prev = chunk->prev;
            ::operator delete(chunk);
            chunk = prev;
            if (chunk)
                end = nodesOf(chunk) + chunk->nodes;
        }
    }

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
        if (_cursor == _chunkEnd)
            grow();
        ++_allocated;
        return new (_cursor++) T();
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
    std::size_t allocated() const { return _allocated; }

    /** Nodes currently idle on the free list. */
    std::size_t idle() const { return _freeCount; }

  private:
    /** A chunk's header; its nodes follow at nodeOffset(). */
    struct Chunk
    {
        Chunk *prev;
        std::size_t nodes;
    };

    static constexpr std::size_t
    nodeOffset()
    {
        return (sizeof(Chunk) + alignof(T) - 1) / alignof(T) * alignof(T);
    }

    static T *
    nodesOf(Chunk *chunk)
    {
        return reinterpret_cast<T *>(reinterpret_cast<unsigned char *>(chunk) +
                                     nodeOffset());
    }

    /** Add a chunk as large as the pool so far (one node first):
     * nodes never move, and a pool allocates O(log nodes) times. */
    void
    grow()
    {
        // Checked here, not at class scope, so a pool member may be
        // declared where T is still incomplete.
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "pool chunks come from plain operator new");
        const std::size_t n = _allocated == 0 ? 1 : _allocated;
        // Raw storage: a node is constructed when first handed out.
        auto *chunk = new (::operator new(nodeOffset() + n * sizeof(T)))
            Chunk{_chunk, n};
        _chunk = chunk;
        _cursor = nodesOf(chunk);
        _chunkEnd = _cursor + n;
    }

    Chunk *_chunk = nullptr;  //!< newest chunk, chained to older ones
    T *_cursor = nullptr;     //!< next never-used node storage
    T *_chunkEnd = nullptr;   //!< end of the newest chunk
    std::size_t _allocated = 0;
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
