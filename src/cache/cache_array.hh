/**
 * @file
 * Set-associative tag/data array with LRU replacement.
 */

#ifndef ATOMSIM_CACHE_CACHE_ARRAY_HH
#define ATOMSIM_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "cache/cache_line.hh"
#include "sim/types.hh"

namespace atomsim
{

/**
 * A set-associative array of CacheLineState with true-LRU replacement.
 *
 * The array indexes by line address; set index bits come right above
 * the line offset. Size and associativity must describe a power-of-two
 * set count.
 *
 * Memory follows the sets and lines actually used, not the configured
 * capacity:
 *
 *  - each set has one pointer, null until victim() first picks into
 *    the set; a lookup in a never-used set misses without allocating;
 *  - the pointer leads to the set's block: its frames (metadata only:
 *    state, dirty, log bit, pin, way, LRU stamp and a line-data slot
 *    handle) followed by its dense tags (one word per way: `line | 1`
 *    when valid, 0 when invalid), the only record of validity, so a
 *    lookup scans assoc x 8 bytes. Blocks come from per-array chunks
 *    handed out in first-use order that double in size, so frames
 *    never move;
 *  - a frame gets a line-data slot on its first install and keeps it
 *    from then on, so a reinstalled frame still holds its old bytes
 *    until a fill overwrites them. Slots come from per-array chunks
 *    that grow the same way.
 *
 * So an array allocates O(log sets + log frames) times over its life.
 */
class CacheArray
{
  public:
    /**
     * @param index_div divisor applied to the line number before set
     *        indexing. Banked caches whose bank-selection bits are the
     *        low line-number bits (the L2 tiles) must pass the bank
     *        count here, otherwise only numSets/index_div sets would
     *        ever be used.
     */
    CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
               std::uint32_t index_div = 1);

    /** Lookup without LRU update. nullptr on miss. */
    CacheLineState *find(Addr line_addr);
    const CacheLineState *find(Addr line_addr) const;

    /** Lookup and mark most-recently used. nullptr on miss. */
    CacheLineState *touch(Addr line_addr);

    /**
     * Choose a victim frame in the set of @p line_addr: an invalid
     * frame if available, else the LRU frame. Never returns nullptr.
     * The caller is responsible for evicting the current occupant.
     */
    CacheLineState *victim(Addr line_addr);

    /**
     * Install @p line_addr in @p frame (which must come from victim()
     * of the same set). Resets all metadata; the line data keeps its
     * previous bytes (zeroes on a frame's first install).
     */
    void install(CacheLineState *frame, Addr line_addr);

    /** Invalidate @p frame (metadata reset, line data kept). */
    void invalidate(CacheLineState *frame);

    /** Invalidate every line (power failure). */
    void invalidateAll();

    /** True when @p frame holds a line. */
    bool
    valid(const CacheLineState *frame) const
    {
        return tagWord(frame) != 0;
    }

    /** Line address held by valid @p frame. */
    Addr
    tag(const CacheLineState *frame) const
    {
        return tagWord(frame) & ~Addr(1);
    }

    /** Line data of @p frame (installed at least once). */
    Line &
    data(const CacheLineState *frame)
    {
        return slotData(frame->slot);
    }

    const Line &
    data(const CacheLineState *frame) const
    {
        return const_cast<CacheArray *>(this)->slotData(frame->slot);
    }

    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }

    /** Sets whose ways are allocated: those victim() ever picked
     * into. */
    std::uint32_t setsAllocated() const { return _setsAllocated; }

    /** Line-data slots handed out: the distinct frames ever
     * installed. */
    std::uint32_t dataSlots() const { return _slotsUsed; }

    /** Line-data slots allocated (used + spare in the last chunk). */
    std::uint32_t dataCapacity() const { return _slotsAllocated; }

  private:
    /** Chunk 0 holds 2^kChunk0Shift slots; chunk k >= 1 holds
     * 2^(kChunk0Shift + k - 1), so slot s lives in chunk
     * bit_width(s >> kChunk0Shift). */
    static constexpr unsigned kChunk0Shift = 4;

    std::uint32_t setIndex(Addr line_addr) const;

    /** Bytes of one set block: assoc frames, then assoc tags. */
    std::size_t
    blockBytes() const
    {
        return std::size_t(_assoc) * (sizeof(CacheLineState) + sizeof(Addr));
    }

    /** Dense tags of the set whose frames start at @p frames. */
    Addr *
    setTags(CacheLineState *frames) const
    {
        return std::launder(reinterpret_cast<Addr *>(frames + _assoc));
    }

    /** The tag word of @p frame, found through its way. */
    Addr &
    tagWord(const CacheLineState *frame) const
    {
        auto *frames = const_cast<CacheLineState *>(frame - frame->way);
        return setTags(frames)[frame->way];
    }

    /** Frames of the set holding @p line_addr, allocating its block
     * on the set's first use. */
    CacheLineState *allocatedSet(Addr line_addr);

    Line &slotData(std::uint32_t slot);

    /** Hand out the next line-data slot, growing by one chunk when
     * the allocated ones are full. */
    std::uint32_t newSlot();

    /** Reset @p frame's metadata, keeping its way and line-data
     * slot. */
    static void resetMeta(CacheLineState *frame);

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    std::uint32_t _indexDiv;
    std::uint64_t _stamp = 0;
    /** Per set: its frames (tags follow them), or null if unused. */
    std::vector<CacheLineState *> _sets;
    /** Set blocks, each assoc frames then assoc tags. */
    std::vector<std::unique_ptr<std::byte[]>> _blockChunks;
    std::uint32_t _setsAllocated = 0;
    std::uint32_t _blocksAllocated = 0;  //!< used + spare in last chunk
    std::byte *_nextBlock = nullptr;     //!< next spare block
    std::vector<std::unique_ptr<Line[]>> _chunks;
    std::uint32_t _slotsUsed = 0;
    std::uint32_t _slotsAllocated = 0;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_CACHE_ARRAY_HH
