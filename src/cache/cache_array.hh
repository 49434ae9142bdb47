/**
 * @file
 * Set-associative tag/data array with LRU replacement, and the arena
 * its set blocks and line data come from.
 */

#ifndef ATOMSIM_CACHE_CACHE_ARRAY_HH
#define ATOMSIM_CACHE_CACHE_ARRAY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_line.hh"
#include "sim/types.hh"

namespace atomsim
{

/**
 * Backing store for cache arrays: set blocks and line-data slots.
 * One System shares one arena among all its L1s and L2 tiles; an
 * array built on its own owns a private one.
 *
 *  - A set block of n ways is n x kWayBytes bytes. Blocks a set has
 *    outgrown are recycled through one free list per way count.
 *  - Line-data slots are handed out zeroed and never returned.
 *
 * Both come from heap chunks, left uninitialized, that double in size
 * across every array that shares the arena, so an arena makes
 * O(log bytes) allocations over its life.
 */
class CacheArena
{
  public:
    /** Bytes of one way of a set block: its frame and its tag. */
    static constexpr std::size_t kWayBytes =
        sizeof(CacheLineState) + sizeof(Addr);

    CacheArena() = default;
    CacheArena(const CacheArena &) = delete;
    CacheArena &operator=(const CacheArena &) = delete;

    /** Uninitialized storage for a set block of @p ways ways. */
    std::byte *takeBlock(std::uint32_t ways);

    /** Recycle @p block of @p ways ways, which its set outgrew. */
    void giveBlock(std::byte *block, std::uint32_t ways);

    /** Hand out a zeroed line-data slot. */
    std::uint32_t newSlot();

    Line &
    slotData(std::uint32_t slot)
    {
        const unsigned chunk = slotChunk(slot);
        return _slotChunks[chunk][slot - slotChunkFirst(chunk)];
    }

    /** Bytes of the block chunks allocated. */
    std::size_t blockChunkBytes() const { return _blockChunkBytes; }

    /** Bytes of the blocks waiting on a free list. */
    std::size_t freeBlockBytes() const { return _freeBlockBytes; }

    /** Line-data slots handed out. */
    std::uint32_t slotsUsed() const { return _slotsUsed; }

    /** Line-data slots allocated (used + spare in the last chunk). */
    std::uint32_t slotsAllocated() const { return _slotsAllocated; }

  private:
    /** Bytes of the first block chunk; each later one doubles the
     * total so far. */
    static constexpr std::size_t kBlockChunk0Bytes = 4096;
    /** Slot chunk 0 holds 2^kSlotChunk0Shift slots; chunk k >= 1
     * holds 2^(kSlotChunk0Shift + k - 1) and starts at that slot. */
    static constexpr unsigned kSlotChunk0Shift = 4;

    static unsigned
    slotChunk(std::uint32_t slot)
    {
        const std::uint32_t hi = slot >> kSlotChunk0Shift;
        return hi == 0 ? 0 : 32u - unsigned(__builtin_clz(hi));
    }

    static std::uint32_t
    slotChunkFirst(unsigned chunk)
    {
        return chunk == 0 ? 0 : 1u << (kSlotChunk0Shift + chunk - 1);
    }

    /** Slots in chunk @p chunk. */
    static std::uint32_t
    slotChunkSize(unsigned chunk)
    {
        return chunk == 0 ? 1u << kSlotChunk0Shift : slotChunkFirst(chunk);
    }

    std::vector<std::unique_ptr<std::byte[]>> _blockChunks;
    std::byte *_blockNext = nullptr;  //!< bump pointer in the last chunk
    std::byte *_blockEnd = nullptr;
    std::size_t _blockChunkBytes = 0;
    /** Per way count: the first free block of that size, whose first
     * word points at the next. */
    std::vector<std::byte *> _freeBlocks;
    std::size_t _freeBlockBytes = 0;
    /** Enough chunks for the 2^31 slots newSlot() hands out at most. */
    std::array<std::unique_ptr<Line[]>, 32 - kSlotChunk0Shift> _slotChunks;
    std::uint32_t _slotsUsed = 0;
    std::uint32_t _slotsAllocated = 0;
};

/**
 * A set-associative array of CacheLineState with true-LRU replacement.
 *
 * The array indexes by line address; set index bits come right above
 * the line offset. Size and associativity must describe a power-of-two
 * set count.
 *
 * Memory follows the ways and lines actually used, not the configured
 * capacity:
 *
 *  - each set has one pointer and a way count, null and 0 until
 *    victim() first picks into the set; a lookup in a never-used set
 *    misses without allocating;
 *  - the pointer leads to the set's frames (metadata only: state,
 *    dirty, log bit, pin, way, LRU stamp and a line-data slot handle),
 *    with the set's dense tags just below them in reverse way order
 *    (one word per way: `line | 1` when valid, 0 when invalid), the
 *    only record of validity, so a lookup scans ways x 8 bytes;
 *  - a set is born with one way. When victim() finds no invalid way
 *    in a set of fewer than assoc ways, the set moves to a block of
 *    min(2 x ways, assoc) ways and its first new way is the victim --
 *    the way a fixed assoc-way set would pick, so replacement is
 *    exactly that of the full array;
 *  - a frame gets a line-data slot on its first install and keeps it
 *    from then on (moves included), so a reinstalled frame still
 *    holds its old bytes until a fill overwrites them.
 *
 * Blocks and slots come from the array's CacheArena.
 *
 * Frame pointers: a full set (assoc ways) never moves; the frames of
 * any other set move when victim() grows it. So victim() returns a
 * valid frame only from a full set, and such a frame may be held
 * across events (see full()); any other frame pointer lasts until the
 * next victim() call and must be re-found after it.
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
     * @param arena where set blocks and line data come from; it must
     *        outlive the array. nullptr gives the array its own.
     */
    CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
               std::uint32_t index_div = 1, CacheArena *arena = nullptr);

    /** Lookup without LRU update. nullptr on miss. */
    CacheLineState *find(Addr line_addr);
    const CacheLineState *find(Addr line_addr) const;

    /** Lookup and mark most-recently used. nullptr on miss. */
    CacheLineState *touch(Addr line_addr);

    /**
     * Choose a victim frame in the set of @p line_addr: an invalid
     * frame if available, else the LRU frame. Never returns nullptr.
     * May grow the set, moving its frames. The caller is responsible
     * for evicting the current occupant.
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

    /** Invalidate every line (power failure). Sets keep their
     * ways. */
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

    /**
     * True when valid @p frame sits in its set's current block and
     * that set has all assoc ways: the frame stays where it is until
     * the array is destroyed, so it may be held across events.
     */
    bool full(const CacheLineState *frame) const;

    /** Line data of @p frame (installed at least once). */
    Line &
    data(const CacheLineState *frame)
    {
        return _arena->slotData(frame->slot);
    }

    const Line &
    data(const CacheLineState *frame) const
    {
        return _arena->slotData(frame->slot);
    }

    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }

    /** Sets whose ways are allocated: those victim() ever picked
     * into. */
    std::uint32_t setsAllocated() const { return _setsAllocated; }

    /** Ways allocated, summed over the sets. */
    std::uint64_t waysAllocated() const { return _waysAllocated; }

    /** Bytes of the set blocks the array holds. */
    std::size_t
    setBlockBytes() const
    {
        return std::size_t(_waysAllocated) * CacheArena::kWayBytes;
    }

    /** Line-data slots handed out: the distinct frames ever
     * installed. */
    std::uint32_t dataSlots() const { return _slotsUsed; }

    /** The arena the array's blocks and line data come from. */
    const CacheArena &arena() const { return *_arena; }

  private:
    std::uint32_t setIndex(Addr line_addr) const;

    /** Tag word of way @p way of the set whose frames start at
     * @p frames. */
    static Addr &tagOf(const CacheLineState *frames, std::uint32_t way);

    /** The tag word of @p frame, found through its way. */
    Addr &
    tagWord(const CacheLineState *frame) const
    {
        return tagOf(frame - frame->way, frame->way);
    }

    /** Move set @p set into a block of min(2 x ways, assoc) ways (one
     * way if it has none yet); returns its first new way. */
    CacheLineState *grow(std::uint32_t set);

    /** Reset @p frame's metadata, keeping its way and line-data
     * slot. */
    static void resetMeta(CacheLineState *frame);

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    std::uint32_t _indexDiv;
    std::uint64_t _stamp = 0;
    /** Set only when the array was given no arena. */
    std::unique_ptr<CacheArena> _ownArena;
    CacheArena *_arena;
    /** Per set: its frames (tags below them), or null if unused. */
    std::vector<CacheLineState *> _sets;
    /** Per set: its ways (0 if unused). */
    std::vector<std::uint16_t> _setWays;
    std::uint32_t _setsAllocated = 0;
    std::uint64_t _waysAllocated = 0;
    std::uint32_t _slotsUsed = 0;
};

} // namespace atomsim

#endif // ATOMSIM_CACHE_CACHE_ARRAY_HH
