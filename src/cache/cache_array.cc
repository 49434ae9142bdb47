#include "cache/cache_array.hh"

#include <algorithm>
#include <new>

#include "sim/logging.hh"

namespace atomsim
{

namespace
{

/** Number of significant bits of @p v (0 for 0). */
unsigned
bitWidth(std::uint32_t v)
{
    return v == 0 ? 0 : 32u - unsigned(__builtin_clz(v));
}

/** Set blocks in an array's first block chunk. */
constexpr std::uint32_t kChunk0Blocks = 8;

/** Blocks in the next block chunk of an array of @p sets sets that
 * has @p allocated blocks so far: kChunk0Blocks first, then as many
 * as allocated (so chunks double), capped at the sets left. */
std::uint32_t
nextChunkBlocks(std::uint32_t allocated, std::uint32_t sets)
{
    return std::min(allocated == 0 ? kChunk0Blocks : allocated,
                    sets - allocated);
}

} // namespace

CacheArray::CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
                       std::uint32_t index_div)
    : _assoc(assoc), _indexDiv(index_div == 0 ? 1 : index_div)
{
    panic_if(assoc == 0, "associativity must be > 0");
    panic_if(assoc > 0xffff, "associativity must fit a frame's way");
    const std::uint32_t lines = size_bytes / kLineBytes;
    panic_if(lines % assoc != 0, "lines not divisible by associativity");
    _numSets = lines / assoc;
    panic_if((_numSets & (_numSets - 1)) != 0,
             "set count must be a power of two (got %u)", _numSets);
    _sets.assign(_numSets, nullptr);
    // Every chunk the array can ever need, so growing never
    // reallocates the chunk tables; the first data chunk is allocated
    // now, the first block chunk on the first victim().
    std::uint32_t block_chunks = 0;
    for (std::uint32_t n = 0; n < _numSets; ++block_chunks)
        n += nextChunkBlocks(n, _numSets);
    _blockChunks.reserve(block_chunks);
    _chunks.reserve(bitWidth((lines - 1) >> kChunk0Shift) + 1);
    _slotsAllocated = std::min(lines, 1u << kChunk0Shift);
    _chunks.push_back(std::make_unique<Line[]>(_slotsAllocated));
}

std::uint32_t
CacheArray::setIndex(Addr line_addr) const
{
    return std::uint32_t((lineNumber(line_addr) / _indexDiv) &
                         (_numSets - 1));
}

CacheLineState *
CacheArray::allocatedSet(Addr line_addr)
{
    CacheLineState *&frames = _sets[setIndex(line_addr)];
    if (frames)
        return frames;
    const std::size_t block_bytes = blockBytes();
    if (_setsAllocated == _blocksAllocated) {
        const std::uint32_t blocks =
            nextChunkBlocks(_blocksAllocated, _numSets);
        // Default-initialized: a block is constructed when handed out.
        _blockChunks.emplace_back(new std::byte[blocks * block_bytes]);
        _nextBlock = _blockChunks.back().get();
        _blocksAllocated += blocks;
    }
    auto *block = reinterpret_cast<CacheLineState *>(_nextBlock);
    auto *tags = reinterpret_cast<Addr *>(block + _assoc);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        new (&block[w]) CacheLineState{};
        block[w].way = std::uint16_t(w);
        new (&tags[w]) Addr(0);
    }
    _nextBlock += block_bytes;
    ++_setsAllocated;
    frames = std::launder(block);
    return frames;
}

Line &
CacheArray::slotData(std::uint32_t slot)
{
    const unsigned chunk = bitWidth(slot >> kChunk0Shift);
    const std::uint32_t first =
        chunk == 0 ? 0 : 1u << (kChunk0Shift + chunk - 1);
    return _chunks[chunk][slot - first];
}

std::uint32_t
CacheArray::newSlot()
{
    if (_slotsUsed == _slotsAllocated) {
        // Chunk k >= 1 starts at slot 2^(kChunk0Shift + k - 1), which
        // is also its size -- capped at the frame count for the last.
        const std::uint32_t size = std::min<std::uint32_t>(
            _slotsAllocated, _numSets * _assoc - _slotsAllocated);
        _chunks.push_back(std::make_unique<Line[]>(size));
        _slotsAllocated += size;
    }
    return _slotsUsed++;
}

void
CacheArray::resetMeta(CacheLineState *frame)
{
    const std::uint32_t slot = frame->slot;
    const std::uint16_t way = frame->way;
    *frame = CacheLineState{};
    frame->slot = slot;
    frame->way = way;
}

CacheLineState *
CacheArray::find(Addr line_addr)
{
    CacheLineState *frames = _sets[setIndex(line_addr)];
    if (!frames)
        return nullptr;
    const Addr want = lineAlign(line_addr) | 1;
    const Addr *tags = setTags(frames);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (tags[w] == want)
            return &frames[w];
    }
    return nullptr;
}

const CacheLineState *
CacheArray::find(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->find(line_addr);
}

CacheLineState *
CacheArray::touch(Addr line_addr)
{
    CacheLineState *frame = find(line_addr);
    if (frame)
        frame->lruStamp = ++_stamp;
    return frame;
}

CacheLineState *
CacheArray::victim(Addr line_addr)
{
    CacheLineState *frames = allocatedSet(line_addr);
    const Addr *tags = setTags(frames);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (tags[w] == 0)
            return &frames[w];
    }
    CacheLineState *lru = nullptr;
    CacheLineState *lru_any = nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        CacheLineState &frame = frames[w];
        if (!frame.pinned && (!lru || frame.lruStamp < lru->lruStamp))
            lru = &frame;
        if (!lru_any || frame.lruStamp < lru_any->lruStamp)
            lru_any = &frame;
    }
    // Prefer an unpinned victim; an all-pinned set (possible only with
    // more in-flight logged stores than ways) falls back to plain LRU.
    return lru ? lru : lru_any;
}

void
CacheArray::install(CacheLineState *frame, Addr line_addr)
{
    resetMeta(frame);
    if (frame->slot == CacheLineState::kNoSlot)
        frame->slot = newSlot();
    tagWord(frame) = lineAlign(line_addr) | 1;
    frame->lruStamp = ++_stamp;
}

void
CacheArray::invalidate(CacheLineState *frame)
{
    tagWord(frame) = 0;
    resetMeta(frame);
}

void
CacheArray::invalidateAll()
{
    const std::size_t block_bytes = blockBytes();
    std::uint32_t walked = 0;
    for (const auto &chunk : _blockChunks) {
        const std::uint32_t blocks = std::min(
            nextChunkBlocks(walked, _numSets),
            _setsAllocated - walked);
        for (std::uint32_t b = 0; b < blocks; ++b) {
            auto *frames = std::launder(reinterpret_cast<CacheLineState *>(
                chunk.get() + b * block_bytes));
            Addr *tags = setTags(frames);
            for (std::uint32_t w = 0; w < _assoc; ++w) {
                tags[w] = 0;
                resetMeta(&frames[w]);
            }
        }
        walked += blocks;
    }
}

} // namespace atomsim
