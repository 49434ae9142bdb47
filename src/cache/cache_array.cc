#include "cache/cache_array.hh"

#include <algorithm>
#include <cstring>
#include <new>

#include <sanitizer/asan_interface.h>

#include "sim/logging.hh"

namespace atomsim
{

std::byte *
CacheArena::takeBlock(std::uint32_t ways)
{
    const std::size_t bytes = ways * kWayBytes;
    if (ways < _freeBlocks.size() && _freeBlocks[ways]) {
        std::byte *block = _freeBlocks[ways];
        ASAN_UNPOISON_MEMORY_REGION(block, bytes);
        std::memcpy(&_freeBlocks[ways], block, sizeof(std::byte *));
        _freeBlockBytes -= bytes;
        return block;
    }
    if (std::size_t(_blockEnd - _blockNext) < bytes) {
        // The tail of the last chunk (less than one block) is dropped.
        const std::size_t chunk = std::max(
            {kBlockChunk0Bytes, _blockChunkBytes, bytes});
        // Left uninitialized: a block is constructed when handed out.
        _blockChunks.emplace_back(new std::byte[chunk]);
        _blockNext = _blockChunks.back().get();
        _blockEnd = _blockNext + chunk;
        _blockChunkBytes += chunk;
    }
    std::byte *block = _blockNext;
    _blockNext += bytes;
    return block;
}

void
CacheArena::giveBlock(std::byte *block, std::uint32_t ways)
{
    if (ways >= _freeBlocks.size())
        _freeBlocks.resize(ways + 1, nullptr);
    std::memcpy(block, &_freeBlocks[ways], sizeof(std::byte *));
    _freeBlocks[ways] = block;
    _freeBlockBytes += ways * kWayBytes;
    // Under AddressSanitizer a frame pointer kept across its set's
    // growth faults on its next use.
    ASAN_POISON_MEMORY_REGION(block, ways * kWayBytes);
}

std::uint32_t
CacheArena::newSlot()
{
    if (_slotsUsed == _slotsAllocated) {
        panic_if(_slotsAllocated > ~std::uint32_t(0) / 2,
                 "cache arena out of line-data slot handles");
        const unsigned chunk = slotChunk(_slotsAllocated);
        const std::uint32_t size = slotChunkSize(chunk);
        // Left uninitialized: each slot is zeroed when handed out.
        _slotChunks[chunk].reset(new Line[size]);
        _slotsAllocated += size;
    }
    const std::uint32_t slot = _slotsUsed++;
    slotData(slot).fill(0);
    return slot;
}

CacheArray::CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
                       std::uint32_t index_div, CacheArena *arena)
    : _assoc(assoc), _indexDiv(index_div == 0 ? 1 : index_div),
      _arena(arena)
{
    panic_if(assoc == 0, "associativity must be > 0");
    panic_if(assoc > 0xffff, "associativity must fit a frame's way");
    const std::uint32_t lines = size_bytes / kLineBytes;
    panic_if(lines % assoc != 0, "lines not divisible by associativity");
    _numSets = lines / assoc;
    panic_if((_numSets & (_numSets - 1)) != 0,
             "set count must be a power of two (got %u)", _numSets);
    if (!_arena) {
        _ownArena = std::make_unique<CacheArena>();
        _arena = _ownArena.get();
    }
    _sets.assign(_numSets, nullptr);
    _setWays.assign(_numSets, 0);
}

std::uint32_t
CacheArray::setIndex(Addr line_addr) const
{
    return std::uint32_t((lineNumber(line_addr) / _indexDiv) &
                         (_numSets - 1));
}

Addr &
CacheArray::tagOf(const CacheLineState *frames, std::uint32_t way)
{
    auto *bytes = reinterpret_cast<std::byte *>(
        const_cast<CacheLineState *>(frames));
    return *std::launder(reinterpret_cast<Addr *>(
        bytes - (std::size_t(way) + 1) * sizeof(Addr)));
}

CacheLineState *
CacheArray::grow(std::uint32_t set)
{
    CacheLineState *old = _sets[set];
    const std::uint32_t ways = _setWays[set];
    const std::uint32_t grown = ways == 0 ? 1 : std::min(2 * ways, _assoc);
    // The block holds the tags in reverse way order, then the frames.
    std::byte *block = _arena->takeBlock(grown);
    auto *frames =
        reinterpret_cast<CacheLineState *>(block + grown * sizeof(Addr));
    for (std::uint32_t w = 0; w < grown; ++w) {
        Addr *tag = reinterpret_cast<Addr *>(
            block + (grown - 1 - w) * sizeof(Addr));
        if (w < ways) {
            new (&frames[w]) CacheLineState(old[w]);
            new (tag) Addr(tagOf(old, w));
        } else {
            new (&frames[w]) CacheLineState{};
            frames[w].way = std::uint16_t(w);
            new (tag) Addr(0);
        }
    }
    if (old) {
        _arena->giveBlock(reinterpret_cast<std::byte *>(old) -
                              ways * sizeof(Addr),
                          ways);
    } else {
        ++_setsAllocated;
    }
    frames = std::launder(frames);
    _sets[set] = frames;
    _setWays[set] = std::uint16_t(grown);
    _waysAllocated += grown - ways;
    return &frames[ways];
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
    const std::uint32_t set = setIndex(line_addr);
    CacheLineState *frames = _sets[set];
    if (!frames)
        return nullptr;
    const Addr want = lineAlign(line_addr) | 1;
    const Addr *tag0 = &tagOf(frames, 0);  // way w's tag is tag0[-w]
    const std::uint32_t ways = _setWays[set];
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (*(tag0 - w) == want)
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
    const std::uint32_t set = setIndex(line_addr);
    CacheLineState *frames = _sets[set];
    const std::uint32_t ways = _setWays[set];
    if (frames) {
        const Addr *tag0 = &tagOf(frames, 0);
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (*(tag0 - w) == 0)
                return &frames[w];
        }
    }
    // The ways not allocated yet are the invalid ones; the lowest of
    // them is the first new way.
    if (ways < _assoc)
        return grow(set);
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
    if (frame->slot == CacheLineState::kNoSlot) {
        frame->slot = _arena->newSlot();
        ++_slotsUsed;
    }
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
    // Scans the 2-byte way counts; only the sets in use are touched.
    for (std::uint32_t set = 0; set < _numSets; ++set) {
        if (_setWays[set] == 0)
            continue;
        CacheLineState *frames = _sets[set];
        for (std::uint32_t w = 0; w < _setWays[set]; ++w) {
            tagOf(frames, w) = 0;
            resetMeta(&frames[w]);
        }
    }
}

bool
CacheArray::full(const CacheLineState *frame) const
{
    const std::uint32_t set = setIndex(tag(frame));
    return _sets[set] == frame - frame->way && _setWays[set] == _assoc;
}

} // namespace atomsim
