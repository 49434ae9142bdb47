#include "cache/cache_array.hh"

#include <algorithm>

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

} // namespace

CacheArray::CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
                       std::uint32_t index_div)
    : _assoc(assoc), _indexDiv(index_div == 0 ? 1 : index_div)
{
    panic_if(assoc == 0, "associativity must be > 0");
    const std::uint32_t lines = size_bytes / kLineBytes;
    panic_if(lines % assoc != 0, "lines not divisible by associativity");
    _numSets = lines / assoc;
    panic_if((_numSets & (_numSets - 1)) != 0,
             "set count must be a power of two (got %u)", _numSets);
    _tags.resize(lines);
    _frames.resize(lines);
    // Every chunk the array can ever need, so growing never
    // reallocates the chunk table; the first one is allocated now.
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
            _slotsAllocated, std::uint32_t(_frames.size()) - _slotsAllocated);
        _chunks.push_back(std::make_unique<Line[]>(size));
        _slotsAllocated += size;
    }
    return _slotsUsed++;
}

void
CacheArray::resetMeta(CacheLineState *frame)
{
    const std::uint32_t slot = frame->slot;
    *frame = CacheLineState{};
    frame->slot = slot;
}

CacheLineState *
CacheArray::find(Addr line_addr)
{
    const Addr want = lineAlign(line_addr) | 1;
    const std::size_t base = std::size_t(setIndex(line_addr)) * _assoc;
    const Addr *tags = _tags.data() + base;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (tags[w] == want)
            return &_frames[base + w];
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
    const std::size_t base = std::size_t(setIndex(line_addr)) * _assoc;
    const Addr *tags = _tags.data() + base;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (tags[w] == 0)
            return &_frames[base + w];
    }
    CacheLineState *lru = nullptr;
    CacheLineState *lru_any = nullptr;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        CacheLineState &frame = _frames[base + w];
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
    _tags[index(frame)] = lineAlign(line_addr) | 1;
    frame->lruStamp = ++_stamp;
}

void
CacheArray::invalidate(CacheLineState *frame)
{
    _tags[index(frame)] = 0;
    resetMeta(frame);
}

void
CacheArray::invalidateAll()
{
    std::fill(_tags.begin(), _tags.end(), 0);
    for (auto &frame : _frames)
        resetMeta(&frame);
}

} // namespace atomsim
