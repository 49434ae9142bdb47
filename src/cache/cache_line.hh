/**
 * @file
 * Per-line cache state, including the ATOM log bit.
 */

#ifndef ATOMSIM_CACHE_CACHE_LINE_HH
#define ATOMSIM_CACHE_CACHE_LINE_HH

#include <cstdint>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace atomsim
{

/** MESI-style stable coherence states as seen by an L1. */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

const char *coherenceName(CoherenceState s);

/**
 * One cache frame's metadata. The tag (and with it validity) and the
 * line's bytes live in the owning CacheArray: ask it for tag(),
 * valid() and data() of a frame.
 */
struct CacheLineState
{
    /** No line-data slot yet (the frame was never installed). */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    CacheLineState() : dirty(false), logBit(false), pinned(false) {}

    CoherenceState state = CoherenceState::Invalid;
    bool dirty : 1;
    /**
     * ATOM log bit (Section III-B): set when the line has been logged
     * for the current atomic update; cleared when the modified value is
     * durably written back or the line is evicted (volatile metadata).
     */
    bool logBit : 1;
    /**
     * Pinned while a store's log request is outstanding (the line is
     * the subject of an active MSHR transaction): replacement skips
     * pinned frames, preventing an evict/refetch/re-log feedback loop
     * under contention.
     */
    bool pinned : 1;
    /** The frame's way in its set, fixed when the way is allocated
     * and kept as the set grows: the array finds the frame's tag
     * through it. */
    std::uint16_t way = 0;
    /** Handle of the frame's line data in its array, assigned on the
     * first install and kept from then on. */
    std::uint32_t slot = kNoSlot;
    std::uint64_t lruStamp = 0; //!< bigger = more recently used

    bool
    writable() const
    {
        return state == CoherenceState::Modified ||
               state == CoherenceState::Exclusive;
    }
};

static_assert(sizeof(CacheLineState) == 16,
              "a cache frame's metadata stays 16 bytes");

} // namespace atomsim

#endif // ATOMSIM_CACHE_CACHE_LINE_HH
