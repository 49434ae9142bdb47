/**
 * @file
 * Unit tests for the cache substrate: array/LRU, MSHRs, and the
 * L1/L2 coherence protocol exercised through a small System.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "cache/mshr.hh"
#include "harness/system.hh"
#include "net/mesh.hh"
#include "sim/random.hh"

namespace atomsim
{
namespace
{

/** The 8-byte word at byte @p off of @p frame's line in @p arr. */
std::uint64_t
lineWord(const CacheArray &arr, const CacheLineState *frame,
         std::size_t off)
{
    std::uint64_t v = 0;
    std::memcpy(&v, arr.data(frame).data() + off, 8);
    return v;
}

TEST(CacheArrayTest, InstallAndFind)
{
    CacheArray arr(4 * 1024, 4);  // 16 sets
    CacheLineState *victim = arr.victim(0x1000);
    ASSERT_NE(victim, nullptr);
    EXPECT_FALSE(arr.valid(victim));
    arr.install(victim, 0x1000);
    EXPECT_EQ(arr.find(0x1000), victim);
    EXPECT_EQ(arr.find(0x1020), victim);  // same line
    EXPECT_EQ(arr.find(0x2000), nullptr);
}

TEST(CacheArrayTest, LruVictimSelection)
{
    CacheArray arr(4 * 1024, 4);
    // Fill one set: lines that alias to set 0 (stride = sets*64).
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    for (int i = 0; i < 4; ++i)
        arr.install(arr.victim(i * stride), i * stride);
    // Touch line 0 so line 1 becomes LRU.
    arr.touch(0);
    CacheLineState *victim = arr.victim(4 * stride);
    ASSERT_TRUE(arr.valid(victim));
    EXPECT_EQ(arr.tag(victim), stride);  // line 1 was least recently used
}

TEST(CacheArrayTest, InvalidFramePreferredOverLru)
{
    CacheArray arr(4 * 1024, 4);
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    for (int i = 0; i < 3; ++i)
        arr.install(arr.victim(i * stride), i * stride);
    CacheLineState *victim = arr.victim(7 * stride);
    EXPECT_FALSE(arr.valid(victim));
}

TEST(CacheArrayTest, InvalidateAllClearsState)
{
    CacheArray arr(4 * 1024, 4);
    arr.install(arr.victim(0x40), 0x40);
    arr.invalidateAll();
    EXPECT_EQ(arr.find(0x40), nullptr);
}

/**
 * The array-of-structs layout CacheArray replaced: every frame carries
 * its tag, valid bit, pin, LRU stamp and line data inline. The
 * differential test below holds the compact array to it.
 */
class ReferenceArray
{
  public:
    ReferenceArray(std::uint32_t size_bytes, std::uint32_t assoc,
                   std::uint32_t index_div)
        : _assoc(assoc), _indexDiv(index_div),
          _numSets(size_bytes / kLineBytes / assoc),
          _frames(size_bytes / kLineBytes)
    {
    }

    struct Frame
    {
        Addr tag = 0;
        bool valid = false;
        bool pinned = false;
        bool everInstalled = false;
        std::uint64_t lruStamp = 0;
        Line data{};

        void
        reset()
        {
            valid = false;
            pinned = false;
            lruStamp = 0;
        }
    };

    /** Frame index holding @p line, or -1. */
    int
    find(Addr line) const
    {
        const std::size_t base = setBase(line);
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            const Frame &f = _frames[base + w];
            if (f.valid && f.tag == line)
                return int(base + w);
        }
        return -1;
    }

    int
    touch(Addr line)
    {
        const int i = find(line);
        if (i >= 0)
            _frames[i].lruStamp = ++_stamp;
        return i;
    }

    int
    victim(Addr line) const
    {
        const std::size_t base = setBase(line);
        int lru = -1;
        int lru_any = -1;
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            const int i = int(base + w);
            const Frame &f = _frames[i];
            if (!f.valid)
                return i;
            if (!f.pinned &&
                (lru < 0 || f.lruStamp < _frames[lru].lruStamp))
                lru = i;
            if (lru_any < 0 || f.lruStamp < _frames[lru_any].lruStamp)
                lru_any = i;
        }
        return lru >= 0 ? lru : lru_any;
    }

    void
    install(int i, Addr line)
    {
        Frame &f = _frames[i];
        f.reset();
        f.tag = line;
        f.valid = true;
        f.everInstalled = true;
        f.lruStamp = ++_stamp;
    }

    Frame &frame(int i) { return _frames[i]; }

  private:
    std::size_t
    setBase(Addr line) const
    {
        return std::size_t((lineNumber(line) / _indexDiv) &
                           (_numSets - 1)) * _assoc;
    }

    std::uint32_t _assoc;
    std::uint32_t _indexDiv;
    std::uint32_t _numSets;
    std::uint64_t _stamp = 0;
    std::vector<Frame> _frames;
};

/** A line of bytes drawn from @p rng. */
Line
randomLine(Random &rng)
{
    Line line;
    for (auto &b : line)
        b = std::uint8_t(rng.next());
    return line;
}

/** The number of ways a set grows to for holding way @p top: the
 * growth steps 1, 2, 4, ... capped at @p assoc. */
std::uint32_t
waysFor(std::uint32_t top, std::uint32_t assoc)
{
    std::uint32_t ways = 1;
    while (ways <= top)
        ways *= 2;
    return std::min(ways, assoc);
}

/** Drive CacheArray and ReferenceArray with @p ops random operations
 * and require identical answers at every step. The operations touch
 * @p distinct_lines lines spread over @p used_sets random sets (every
 * set when 0). A second array on the same arena churns alongside, so
 * blocks one array outgrows are handed to the other. */
void
runDifferential(std::uint32_t size_bytes, std::uint32_t assoc,
                std::uint32_t index_div, std::uint32_t distinct_lines,
                int ops, std::uint64_t seed, std::uint32_t used_sets = 0)
{
    CacheArena arena;
    CacheArray arr(size_bytes, assoc, index_div, &arena);
    CacheArray other(size_bytes, assoc, index_div, &arena);
    ReferenceArray ref(size_bytes, assoc, index_div);
    const std::uint32_t sets = arr.numSets();
    // Line number n falls in set (n / index_div) % sets: build each
    // line from a chosen set, a bank and a tag.
    Random pick(seed ^ 0x5e75);
    std::vector<std::uint32_t> chosen;
    for (std::uint32_t s = 0; s < sets; ++s)
        chosen.push_back(s);
    if (used_sets != 0) {
        for (std::uint32_t i = 0; i < used_sets; ++i)
            std::swap(chosen[i], chosen[i + pick.below(sets - i)]);
        chosen.resize(used_sets);
    }
    std::vector<Addr> lines;
    for (std::uint32_t i = 0; i < distinct_lines; ++i) {
        const std::uint64_t n =
            (std::uint64_t(i / chosen.size()) * sets +
             chosen[i % chosen.size()]) * index_div +
            pick.below(index_div);
        lines.push_back(Addr(n) * kLineBytes);
    }
    // Frame identity is (set, way): frames move as their set grows,
    // but the compact frame standing for reference index i is always
    // way i % assoc of the set of the line asked for, set i / assoc.
    auto set_of = [&](Addr line) {
        return std::uint32_t((lineNumber(line) / index_div) & (sets - 1));
    };
    std::set<int> seen;  // reference frames ever matched
    std::vector<int> top_way(sets, -1);  // highest way installed, per set
    auto same_frame = [&](const CacheLineState *f, int i, Addr line) {
        if (!f || i < 0)
            return f == nullptr && i < 0;
        seen.insert(i);
        return std::uint32_t(i) / assoc == set_of(line) &&
               f->way == std::uint32_t(i) % assoc;
    };
    auto same_data = [&](const CacheLineState *f, int i) {
        return !ref.frame(i).everInstalled ||
               arr.data(f) == ref.frame(i).data;
    };

    Random rng(seed);
    std::uint32_t reinstalls_elsewhere = 0;
    std::map<Addr, int> last_frame;  // line -> frame it last occupied
    for (int op = 0; op < ops; ++op) {
        const Addr line = lines[rng.below(distinct_lines)];
        const std::uint64_t kind = rng.below(100);
        if (kind < 30) {
            // Lookup, with or without an LRU update.
            const bool lru = rng.chance(0.5);
            CacheLineState *f = lru ? arr.touch(line) : arr.find(line);
            const int i = lru ? ref.touch(line) : ref.find(line);
            ASSERT_TRUE(same_frame(f, i, line)) << "op " << op;
            if (f) {
                ASSERT_EQ(arr.tag(f), line);
                ASSERT_TRUE(same_data(f, i)) << "op " << op;
            }
        } else if (kind < 65) {
            // Miss handling: install into the victim unless resident.
            // Most installs are followed by a fill; the rest keep the
            // frame's previous bytes.
            if (arr.find(line)) {
                ASSERT_GE(ref.find(line), 0);
                continue;
            }
            ASSERT_LT(ref.find(line), 0);
            CacheLineState *f = arr.victim(line);
            const int i = ref.victim(line);
            ASSERT_TRUE(same_frame(f, i, line)) << "op " << op;
            ASSERT_EQ(arr.valid(f), ref.frame(i).valid);
            if (arr.valid(f)) {
                ASSERT_EQ(arr.tag(f), ref.frame(i).tag);
            }
            ASSERT_TRUE(same_data(f, i)) << "op " << op;
            auto prev = last_frame.find(line);
            if (prev != last_frame.end() && prev->second != i)
                ++reinstalls_elsewhere;
            last_frame[line] = i;
            top_way[set_of(line)] = std::max(top_way[set_of(line)],
                                             int(std::uint32_t(i) % assoc));
            arr.install(f, line);
            ref.install(i, line);
            ASSERT_EQ(arr.find(line), f);
            ASSERT_TRUE(arr.data(f) == ref.frame(i).data);
            // The other array takes a block or a slot now and then.
            const Addr noise = lines[rng.below(distinct_lines)];
            if (!other.find(noise))
                other.install(other.victim(noise), noise);
            if (rng.chance(0.8)) {
                const Line fill = randomLine(rng);
                arr.data(f) = fill;
                ref.frame(i).data = fill;
            }
        } else if (kind < 80) {
            // Invalidate (recall, surrender, clean drop).
            CacheLineState *f = arr.find(line);
            const int i = ref.find(line);
            ASSERT_TRUE(same_frame(f, i, line));
            if (f) {
                arr.invalidate(f);
                ref.frame(i).reset();
                ASSERT_FALSE(arr.valid(f));
            }
        } else if (kind < 92) {
            // Pin or unpin a resident line.
            CacheLineState *f = arr.find(line);
            const int i = ref.find(line);
            ASSERT_TRUE(same_frame(f, i, line));
            if (f) {
                const bool pin = rng.chance(0.6);
                f->pinned = pin;
                ref.frame(i).pinned = pin;
            }
        } else if (kind < 99) {
            // A store into a resident line.
            CacheLineState *f = arr.find(line);
            const int i = ref.find(line);
            ASSERT_TRUE(same_frame(f, i, line));
            if (f) {
                const std::size_t off = rng.below(kLineBytes);
                const auto b = std::uint8_t(rng.next());
                arr.data(f)[off] = b;
                ref.frame(i).data[off] = b;
            }
        } else {
            // Rarely, a power failure.
            arr.invalidateAll();
            for (std::uint32_t i = 0; i < size_bytes / kLineBytes; ++i)
                ref.frame(int(i)).reset();
        }
    }
    // The mix must have exercised a line coming back into a different
    // way than it last held.
    EXPECT_GT(reinstalls_elsewhere, 100u);
    // Exactly the chosen sets were allocated; a dense run saw every
    // frame.
    EXPECT_EQ(arr.setsAllocated(), chosen.size());
    if (used_sets == 0)
        EXPECT_EQ(seen.size(), std::size_t(size_bytes / kLineBytes));
    else
        EXPECT_LE(seen.size(), chosen.size() * assoc);
    // Each set holds the ways it ever filled, rounded up to the growth
    // step.
    std::uint64_t ways = 0;
    for (std::uint32_t s = 0; s < sets; ++s) {
        if (top_way[s] >= 0)
            ways += waysFor(std::uint32_t(top_way[s]), assoc);
    }
    EXPECT_EQ(arr.waysAllocated(), ways);
    EXPECT_EQ(arr.setBlockBytes(), ways * CacheArena::kWayBytes);
}

TEST(CacheArrayTest, MatchesArrayOfStructsModelL1Shape)
{
    // 4-way, 16 sets, 8 candidate lines per set.
    runDifferential(4 * 1024, 4, 1, 128, 120000, 11);
}

TEST(CacheArrayTest, MatchesArrayOfStructsModelBankedL2Shape)
{
    // 16-way, 4 sets, set index above 4 bank bits (the L2 tiles).
    runDifferential(4 * 1024, 16, 4, 512, 120000, 12);
}

TEST(CacheArrayTest, MatchesArrayOfStructsModelOnSparseSets)
{
    // 40 of 256 L1 sets, and 24 of 256 banked L2 sets.
    runDifferential(64 * 1024, 4, 1, 320, 120000, 13, 40);
    runDifferential(256 * 1024, 16, 4, 768, 120000, 14, 24);
}

TEST(CacheArrayTest, LookupInUnusedSetAllocatesNothing)
{
    CacheArray arr(64 * 1024, 4);  // 256 sets
    EXPECT_EQ(arr.setsAllocated(), 0u);
    for (Addr line = 0; line < Addr(4096) * kLineBytes; line += kLineBytes) {
        EXPECT_EQ(arr.find(line), nullptr);
        EXPECT_EQ(arr.touch(line), nullptr);
    }
    EXPECT_EQ(arr.setsAllocated(), 0u);
    EXPECT_EQ(arr.dataSlots(), 0u);

    // victim() allocates its set, and only it.
    CacheLineState *f = arr.victim(0x40);
    EXPECT_EQ(arr.setsAllocated(), 1u);
    EXPECT_FALSE(arr.valid(f));
    EXPECT_EQ(arr.victim(0x40), f);
    EXPECT_EQ(arr.setsAllocated(), 1u);
    arr.install(f, 0x40);
    EXPECT_EQ(arr.find(0x80), nullptr);
    EXPECT_EQ(arr.setsAllocated(), 1u);
}

TEST(CacheArrayTest, LinesStayPutAsSetsAreAllocated)
{
    CacheArray arr(1024 * 1024, 4);  // 4096 sets
    CacheLineState *first = arr.victim(0);
    arr.install(first, 0);
    arr.data(first).fill(0xc3);
    first->dirty = true;
    // 1,500 more sets: many block chunks later, the first line is in
    // way 0 of its set, with its tag, metadata and bytes.
    for (Addr set = 1; set <= 1500; ++set) {
        const Addr line = set * kLineBytes;
        CacheLineState *f = arr.victim(line);
        arr.install(f, line);
        arr.data(f).fill(std::uint8_t(set));
    }
    EXPECT_EQ(arr.setsAllocated(), 1501u);
    EXPECT_EQ(arr.waysAllocated(), 1501u);
    first = arr.find(0);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->way, 0u);
    EXPECT_TRUE(arr.valid(first));
    EXPECT_EQ(arr.tag(first), 0u);
    EXPECT_TRUE(first->dirty);
    Line expect;
    expect.fill(0xc3);
    EXPECT_TRUE(arr.data(first) == expect);
    for (Addr set = 1; set <= 1500; ++set) {
        const CacheLineState *f = arr.find(set * kLineBytes);
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->way, 0u);
        EXPECT_EQ(arr.tag(f), set * kLineBytes);
        EXPECT_EQ(arr.data(f)[63], std::uint8_t(set));
    }
}

TEST(CacheArrayTest, InvalidateAllOnPartlyAllocatedArrayThenReinstall)
{
    CacheArray arr(64 * 1024, 4);  // 256 sets
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    // Two ways in each of 37 sets (spanning several block chunks).
    for (Addr set = 0; set < 37; ++set) {
        for (Addr tag = 0; tag < 2; ++tag) {
            const Addr line = tag * stride + set * 3 * kLineBytes;
            CacheLineState *f = arr.victim(line);
            EXPECT_EQ(f->way, tag);
            arr.install(f, line);
            arr.data(f).fill(std::uint8_t(set * 2 + tag + 1));
        }
    }
    // Pin every line, through a fresh lookup: the second install of
    // each set grew it and moved its first frame.
    for (Addr set = 0; set < 37; ++set) {
        for (Addr tag = 0; tag < 2; ++tag)
            arr.find(tag * stride + set * 3 * kLineBytes)->pinned = true;
    }
    EXPECT_EQ(arr.setsAllocated(), 37u);
    EXPECT_EQ(arr.waysAllocated(), 74u);
    EXPECT_EQ(arr.dataSlots(), 74u);

    arr.invalidateAll();
    for (Addr set = 0; set < 37; ++set) {
        for (Addr tag = 0; tag < 2; ++tag)
            EXPECT_EQ(arr.find(tag * stride + set * 3 * kLineBytes),
                      nullptr);
    }
    EXPECT_EQ(arr.setsAllocated(), 37u);
    EXPECT_EQ(arr.waysAllocated(), 74u);

    // Reinstalls land in the same (set, way), reset but still holding
    // its old bytes until a fill; nothing new is allocated.
    for (Addr set = 0; set < 37; ++set) {
        for (Addr tag = 0; tag < 2; ++tag) {
            const Addr line = (tag + 5) * stride + set * 3 * kLineBytes;
            CacheLineState *f = arr.victim(line);
            EXPECT_EQ(f->way, tag);
            EXPECT_FALSE(arr.valid(f));
            EXPECT_FALSE(f->pinned);
            EXPECT_EQ(f->lruStamp, 0u);
            arr.install(f, line);
            EXPECT_EQ(arr.find(line), f);
            EXPECT_EQ(arr.data(f)[0], std::uint8_t(set * 2 + tag + 1));
        }
    }
    EXPECT_EQ(arr.setsAllocated(), 37u);
    EXPECT_EQ(arr.waysAllocated(), 74u);
    EXPECT_EQ(arr.dataSlots(), 74u);
}

TEST(CacheArrayTest, ReinstallIntoAnotherWayKeepsThatWaysBytes)
{
    CacheArray arr(4 * 1024, 4);
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    // Ways 0..2 hold lines A, B, X of set 0; X carries its own bytes.
    arr.install(arr.victim(0), 0);
    arr.data(arr.find(0)).fill(0xaa);
    arr.install(arr.victim(stride), stride);
    arr.install(arr.victim(2 * stride), 2 * stride);
    arr.data(arr.find(2 * stride)).fill(0x55);
    CacheLineState *fa = arr.find(0);
    CacheLineState *fx = arr.find(2 * stride);
    EXPECT_EQ(fa->way, 0u);
    EXPECT_EQ(fx->way, 2u);
    // Drop A and X: X's next install lands in A's old way, which
    // still holds A's bytes until a fill overwrites them.
    arr.invalidate(fa);
    arr.invalidate(fx);
    CacheLineState *again = arr.victim(2 * stride);
    EXPECT_EQ(again->way, 0u);
    arr.install(again, 2 * stride);
    EXPECT_EQ(arr.find(2 * stride), again);
    EXPECT_EQ(arr.data(again)[0], 0xaa);
    // Way 2 kept X's bytes; the next victim of the set takes it.
    CacheLineState *way2 = arr.victim(3 * stride);
    EXPECT_EQ(way2->way, 2u);
    EXPECT_FALSE(arr.valid(way2));
    EXPECT_EQ(arr.data(way2)[0], 0x55);
}

TEST(CacheArrayTest, FramesOfAFullSetNeverMove)
{
    CacheArray arr(64 * 1024, 4);  // 256 sets
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    // Fill set 0: a frame is full() only once its set has all 4 ways,
    // which the third line brings (1 -> 2 -> 4 ways).
    for (Addr tag = 0; tag < 4; ++tag) {
        arr.install(arr.victim(tag * stride), tag * stride);
        EXPECT_EQ(arr.full(arr.find(0)), tag >= 2);
    }
    std::vector<CacheLineState *> held;
    for (Addr tag = 0; tag < 4; ++tag) {
        held.push_back(arr.find(tag * stride));
        held.back()->dirty = true;
        EXPECT_TRUE(arr.full(held.back()));
    }
    // Other sets grow through every step and hand their outgrown
    // blocks back to the arena, which gives them out again.
    for (Addr set = 1; set < 200; ++set) {
        for (Addr tag = 0; tag < 1 + set % 4; ++tag) {
            const Addr line = tag * stride + set * kLineBytes;
            arr.install(arr.victim(line), line);
        }
        // Three lines grow a set 1 -> 2 -> 4 ways: full.
        EXPECT_EQ(arr.full(arr.find(set * kLineBytes)), set % 4 >= 2);
    }
    EXPECT_GT(arr.arena().freeBlockBytes(), 0u);
    // Set 0 itself: an eviction and an invalidate-and-reinstall.
    CacheLineState *lru = arr.victim(9 * stride);
    EXPECT_EQ(lru, held[0]);
    arr.install(lru, 9 * stride);
    arr.invalidate(held[2]);
    EXPECT_EQ(arr.victim(10 * stride), held[2]);
    arr.install(held[2], 10 * stride);
    // A power failure keeps the set's ways too.
    arr.invalidateAll();
    for (Addr tag = 0; tag < 4; ++tag) {
        const Addr line = (tag + 20) * stride;
        CacheLineState *f = arr.victim(line);
        EXPECT_EQ(f, held[tag]);
        arr.install(f, line);
        EXPECT_EQ(arr.find(line), held[tag]);
        EXPECT_TRUE(arr.full(held[tag]));
    }
}

TEST(CacheArrayTest, WaysAllocatedAreTheLinesASetHeldRoundedToTheGrowthStep)
{
    CacheArray arr(64 * 1024, 16);  // 64 sets
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    // Set s ends up having held s + 1 lines at once.
    std::uint64_t expect = 0;
    for (Addr set = 0; set < 16; ++set) {
        for (Addr tag = 0; tag <= set; ++tag) {
            const Addr line = tag * stride + set * kLineBytes;
            CacheLineState *f = arr.victim(line);
            EXPECT_FALSE(arr.valid(f));
            EXPECT_EQ(f->way, tag);
            arr.install(f, line);
        }
        expect += waysFor(std::uint32_t(set), 16);
        EXPECT_EQ(arr.waysAllocated(), expect);
    }
    EXPECT_EQ(waysFor(0, 16), 1u);
    EXPECT_EQ(waysFor(4, 16), 8u);
    EXPECT_EQ(waysFor(15, 16), 16u);
    EXPECT_EQ(arr.setBlockBytes(), expect * CacheArena::kWayBytes);
    // Churning lines through a set that still has an invalid way, or
    // refilling after a power failure, grows nothing.
    for (int i = 0; i < 100; ++i) {
        const Addr line = Addr(i + 100) * stride + 5 * kLineBytes;
        CacheLineState *f = arr.victim(line);
        arr.install(f, line);
        arr.invalidate(f);
    }
    arr.invalidateAll();
    for (Addr set = 0; set < 16; ++set) {
        for (Addr tag = 0; tag <= set; ++tag) {
            const Addr line = (tag + 50) * stride + set * kLineBytes;
            arr.install(arr.victim(line), line);
        }
    }
    EXPECT_EQ(arr.waysAllocated(), expect);
    EXPECT_EQ(arr.setsAllocated(), 16u);
    // A set whose ways are all valid grows by the next step: set 4
    // has 8 ways holding 5 lines after the refill.
    for (Addr tag = 0; tag < 3; ++tag) {
        const Addr line = (tag + 90) * stride + 4 * kLineBytes;
        arr.install(arr.victim(line), line);
    }
    EXPECT_EQ(arr.waysAllocated(), expect);
    const Addr ninth = 95 * stride + 4 * kLineBytes;
    CacheLineState *f = arr.victim(ninth);
    EXPECT_EQ(f->way, 8u);
    EXPECT_EQ(arr.waysAllocated(), expect + 8);
}

TEST(CacheArrayTest, GrowsASetWhoseAllocatedWaysAreAllPinned)
{
    // The full array would pick an invalid way past the pinned ones;
    // the grown set picks the same way.
    CacheArray arr(64 * 1024, 16);  // 64 sets
    ReferenceArray ref(64 * 1024, 16, 1);
    const Addr stride = Addr(arr.numSets()) * kLineBytes;
    for (Addr tag = 0; tag < 16; ++tag) {
        const Addr line = tag * stride;
        CacheLineState *f = arr.victim(line);
        const int i = ref.victim(line);
        EXPECT_EQ(f->way, std::uint32_t(i));
        EXPECT_FALSE(arr.valid(f));
        arr.install(f, line);
        ref.install(i, line);
        // Pin every line the set holds so far.
        for (Addr t = 0; t <= tag; ++t) {
            arr.find(t * stride)->pinned = true;
            ref.frame(ref.find(t * stride)).pinned = true;
        }
    }
    EXPECT_EQ(arr.waysAllocated(), 16u);
    // Full and all pinned: plain LRU, as in the full array.
    CacheLineState *f = arr.victim(99 * stride);
    EXPECT_EQ(f->way, std::uint32_t(ref.victim(99 * stride)));
    EXPECT_EQ(f->way, 0u);
    EXPECT_TRUE(arr.full(f));
    EXPECT_EQ(arr.waysAllocated(), 16u);
}

TEST(CacheArrayTest, ArraysShareOneArenaAndReuseOutgrownBlocks)
{
    CacheArena arena;
    CacheArray a(64 * 1024, 4, 1, &arena);
    CacheArray b(64 * 1024, 16, 1, &arena);
    EXPECT_EQ(arena.blockChunkBytes(), 0u);
    EXPECT_EQ(arena.slotsAllocated(), 0u);
    // Set 0 of a grows 1 -> 2 -> 4 ways: its 1- and 2-way blocks go
    // on the free lists.
    const Addr stride_a = Addr(a.numSets()) * kLineBytes;
    for (Addr tag = 0; tag < 3; ++tag)
        a.install(a.victim(tag * stride_a), tag * stride_a);
    EXPECT_EQ(a.waysAllocated(), 4u);
    EXPECT_EQ(arena.freeBlockBytes(), 3 * CacheArena::kWayBytes);
    const std::size_t chunks = arena.blockChunkBytes();
    // b's set 0 takes the 1-way block, then grows into the 2-way one
    // and gives the 1-way block back, which b's set 1 takes.
    b.install(b.victim(0), 0);
    const Addr stride_b = Addr(b.numSets()) * kLineBytes;
    b.install(b.victim(stride_b), stride_b);
    EXPECT_EQ(arena.freeBlockBytes(), CacheArena::kWayBytes);
    b.install(b.victim(kLineBytes), kLineBytes);
    EXPECT_EQ(b.waysAllocated(), 3u);
    EXPECT_EQ(arena.freeBlockBytes(), 0u);
    EXPECT_EQ(arena.blockChunkBytes(), chunks);
    // Line data comes from one slot store, handed out zeroed.
    EXPECT_EQ(arena.slotsUsed(), a.dataSlots() + b.dataSlots());
    EXPECT_EQ(arena.slotsUsed(), 6u);
    const Line zero{};
    EXPECT_TRUE(b.data(b.find(kLineBytes)) == zero);
}

TEST(CacheArrayTest, LineDataGrowsOnlyWithDistinctFramesInstalled)
{
    // 1024 frames (16-way, 64 sets); no line data until installs.
    CacheArray arr(64 * 1024, 16);
    const std::uint32_t frames = 64 * 1024 / kLineBytes;
    EXPECT_EQ(arr.dataSlots(), 0u);
    EXPECT_EQ(arr.arena().slotsAllocated(), 0u);

    // Churning one line through install/invalidate reuses its frame;
    // the first install takes the first chunk.
    CacheLineState *churned = nullptr;
    for (int i = 0; i < 1000; ++i) {
        churned = arr.victim(0x40);
        arr.install(churned, 0x40);
        arr.invalidate(churned);
    }
    const std::uint32_t first_chunk = arr.arena().slotsAllocated();
    EXPECT_EQ(arr.dataSlots(), 1u);
    EXPECT_GT(first_chunk, 0u);
    EXPECT_LT(first_chunk, frames / 16);

    // n distinct frames, each a (set, way), hold n slots, in at most
    // twice the storage.
    const Addr sets = arr.numSets();
    std::set<std::pair<Addr, std::uint32_t>> distinct{
        {lineNumber(0x40) % sets, churned->way}};
    Addr line = 0;
    for (std::uint32_t n : {8u, 100u, 300u, frames}) {
        for (; distinct.size() < n; line += kLineBytes) {
            CacheLineState *f = arr.victim(line);
            ASSERT_FALSE(arr.valid(f));
            arr.install(f, line);
            distinct.insert({lineNumber(line) % sets, f->way});
        }
        const auto used = std::uint32_t(distinct.size());
        EXPECT_EQ(arr.dataSlots(), used);
        EXPECT_LE(arr.arena().slotsAllocated(),
                  std::max(first_chunk, 2 * used));
    }
    EXPECT_EQ(arr.arena().slotsAllocated(), frames);

    // Power failure and a full reinstall allocate nothing new.
    arr.invalidateAll();
    const Addr other = Addr(frames) * kLineBytes;  // same sets
    for (Addr l = other; l < 2 * other; l += kLineBytes)
        arr.install(arr.victim(l), l);
    EXPECT_EQ(arr.dataSlots(), frames);
    EXPECT_EQ(arr.arena().slotsAllocated(), frames);
}

TEST(SharerSetTest, MatchesABitsetForCoreIdsUpTo1023)
{
    SharerSpill spill(1024);
    ASSERT_EQ(spill.words(), 15u);
    std::vector<SharerSet> sets;
    std::vector<std::bitset<1024>> ref(8);
    for (int i = 0; i < 8; ++i)
        sets.emplace_back(&spill);
    Random rng(23);
    for (int op = 0; op < 50000; ++op) {
        const std::size_t i = rng.below(sets.size());
        // Mostly high ids, with the word-0 and word-boundary cores.
        const std::uint64_t pick = rng.below(10);
        const CoreId core = pick == 0   ? CoreId(rng.below(64))
                            : pick == 1 ? CoreId(64 * rng.range(1, 15) -
                                                 rng.below(2))
                                        : CoreId(rng.below(1024));
        const std::uint64_t kind = rng.below(100);
        if (kind < 50) {
            sets[i].set(core);
            ref[i].set(core);
        } else if (kind < 85) {
            sets[i].clear(core);
            ref[i].reset(core);
        } else if (kind < 88) {
            sets[i].reset();
            ref[i].reset();
        } else if (kind < 91) {
            // Move out and back, as the invalidation rounds do.
            SharerSet moved = std::move(sets[i]);
            EXPECT_TRUE(sets[i].none());
            EXPECT_EQ(moved.count(), ref[i].count());
            sets[i] = std::move(moved);
        }
        ASSERT_EQ(sets[i].test(core), ref[i].test(core)) << "op " << op;
        ASSERT_EQ(sets[i].count(), ref[i].count()) << "op " << op;
        ASSERT_EQ(sets[i].none(), ref[i].none());
        ASSERT_EQ(sets[i].anyBut(core),
                  ref[i].count() > (ref[i].test(core) ? 1u : 0u));
    }
    for (std::size_t i = 0; i < sets.size(); ++i) {
        std::vector<CoreId> members;
        sets[i].forEach([&](CoreId c) { members.push_back(c); });
        std::vector<CoreId> want;
        for (CoreId c = 0; c < 1024; ++c) {
            if (ref[i].test(c))
                want.push_back(c);
            ASSERT_EQ(sets[i].test(c), ref[i].test(c));
        }
        EXPECT_EQ(members, want);  // ascending core ids
    }
    // At most one block per set; all come back with the sets.
    EXPECT_LE(spill.created(), sets.size());
    sets.clear();
    EXPECT_EQ(spill.live(), 0u);
}

TEST(SharerSetTest, DirectoryRecyclesSpillBlocksAcrossEntries)
{
    // A fresh entry per line, each gaining a high sharer and then
    // handing its sharers to a round: the spill reuses a block
    // instead of allocating per entry.
    Directory dir(1024);
    for (Addr line = 0; line < 1000 * kLineBytes; line += kLineBytes) {
        DirEntry &entry = dir.entry(line);
        entry.sharers.set(CoreId(100 + line / kLineBytes % 900));
        entry.sharers.set(3);
        const SharerSet round = std::move(entry.sharers);
        EXPECT_EQ(round.count(), 2u);
        entry.sharers.set(1023);  // the entry spills again
        dir.erase(line);
    }
    EXPECT_EQ(dir.spill().live(), 0u);
    EXPECT_LE(dir.spill().created(), 2u);
}

TEST(MshrTest, TracksOutstandingMisses)
{
    MshrTable mshrs(2);
    EXPECT_FALSE(mshrs.has(0x100));
    mshrs.allocate(0x100);
    EXPECT_TRUE(mshrs.has(0x100));
    EXPECT_TRUE(mshrs.has(0x13f));  // same line
    EXPECT_FALSE(mshrs.full());
    mshrs.allocate(0x200);
    EXPECT_TRUE(mshrs.full());
}

namespace
{

/** Run a completed miss's waiter chain to the end. */
void
runChain(MshrTable &mshrs, Addr line)
{
    for (MshrTable::Waiter *w = mshrs.complete(line); w;)
        w = mshrs.runAndPop(w);
}

} // namespace

TEST(MshrTest, WaitersRunOnComplete)
{
    MshrTable mshrs(2);
    mshrs.allocate(0x100);
    int ran = 0;
    mshrs.addWaiter(0x100, [&] { ++ran; });
    mshrs.addWaiter(0x100, [&] { ++ran; });
    runChain(mshrs, 0x100);
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(mshrs.has(0x100));
}

TEST(MshrTest, OverflowAdmittedWhenEntryFrees)
{
    MshrTable mshrs(1);
    mshrs.allocate(0x100);
    int overflow_ran = 0;
    mshrs.queueForFree([&] { ++overflow_ran; });
    EXPECT_EQ(mshrs.overflowDepth(), 1u);
    runChain(mshrs, 0x100);
    EXPECT_EQ(overflow_ran, 1);
    EXPECT_EQ(mshrs.overflowDepth(), 0u);
}

TEST(MshrTest, CoalescedWaitersFireInOrder)
{
    MshrTable mshrs(4);
    mshrs.allocate(0x100);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        mshrs.addWaiter(0x100, [&order, i] { order.push_back(i); });
    runChain(mshrs, 0x100);
    ASSERT_EQ(order.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(order[i], i);  // strict FIFO
}

// The continuation is a fixed-capacity inline callable: captures that
// outgrow it fail to compile, so the miss path can never fall back to
// heap allocation. Pin the budget here.
static_assert(MshrTable::kContinuationBytes == 72,
              "MSHR continuation capacity changed: re-audit miss-path "
              "captures and the waiter-node budget");
static_assert(sizeof(MshrTable::Continuation) <=
                  MshrTable::kContinuationBytes + 2 * sizeof(void *),
              "MSHR continuation carries unexpected overhead");

TEST(MshrTest, ContinuationPoolReusedWithoutAllocation)
{
    MshrTable mshrs(4);

    // Warm up: establish the pool high-water mark.
    for (int round = 0; round < 4; ++round) {
        mshrs.allocate(0x100);
        for (int i = 0; i < 8; ++i)
            mshrs.addWaiter(0x100, [] {});
        runChain(mshrs, 0x100);
    }
    const std::size_t high_water = mshrs.waiterPoolAllocated();
    EXPECT_GE(high_water, 8u);
    EXPECT_EQ(mshrs.waiterPoolFree(), high_water);

    // Churn: repeated allocate/wait/complete cycles (including
    // overflow admissions) must reuse pooled nodes, never grow.
    for (int round = 0; round < 1000; ++round) {
        const Addr line = 0x1000 + Addr(round % 4) * 0x40;
        mshrs.allocate(line);
        for (int i = 0; i < 8; ++i)
            mshrs.addWaiter(line, [] {});
        runChain(mshrs, line);
    }
    EXPECT_EQ(mshrs.waiterPoolAllocated(), high_water);
    EXPECT_EQ(mshrs.waiterPoolFree(), high_water);
}

TEST(MshrTest, EntriesReusedAcrossDistinctLines)
{
    MshrTable mshrs(2);
    for (int round = 0; round < 64; ++round) {
        const Addr a = 0x4000 + Addr(round) * 0x80;
        const Addr b = a + 0x40;
        mshrs.allocate(a);
        mshrs.allocate(b);
        EXPECT_TRUE(mshrs.full());
        int ran = 0;
        mshrs.addWaiter(a, [&] { ++ran; });
        mshrs.addWaiter(b, [&] { ++ran; });
        runChain(mshrs, a);
        runChain(mshrs, b);
        EXPECT_EQ(ran, 2);
        EXPECT_EQ(mshrs.active(), 0u);
    }
    // Two entries' worth of single waiters: the pool never outgrows
    // the concurrent peak.
    EXPECT_LE(mshrs.waiterPoolAllocated(), 2u);
}

TEST(MshrTest, WaiterMayReallocateSameLineReentrantly)
{
    // A waiter that immediately re-misses the same line (the L1 retry
    // pattern) must see a fresh entry, not the completing one.
    MshrTable mshrs(2);
    mshrs.allocate(0x100);
    bool reallocated = false;
    mshrs.addWaiter(0x100, [&] {
        EXPECT_FALSE(mshrs.has(0x100));
        mshrs.allocate(0x100);
        mshrs.addWaiter(0x100, [&] { reallocated = true; });
    });
    runChain(mshrs, 0x100);
    EXPECT_TRUE(mshrs.has(0x100));
    runChain(mshrs, 0x100);
    EXPECT_TRUE(reallocated);
}

/** Protocol tests: drive L1s directly inside a small system. */
class ProtocolTest : public ::testing::Test
{
  protected:
    static SystemConfig
    config()
    {
        SystemConfig cfg;
        cfg.numCores = 4;
        cfg.l2Tiles = 4;
        cfg.meshRows = 2;
        cfg.ausPerMc = 4;
        cfg.design = DesignKind::NonAtomic;
        return cfg;
    }

    ProtocolTest() : sys(config(), Addr(16) * 1024 * 1024) {}

    void
    drain()
    {
        sys.eventQueue().run();
    }

    System sys;
    static constexpr Addr kAddr = 0x10040;
};

TEST_F(ProtocolTest, LoadMissFillsExclusive)
{
    bool done = false;
    sys.l1(0).load(kAddr, [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Exclusive);
    EXPECT_FALSE(line->dirty);
}

TEST_F(ProtocolTest, StoreMissFillsModifiedWithData)
{
    const std::uint64_t value = 0x1122334455667788ULL;
    bool done = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { done = true; });
    drain();
    ASSERT_TRUE(done);
    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
    EXPECT_TRUE(line->dirty);
    const std::uint64_t back =
        lineWord(sys.l1(0).array(), line, kAddr % kLineBytes);
    EXPECT_EQ(back, value);
}

TEST_F(ProtocolTest, SecondReaderDowngradesOwnerToShared)
{
    const std::uint64_t value = 42;
    bool s0 = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { s0 = true; });
    drain();
    ASSERT_TRUE(s0);

    bool l1done = false;
    sys.l1(1).load(kAddr, [&] { l1done = true; });
    drain();
    ASSERT_TRUE(l1done);

    const CacheLineState *owner = sys.l1(0).array().find(kAddr);
    const CacheLineState *reader = sys.l1(1).array().find(kAddr);
    ASSERT_NE(owner, nullptr);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(owner->state, CoherenceState::Shared);
    EXPECT_EQ(reader->state, CoherenceState::Shared);
    // Reader sees the writer's data through the 3-hop forward.
    const std::uint64_t back =
        lineWord(sys.l1(1).array(), reader, kAddr % kLineBytes);
    EXPECT_EQ(back, 42u);
}

TEST_F(ProtocolTest, WriterInvalidatesSharers)
{
    bool a = false;
    bool b = false;
    sys.l1(0).load(kAddr, [&] { a = true; });
    drain();
    sys.l1(1).load(kAddr, [&] { b = true; });
    drain();
    ASSERT_TRUE(a && b);

    const std::uint64_t value = 7;
    bool wrote = false;
    sys.l1(2).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    drain();
    ASSERT_TRUE(wrote);

    EXPECT_EQ(sys.l1(0).array().find(kAddr), nullptr);
    EXPECT_EQ(sys.l1(1).array().find(kAddr), nullptr);
    const CacheLineState *writer = sys.l1(2).array().find(kAddr);
    ASSERT_NE(writer, nullptr);
    EXPECT_EQ(writer->state, CoherenceState::Modified);
}

TEST_F(ProtocolTest, OwnershipMigratesBetweenWriters)
{
    const std::uint64_t v1 = 1;
    const std::uint64_t v2 = 2;
    bool w1 = false;
    bool w2 = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&v1), 8,
                    [&] { w1 = true; });
    drain();
    sys.l1(1).store(kAddr + 8, reinterpret_cast<const std::uint8_t *>(&v2),
                    8, [&] { w2 = true; });
    drain();
    ASSERT_TRUE(w1 && w2);

    EXPECT_EQ(sys.l1(0).array().find(kAddr), nullptr);
    const CacheLineState *line = sys.l1(1).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
    // The second writer's line must contain both stores.
    const std::uint64_t back1 =
        lineWord(sys.l1(1).array(), line, kAddr % kLineBytes);
    const std::uint64_t back2 =
        lineWord(sys.l1(1).array(), line, kAddr % kLineBytes + 8);
    EXPECT_EQ(back1, 1u);
    EXPECT_EQ(back2, 2u);
}

TEST_F(ProtocolTest, UpgradeFromSharedToModified)
{
    bool a = false;
    sys.l1(0).load(kAddr, [&] { a = true; });
    drain();
    sys.l1(1).load(kAddr, [&] { a = true; });
    drain();
    // Core 0 is Shared now; store triggers an upgrade.
    const std::uint64_t value = 9;
    bool wrote = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    drain();
    ASSERT_TRUE(wrote);
    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
    EXPECT_EQ(sys.l1(1).array().find(kAddr), nullptr);
}

TEST_F(ProtocolTest, FlushMakesLineDurableAndClean)
{
    const std::uint64_t value = 0xfeedfaceULL;
    bool wrote = false;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    drain();
    ASSERT_TRUE(wrote);
    EXPECT_EQ(sys.nvmImage().load64(kAddr), 0u);  // still volatile

    bool flushed = false;
    sys.l1(0).flush(kAddr, [&] { flushed = true; });
    drain();
    ASSERT_TRUE(flushed);
    EXPECT_EQ(sys.nvmImage().load64(kAddr), value);

    const CacheLineState *line = sys.l1(0).array().find(kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(line->dirty);   // clean after writeback
    EXPECT_TRUE(sys.l1(0).array().valid(line));  // clwb keeps it cached
}

TEST_F(ProtocolTest, FlushOfCleanLineStillAcks)
{
    bool loaded = false;
    sys.l1(0).load(kAddr, [&] { loaded = true; });
    drain();
    bool flushed = false;
    sys.l1(0).flush(kAddr, [&] { flushed = true; });
    drain();
    EXPECT_TRUE(flushed);
}

TEST_F(ProtocolTest, EvictionWritesBackThroughL2)
{
    // Fill one L1 set beyond capacity with dirty lines; the victim's
    // data must survive in the L2 and be readable by another core.
    const std::uint32_t sets =
        config().l1SizeBytes / (config().l1Assoc * kLineBytes);
    const Addr stride = Addr(sets) * kLineBytes;
    const Addr base = 0x40000;

    for (std::uint32_t i = 0; i <= config().l1Assoc; ++i) {
        const std::uint64_t value = 100 + i;
        bool done = false;
        sys.l1(0).store(base + i * stride,
                        reinterpret_cast<const std::uint8_t *>(&value), 8,
                        [&] { done = true; });
        drain();
        ASSERT_TRUE(done);
    }
    // The first line was evicted from the L1.
    EXPECT_EQ(sys.l1(0).array().find(base), nullptr);

    bool read = false;
    sys.l1(1).load(base, [&] { read = true; });
    drain();
    ASSERT_TRUE(read);
    const CacheLineState *line = sys.l1(1).array().find(base);
    ASSERT_NE(line, nullptr);
    const std::uint64_t back =
        lineWord(sys.l1(1).array(), line, 0);
    EXPECT_EQ(back, 100u);
}

TEST_F(ProtocolTest, PowerFailReclaimsInFlightStoreState)
{
    // Leave a store mid-miss (its continuation lives in an MSHR
    // waiter pointing at a pooled PendingStore slot), then pull the
    // plug: the slot must return to the pool, not strand.
    const std::uint64_t value = 1;
    sys.l1(0).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [] {});
    sys.eventQueue().run(sys.eventQueue().now() + 5);
    EXPECT_EQ(sys.l1(0).outstandingMisses(), 1u);
    EXPECT_EQ(sys.l1(0).storePoolAllocated(), 1u);
    EXPECT_EQ(sys.l1(0).storePoolFree(), 0u);

    sys.powerFail();
    EXPECT_EQ(sys.l1(0).outstandingMisses(), 0u);
    EXPECT_EQ(sys.l1(0).storePoolFree(), sys.l1(0).storePoolAllocated());
}

TEST_F(ProtocolTest, MshrMergesConcurrentAccessesToOneLine)
{
    int done = 0;
    sys.l1(0).load(kAddr, [&] { ++done; });
    sys.l1(0).load(kAddr + 8, [&] { ++done; });
    sys.l1(0).load(kAddr + 16, [&] { ++done; });
    drain();
    EXPECT_EQ(done, 3);
    // A single L2 miss despite three accesses.
    EXPECT_EQ(sys.stats().sum("l2t", "misses"), 1u);
}

/** Counts mesh deliveries per message kind. */
class KindCounter : public Mesh::Tracer
{
  public:
    void
    onDeliver(Tick, std::uint32_t, MsgType type) override
    {
        ++counts[std::size_t(type)];
    }

    std::uint64_t
    of(MsgType t) const
    {
        return counts[std::size_t(t)];
    }

    std::array<std::uint64_t, 64> counts{};
};

TEST_F(ProtocolTest, ReadMissRacesInFlightInvalidateAtDirectory)
{
    // Split-phase recall/ack vs. demand-miss race: a GetX's
    // invalidation round is in flight (the line busy at its home
    // tile, Inv packets en route to the sharers) when an L1 read miss
    // for the same line reaches the directory. The GetS must queue
    // behind the busy bit, then resolve through a forward to the new
    // owner -- never observe the half-invalidated sharer set.

    // Two sharers.
    bool a = false;
    bool b = false;
    sys.l1(0).load(kAddr, [&] { a = true; });
    drain();
    sys.l1(1).load(kAddr, [&] { b = true; });
    drain();
    ASSERT_TRUE(a && b);

    // Count protocol messages of the race itself only (the setup's
    // second load already forwarded once through the first reader).
    KindCounter kinds;
    sys.mesh().setTracer(&kinds);

    // Writer starts a GetX; single-step until the invalidate has
    // reached core 0 (its copy is gone) but the write has not yet
    // completed -- the invalidation/grant leg is still in flight.
    const std::uint64_t value = 7;
    bool wrote = false;
    sys.l1(2).store(kAddr, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    EventQueue &eq = sys.eventQueue();
    while (sys.l1(0).array().find(kAddr) != nullptr && !wrote)
        eq.run(eq.now() + 1);
    ASSERT_FALSE(wrote)
        << "store completed before the invalidate landed; race window "
           "missed";
    ASSERT_GE(kinds.of(MsgType::Inv), 1u);

    // Reader misses the same line while the GetX transaction is still
    // in flight: the GetS reaches the directory behind the live
    // invalidation round and must serialize after it.
    bool read_done = false;
    sys.l1(0).load(kAddr, [&] { read_done = true; });
    drain();
    ASSERT_TRUE(wrote);
    ASSERT_TRUE(read_done);

    // Final state: the reader and the writer both end Shared (the
    // read forwarded through the new owner and downgraded it), and the
    // line carries the written value everywhere.
    const CacheLineState *writer = sys.l1(2).array().find(kAddr);
    const CacheLineState *reader = sys.l1(0).array().find(kAddr);
    ASSERT_NE(writer, nullptr);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(writer->state, CoherenceState::Shared);
    EXPECT_EQ(reader->state, CoherenceState::Shared);
    const std::uint64_t back =
        lineWord(sys.l1(0).array(), reader, kAddr % kLineBytes);
    EXPECT_EQ(back, value);
    // The second sharer stayed invalidated.
    EXPECT_EQ(sys.l1(1).array().find(kAddr), nullptr);

    // Mesh accounting: the GetX invalidated both sharers (2 Inv +
    // 2 InvAck), and the racing GetS resolved as a forward through
    // the new owner (FwdGetS + FwdAckS, the home then granting the
    // reader).
    EXPECT_EQ(kinds.of(MsgType::Inv), 2u);
    EXPECT_EQ(kinds.of(MsgType::InvAck), 2u);
    EXPECT_EQ(kinds.of(MsgType::FwdGetS), 1u);
    EXPECT_EQ(kinds.of(MsgType::FwdAckS), 1u);
    sys.mesh().setTracer(nullptr);
}

TEST(SplitPhaseEvictionRaceTest, QueuedDemandMissWaitsOutEvictionRound)
{
    // Regression: a demand miss that queues on the victim line's busy
    // bit *during* a split-phase eviction round must re-run against
    // the re-tagged frame (a clean miss + refetch) once the round
    // completes -- not be granted the stale still-valid copy the L2
    // is dropping (which left the directory tracking an owner for a
    // line no longer resident: a later PutM then tripped the
    // inclusion panic).
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::NonAtomic;
    cfg.l2TileBytes = 4096;  // direct-mapped 64-set tiles: any
    cfg.l2Assoc = 1;         // same-set fill evicts the occupant
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    const Addr lineB = 0x40000;
    // Same home tile and same set as B: stride = tiles * sets lines.
    const Addr lineA =
        lineB + Addr(cfg.l2Tiles) * 64 * kLineBytes;

    // Core 0 owns B dirty.
    const std::uint64_t value = 0xabcdef0123ULL;
    bool wrote = false;
    sys.l1(0).store(lineB,
                    reinterpret_cast<const std::uint8_t *>(&value), 8,
                    [&] { wrote = true; });
    eq.run();
    ASSERT_TRUE(wrote);

    // Core 1 fills A, evicting B at the home tile: a split-phase
    // recall round on B (Recall to core 0 in flight, B busy).
    bool filled = false;
    sys.l1(1).load(lineA, [&] { filled = true; });
    bool round_live = false;
    for (int i = 0; i < 100000 && !round_live; ++i) {
        eq.run(eq.now() + 1);
        for (std::uint32_t t = 0; t < cfg.l2Tiles; ++t) {
            L2Tile &tile = sys.l2Tile(t);
            if (tile.roundPoolAllocated() > tile.roundPoolFree())
                round_live = true;
        }
    }
    ASSERT_TRUE(round_live) << "eviction round never went in flight";

    // Core 2's read miss for B reaches the directory mid-round and
    // queues on the busy bit.
    bool read = false;
    sys.l1(2).load(lineB, [&] { read = true; });
    eq.run();
    ASSERT_TRUE(filled);
    ASSERT_TRUE(read);

    // The reader refetched B cleanly: it holds core 0's data, and
    // inclusion holds (B resident at its home tile again).
    const CacheLineState *line = sys.l1(2).array().find(lineB);
    ASSERT_NE(line, nullptr);
    const std::uint64_t back =
        lineWord(sys.l1(2).array(), line, 0);
    EXPECT_EQ(back, value);
    const std::uint32_t home = sys.addressMap().homeTile(lineB);
    EXPECT_NE(sys.l2Tile(home).array().find(lineB), nullptr);

    // And the line stays fully coherent: core 2 can take ownership
    // and write back without tripping the home's inclusion check.
    const std::uint64_t value2 = 0x5555aaaaULL;
    bool wrote2 = false;
    sys.l1(2).store(lineB,
                    reinterpret_cast<const std::uint8_t *>(&value2), 8,
                    [&] { wrote2 = true; });
    eq.run();
    ASSERT_TRUE(wrote2);
    bool flushed = false;
    sys.l1(2).flush(lineB, [&] { flushed = true; });
    eq.run();
    ASSERT_TRUE(flushed);
    EXPECT_EQ(sys.nvmImage().load64(lineB), value2);
}

TEST(WbHitFastPathTest, LoadMissServedFromOwnWritebackBuffer)
{
    // SystemConfig::l1WbHit: a load miss whose line sits in the L1's
    // own writeback buffer (PutM in flight) completes locally -- no
    // GetS, no array install -- and once the buffer drains the next
    // access refetches through home as usual. The race under test:
    // the load lands in the window between the eviction and the
    // home's WbAck.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::NonAtomic;
    cfg.l1WbHit = true;
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    // Dirty a line, then evict it by filling its L1 set.
    const std::uint32_t sets =
        cfg.l1SizeBytes / (cfg.l1Assoc * kLineBytes);
    const Addr stride = Addr(sets) * kLineBytes;
    const Addr base = 0x40000;
    const std::uint64_t value = 0x1234cafeULL;
    bool wrote = false;
    sys.l1(0).store(base, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    eq.run();
    ASSERT_TRUE(wrote);

    for (std::uint32_t i = 1; i <= cfg.l1Assoc; ++i) {
        bool done = false;
        sys.l1(0).load(base + i * stride, [&] { done = true; });
        // Single-step so we can catch the PutM window mid-flight.
        while (!done)
            eq.run(eq.now() + 1);
        if (sys.l1(0).outstandingWritebacks() > 0)
            break;
    }
    ASSERT_GT(sys.l1(0).outstandingWritebacks(), 0u)
        << "eviction produced no in-flight writeback";
    ASSERT_EQ(sys.l1(0).array().find(base), nullptr);

    // Load the evicted line while its PutM is still in flight: the
    // WB-buffer snoop hit must complete it with zero mesh traffic.
    KindCounter kinds;
    sys.mesh().setTracer(&kinds);
    bool loaded = false;
    sys.l1(0).load(base, [&] { loaded = true; });
    for (Cycles c = 0; c <= cfg.l1Latency && !loaded; ++c)
        eq.run(eq.now() + 1);
    EXPECT_TRUE(loaded) << "WB hit did not complete at L1 latency";
    EXPECT_EQ(kinds.of(MsgType::GetS), 0u);
    EXPECT_EQ(sys.stats().value("l1c0", "wb_hits"), 1u);
    // Timing shortcut only: the line was not revived in the array.
    EXPECT_EQ(sys.l1(0).array().find(base), nullptr);

    // Drain the WbAck; the buffer frees and the fast path disarms.
    eq.run();
    EXPECT_EQ(sys.l1(0).outstandingWritebacks(), 0u);
    bool reloaded = false;
    sys.l1(0).load(base, [&] { reloaded = true; });
    eq.run();
    ASSERT_TRUE(reloaded);
    EXPECT_EQ(kinds.of(MsgType::GetS), 1u);  // normal refetch now
    EXPECT_EQ(sys.stats().value("l1c0", "wb_hits"), 1u);
    sys.mesh().setTracer(nullptr);

    // Coherence aftermath: another core takes the line and sees the
    // written value -- the fast path left no stale state behind.
    bool other = false;
    sys.l1(1).load(base, [&] { other = true; });
    eq.run();
    ASSERT_TRUE(other);
    const CacheLineState *line = sys.l1(1).array().find(base);
    ASSERT_NE(line, nullptr);
    const std::uint64_t back =
        lineWord(sys.l1(1).array(), line, 0);
    EXPECT_EQ(back, value);
}

TEST(WbHitFastPathTest, DisabledByDefaultTakesTheFullMissPath)
{
    // Same setup with the knob off (the default): the load mid-window
    // must go through home (GetS), keeping the goldens' behavior.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::NonAtomic;
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();

    const std::uint32_t sets =
        cfg.l1SizeBytes / (cfg.l1Assoc * kLineBytes);
    const Addr stride = Addr(sets) * kLineBytes;
    const Addr base = 0x40000;
    const std::uint64_t value = 1;
    bool wrote = false;
    sys.l1(0).store(base, reinterpret_cast<const std::uint8_t *>(&value),
                    8, [&] { wrote = true; });
    eq.run();
    ASSERT_TRUE(wrote);
    for (std::uint32_t i = 1; i <= cfg.l1Assoc; ++i) {
        bool done = false;
        sys.l1(0).load(base + i * stride, [&] { done = true; });
        while (!done)
            eq.run(eq.now() + 1);
        if (sys.l1(0).outstandingWritebacks() > 0)
            break;
    }
    ASSERT_GT(sys.l1(0).outstandingWritebacks(), 0u);

    KindCounter kinds;
    sys.mesh().setTracer(&kinds);
    bool loaded = false;
    sys.l1(0).load(base, [&] { loaded = true; });
    eq.run();
    ASSERT_TRUE(loaded);
    EXPECT_EQ(kinds.of(MsgType::GetS), 1u);
    EXPECT_EQ(sys.stats().value("l1c0", "wb_hits"), 0u);
    sys.mesh().setTracer(nullptr);
}

TEST(DirectoryStatTest, CtrlBlockOccupancyGrowsAndIsCappedAt64K)
{
    StatSet stats;
    Counter &live = stats.counter("dir0", "ctrl_blocks_live");
    Directory dir;
    dir.attachStats(&live);

    auto touch = [&dir](Addr line) {
        dir.acquire(line, [&dir, line] { dir.release(line); });
    };

    // The high-water mark tracks live (busy + cached-idle) control
    // blocks as distinct lines are touched...
    for (Addr i = 0; i < 1000; ++i)
        touch(i * kLineBytes);
    EXPECT_EQ(live.value(), 1000u);
    EXPECT_EQ(dir.liveCtl(), 1000u);

    // ...and saturates at the idle-cache cap: one transient busy block
    // above kMaxIdleCtl, after which released cold blocks are erased
    // instead of cached.
    const Addr total = Directory::kMaxIdleCtl + 4096;
    for (Addr i = 1000; i < total; ++i)
        touch(i * kLineBytes);
    EXPECT_EQ(live.value(), std::uint64_t(Directory::kMaxIdleCtl) + 1);
    EXPECT_EQ(dir.liveCtl(), Directory::kMaxIdleCtl);
}

// Regression for the 256-/1024-tile presets: the idle control-block
// cap must scale with the core count. A 256-tile serving footprint
// holds more distinct hot lines than the historical fixed 64K cap;
// under that cap the cache thrashes -- every cold release erases a
// block and every re-acquire re-inserts it -- which is exactly what
// the ctrl_evictions counter observes. Reverting idleCapFor() to the
// fixed cap makes the zero-evictions half of this test fail.
TEST(DirectoryStatTest, IdleCapScalesWithCoreCountAt256TileShape)
{
    // The Table-I shapes keep their historical cap exactly...
    EXPECT_EQ(Directory::idleCapFor(32), Directory::kMaxIdleCtl);
    EXPECT_EQ(Directory::idleCapFor(8), Directory::kMaxIdleCtl);
    // ...and the large presets scale linearly past it.
    EXPECT_EQ(Directory::idleCapFor(256),
              256u * Directory::kIdleCtlPerCore);
    EXPECT_GT(Directory::idleCapFor(256), Directory::kMaxIdleCtl);
    EXPECT_EQ(Directory::idleCapFor(1024),
              1024u * Directory::kIdleCtlPerCore);

    // A 256-tile-shape footprint: 2x the old cap in distinct lines.
    const Addr lines = 2 * Directory::kMaxIdleCtl;

    StatSet stats;
    Directory scaled;
    scaled.attachStats(&stats.counter("scaled", "ctrl_blocks_live"),
                       &stats.counter("scaled", "ctrl_evictions"));
    scaled.setIdleCap(Directory::idleCapFor(256));
    for (Addr i = 0; i < lines; ++i)
        scaled.acquire(i * kLineBytes,
                       [&scaled, i] { scaled.release(i * kLineBytes); });
    EXPECT_EQ(stats.value("scaled", "ctrl_evictions"), 0u);
    EXPECT_EQ(scaled.liveCtl(), lines);

    // The same footprint under the old fixed cap thrashes: every
    // release past the cap is an eviction.
    Directory fixed;
    fixed.attachStats(&stats.counter("fixed", "ctrl_blocks_live"),
                      &stats.counter("fixed", "ctrl_evictions"));
    for (Addr i = 0; i < lines; ++i)
        fixed.acquire(i * kLineBytes,
                      [&fixed, i] { fixed.release(i * kLineBytes); });
    EXPECT_EQ(stats.value("fixed", "ctrl_evictions"),
              std::uint64_t(lines) - Directory::kMaxIdleCtl);
    EXPECT_EQ(fixed.liveCtl(), Directory::kMaxIdleCtl);
}

// The System actually wires the scaled cap into every tile's
// directory (and registers the eviction counter).
TEST(DirectoryStatTest, MeshPresetWiresScaledIdleCap)
{
    System sys(SystemConfig::makeMeshPreset(256),
               Addr(64) * 1024 * 1024);
    EXPECT_EQ(sys.l2Tile(0).directory().idleCap(),
              Directory::idleCapFor(256));
    EXPECT_EQ(sys.l2Tile(255).directory().idleCap(),
              Directory::idleCapFor(256));
    bool has_eviction_stat = false;
    for (const auto &s : std::as_const(sys).stats().dump())
        if (s.first == "dir0.ctrl_evictions")
            has_eviction_stat = true;
    EXPECT_TRUE(has_eviction_stat);
}

} // namespace
} // namespace atomsim
