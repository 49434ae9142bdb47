/**
 * @file
 * Unit tests for the memory substrate: data images, the address map,
 * channels and the memory controller (including the write gate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "mem/address_map.hh"
#include "mem/dram_cache.hh"
#include "mem/dram_device.hh"
#include "mem/memory_controller.hh"
#include "mem/nvm_channel.hh"
#include "mem/phys_mem.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace atomsim
{
namespace
{

TEST(DataImageTest, ZeroInitializedReads)
{
    DataImage img;
    EXPECT_EQ(img.load64(0x1234), 0u);
    EXPECT_EQ(img.pagesAllocated(), 0u);
    EXPECT_EQ(img.recordsAllocated(), 0u);
}

TEST(DataImageTest, ScalarRoundTrip)
{
    DataImage img;
    img.store64(0x100, 0xdeadbeefcafef00dULL);
    img.store32(0x108, 0x12345678u);
    EXPECT_EQ(img.load64(0x100), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(img.load32(0x108), 0x12345678u);
}

TEST(DataImageTest, CrossPageWrite)
{
    DataImage img;
    std::uint8_t buf[256];
    for (int i = 0; i < 256; ++i)
        buf[i] = std::uint8_t(i);
    const Addr addr = kPageBytes - 100;  // straddles a page boundary
    img.write(addr, sizeof(buf), buf);
    std::uint8_t back[256];
    img.read(addr, sizeof(back), back);
    EXPECT_EQ(std::memcmp(buf, back, sizeof(buf)), 0);
    EXPECT_EQ(img.pagesAllocated(), 2u);
    // The last record of one page and the first of the next.
    EXPECT_EQ(img.recordsAllocated(), 2u);
}

TEST(DataImageTest, LineRoundTripAligns)
{
    DataImage img;
    Line line;
    for (std::uint32_t i = 0; i < kLineBytes; ++i)
        line[i] = std::uint8_t(i * 3);
    img.writeLine(0x1238, line);  // unaligned address -> line 0x1200
    const Line back = img.readLine(0x1200);
    EXPECT_EQ(back, line);
}

TEST(DataImageTest, CloneIsDeep)
{
    DataImage img;
    img.store64(0x40, 7);
    img.store64(5 * kPageBytes + 0x300, 11);
    DataImage copy = img.clone();
    EXPECT_EQ(copy.pagesAllocated(), 2u);
    EXPECT_EQ(copy.recordsAllocated(), 2u);

    // Original -> copy: an existing record and a new one.
    img.store64(0x40, 9);
    img.store64(0x1000 + 0x200, 13);
    EXPECT_EQ(copy.load64(0x40), 7u);
    EXPECT_EQ(copy.load64(0x1000 + 0x200), 0u);
    EXPECT_EQ(img.load64(0x40), 9u);

    // Copy -> original, including records the copy adds after the one
    // block clone() filled.
    for (Addr a = 0; a < 64 * DataImage::kRecordBytes;
         a += DataImage::kRecordBytes)
        copy.store64(5 * kPageBytes + a, a + 1);
    EXPECT_EQ(img.load64(5 * kPageBytes + 0x300), 11u);
    EXPECT_EQ(img.load64(5 * kPageBytes + 0x800), 0u);
    EXPECT_EQ(copy.load64(5 * kPageBytes + 0x800), 0x801u);
    EXPECT_EQ(copy.load64(0x40), 7u);
    EXPECT_EQ(img.recordsAllocated(), 3u);
    EXPECT_EQ(copy.recordsAllocated(), 65u);
}

TEST(DataImageTest, ClearDropsEverything)
{
    DataImage img;
    std::vector<std::uint8_t> buf(3 * kPageBytes, 0xab);
    img.write(0x10000, buf.size(), buf.data());
    img.clear();
    EXPECT_EQ(img.pagesAllocated(), 0u);
    EXPECT_EQ(img.recordsAllocated(), 0u);
    EXPECT_EQ(img.load64(0x10000), 0u);
    // Usable again after the clear.
    img.store64(0x10008, 3);
    EXPECT_EQ(img.load64(0x10008), 3u);
    EXPECT_EQ(img.load64(0x10000), 0u);
    EXPECT_EQ(img.recordsAllocated(), 1u);
}

// Memory materializes per 512-byte record, not per page.
TEST(DataImageTest, FootprintFollowsRecordsWritten)
{
    DataImage img;
    Line line;
    line.fill(1);
    img.writeLine(3 * kPageBytes + 0x240, line);
    EXPECT_EQ(img.pagesAllocated(), 1u);
    EXPECT_EQ(img.recordsAllocated(), 1u);

    // Reads never materialize anything.
    std::vector<std::uint8_t> buf(kPageBytes, 0);
    img.read(7 * kPageBytes, buf.size(), buf.data());
    EXPECT_EQ(img.pagesAllocated(), 1u);
    EXPECT_EQ(img.recordsAllocated(), 1u);

    // A whole page is all eight of its records; the page already held
    // one of them.
    std::fill(buf.begin(), buf.end(), 2);
    img.write(3 * kPageBytes, buf.size(), buf.data());
    EXPECT_EQ(img.pagesAllocated(), 1u);
    EXPECT_EQ(img.recordsAllocated(), DataImage::kRecordsPerPage);
    img.write(9 * kPageBytes, buf.size(), buf.data());
    EXPECT_EQ(img.pagesAllocated(), 2u);
    EXPECT_EQ(img.recordsAllocated(), 2 * DataImage::kRecordsPerPage);

    // A line write lands in exactly one record.
    img.writeLine(11 * kPageBytes + DataImage::kRecordBytes - kLineBytes,
                  line);
    EXPECT_EQ(img.pagesAllocated(), 3u);
    EXPECT_EQ(img.recordsAllocated(), 2 * DataImage::kRecordsPerPage + 1);
}

// Records written in scattered order land in many slab blocks (a block
// holds at most 256 records), so one page's records sit in different
// blocks and the blocks are not in address order. The clone must map
// every record to its own copy.
TEST(DataImageTest, CloneMapsRecordsAcrossManyBlocks)
{
    constexpr Addr kBase = Addr(0x100) * kPageBytes;
    constexpr std::size_t kRecords = 300 * DataImage::kRecordsPerPage;
    std::vector<std::size_t> order(kRecords);
    for (std::size_t r = 0; r < kRecords; ++r)
        order[r] = r;
    Random rng(5);
    for (std::size_t i = kRecords - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);

    DataImage img;
    for (std::size_t r : order)
        img.store64(kBase + r * DataImage::kRecordBytes + 8, r + 1);
    const DataImage copy = img.clone();
    EXPECT_EQ(copy.recordsAllocated(), kRecords);
    EXPECT_EQ(copy.pagesAllocated(), 300u);
    for (std::size_t r = 0; r < kRecords; ++r) {
        const Addr rec = kBase + r * DataImage::kRecordBytes;
        ASSERT_EQ(copy.load64(rec + 8), r + 1) << "record " << r;
        ASSERT_EQ(copy.load64(rec), 0u) << "record " << r;
    }

    // Deep: the original's records are not the copy's.
    img.store64(kBase + 8, 99);
    EXPECT_EQ(copy.load64(kBase + 8), 1u);
}

// Random reads and writes of 1..9000 bytes (straddling record and page
// boundaries) against a flat byte array. A third
// of the way in the image is replaced by its own clone, so writes also
// land in a cloned slab; two thirds in it is cleared. The footprint
// must be exactly the records and pages written.
TEST(DataImageTest, MatchesAFlatReferenceUnderRandomAccess)
{
    constexpr Addr kBase = Addr(0x3000) * kPageBytes;
    constexpr std::size_t kSpan = 48 * kPageBytes;
    std::vector<std::uint8_t> ref(kSpan, 0);
    std::set<std::size_t> records;
    std::set<std::size_t> pages;
    auto touch = [&](std::size_t off, std::size_t size) {
        for (std::size_t r = off / DataImage::kRecordBytes;
             r <= (off + size - 1) / DataImage::kRecordBytes; ++r)
            records.insert(r);
        for (std::size_t p = off / kPageBytes;
             p <= (off + size - 1) / kPageBytes; ++p)
            pages.insert(p);
    };

    DataImage img;
    Random rng(17);
    std::vector<std::uint8_t> buf(9000);
    std::uint64_t reads = 0;
    for (int op = 0; op < 60000; ++op) {
        // Mostly small accesses, some up to 9000 bytes; a third of the
        // offsets start just before a record boundary.
        const std::uint64_t roll = rng.below(10);
        const std::size_t size = roll < 5   ? rng.range(1, 64)
                                 : roll < 8 ? rng.range(1, 1100)
                                            : rng.range(1, 9000);
        std::size_t off;
        if (rng.below(3) == 0) {
            const std::size_t edge =
                rng.range(1, kSpan / DataImage::kRecordBytes - 1) *
                DataImage::kRecordBytes;
            off = edge - std::min<std::size_t>(edge, rng.range(1, 80));
        } else {
            off = rng.below(kSpan);
        }
        off = std::min(off, kSpan - size);
        const Addr addr = kBase + off;

        switch (rng.below(4)) {
          case 0: {
            img.read(addr, size, buf.data());
            ASSERT_EQ(std::memcmp(buf.data(), &ref[off], size), 0)
                << "op " << op << " read " << size << " at +" << off;
            ++reads;
            break;
          }
          case 1: {
            for (std::size_t i = 0; i < size; ++i)
                buf[i] = std::uint8_t(rng.next());
            img.write(addr, size, buf.data());
            std::memcpy(&ref[off], buf.data(), size);
            touch(off, size);
            break;
          }
          case 2: {
            Line line;
            for (auto &b : line)
                b = std::uint8_t(rng.next());
            img.writeLine(addr, line);
            const std::size_t at = off & ~std::size_t(kLineBytes - 1);
            std::memcpy(&ref[at], line.data(), kLineBytes);
            touch(at, kLineBytes);
            break;
          }
          default: {
            Line line;
            for (auto &b : line)
                b = std::uint8_t(rng.next());
            const auto words = std::uint32_t(rng.below(10));
            img.writeLineWords(addr, line, words);
            const std::size_t n = std::min<std::uint32_t>(words, 8) * 8;
            const std::size_t at = off & ~std::size_t(kLineBytes - 1);
            std::memcpy(&ref[at], line.data(), n);
            if (n)
                touch(at, n);
            break;
          }
        }
        if (op == 20000) {
            img = img.clone();
        } else if (op == 40000) {
            // Records written after a clear reuse freed blocks, so a
            // record that is not zeroed on first write shows old bytes.
            img.clear();
            std::fill(ref.begin(), ref.end(), 0);
            records.clear();
            pages.clear();
        }
    }
    EXPECT_GT(reads, 10000u);

    std::vector<std::uint8_t> all(kSpan);
    img.read(kBase, kSpan, all.data());
    EXPECT_EQ(all, ref);
    EXPECT_EQ(img.recordsAllocated(), records.size());
    EXPECT_EQ(img.pagesAllocated(), pages.size());
    EXPECT_EQ(img.clone().recordsAllocated(), records.size());
}

class AddressMapTest : public ::testing::Test
{
  protected:
    SystemConfig cfg;
    AddressMap amap{cfg, Addr(16) * 1024 * 1024};
};

TEST_F(AddressMapTest, PageInterleavingAcrossMcs)
{
    EXPECT_EQ(amap.memCtrl(0), 0u);
    EXPECT_EQ(amap.memCtrl(kPageBytes), 1u);
    EXPECT_EQ(amap.memCtrl(2 * kPageBytes), 2u);
    EXPECT_EQ(amap.memCtrl(3 * kPageBytes), 3u);
    EXPECT_EQ(amap.memCtrl(4 * kPageBytes), 0u);
    // All lines of one page map to the same controller.
    EXPECT_EQ(amap.memCtrl(kPageBytes + 64), 1u);
    EXPECT_EQ(amap.memCtrl(kPageBytes + 4032), 1u);
}

TEST_F(AddressMapTest, BucketIsOnePageOnOwningMc)
{
    for (McId mc = 0; mc < 4; ++mc) {
        for (std::uint32_t b : {0u, 1u, 17u, 255u}) {
            const Addr base = amap.bucketBase(mc, b);
            EXPECT_EQ(amap.memCtrl(base), mc);
            EXPECT_EQ(base % kPageBytes, 0u);
            EXPECT_TRUE(amap.isLogAddr(base));
            EXPECT_TRUE(amap.isLogAddr(base + kPageBytes - 1));
        }
    }
}

TEST_F(AddressMapTest, RecordsTileTheBucket)
{
    const Addr b0 = amap.bucketBase(2, 5);
    for (std::uint32_t r = 0; r < amap.recordsPerBucket(); ++r) {
        EXPECT_EQ(amap.recordBase(2, 5, r), b0 + r * 512);
    }
}

TEST_F(AddressMapTest, AdrRegionPerMcAfterLog)
{
    for (McId mc = 0; mc < 4; ++mc) {
        const Addr adr = amap.adrBase(mc);
        EXPECT_GE(adr, amap.logEnd());
        EXPECT_EQ(amap.memCtrl(adr), mc);
    }
    EXPECT_EQ(amap.reservedEnd(), amap.logEnd() + 4 * kPageBytes);
}

TEST_F(AddressMapTest, DataRegionIsNotLog)
{
    EXPECT_FALSE(amap.isLogAddr(0));
    EXPECT_FALSE(amap.isLogAddr(amap.logBase() - 1));
    EXPECT_FALSE(amap.isLogAddr(amap.logEnd()));
}

TEST(NvmChannelTest, ReadWriteLatencies)
{
    EventQueue eq;
    SystemConfig cfg;
    NvmChannel chan(eq, cfg);
    const Tick t_read = chan.scheduleRead();
    // transfer (25) + read latency (240)
    EXPECT_EQ(t_read, 25u + 240u);
    EXPECT_EQ(chan.freeAt(), 25u);
}

TEST(NvmChannelTest, BackToBackTransfersSerialize)
{
    EventQueue eq;
    SystemConfig cfg;
    NvmChannel chan(eq, cfg);
    const Tick w1 = chan.scheduleWrite();
    const Tick w2 = chan.scheduleWrite();
    EXPECT_EQ(w1, 25u + 360u);
    EXPECT_EQ(w2, 50u + 360u);  // channel occupancy serializes
    EXPECT_EQ(chan.busyCycles(), 50u);
    EXPECT_EQ(chan.writes(), 2u);
}

class MemCtrlTest : public ::testing::Test
{
  protected:
    MemCtrlTest()
        : amap(cfg, Addr(16) * 1024 * 1024),
          mc(0, eq, cfg, nvm, stats)
    {
    }

    SystemConfig cfg;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    AddressMap amap;
    MemoryController mc;
};

TEST_F(MemCtrlTest, WriteThenReadReturnsData)
{
    Line data{};
    data[0] = 0xab;
    bool wrote = false;
    mc.writeLine(0x1000, data, WriteKind::DataWb, [&] { wrote = true; });
    eq.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(nvm.readLine(0x1000)[0], 0xab);

    bool read = false;
    mc.readLine(0x1000, ReadKind::Demand, [&](const Line &line) {
        read = true;
        EXPECT_EQ(line[0], 0xab);
    });
    eq.run();
    EXPECT_TRUE(read);
}

TEST_F(MemCtrlTest, ReadForwardsFromPendingWrite)
{
    Line data{};
    data[5] = 0x77;
    mc.writeLine(0x2000, data, WriteKind::DataWb, {});
    // Issue the read immediately: the write is still queued.
    bool read = false;
    mc.readLine(0x2000, ReadKind::Demand, [&](const Line &line) {
        read = true;
        EXPECT_EQ(line[5], 0x77);
    });
    eq.run();
    EXPECT_TRUE(read);
}

TEST_F(MemCtrlTest, WriteCombiningMergesSameLine)
{
    Line a{};
    a[0] = 1;
    Line b{};
    b[0] = 2;
    int acks = 0;
    mc.writeLine(0x3000, a, WriteKind::DataWb, [&] { ++acks; });
    mc.writeLine(0x3000, b, WriteKind::DataWb, [&] { ++acks; });
    eq.run();
    EXPECT_EQ(acks, 2);               // both callbacks fire
    EXPECT_EQ(nvm.readLine(0x3000)[0], 2);  // newest data wins
    EXPECT_EQ(stats.value("mc0", "data_writes"), 2u);
}

TEST_F(MemCtrlTest, ReadForwardsNewestDataAfterWriteCombining)
{
    // Regression: combining a second write into a queued request must
    // also refresh the read-forwarding snapshot -- a read accepted
    // after the combine has to observe the combined bytes, not the
    // first write's.
    Line a{};
    a[0] = 1;
    Line b{};
    b[0] = 2;
    mc.writeLine(0x3100, a, WriteKind::DataWb, {});
    mc.writeLine(0x3100, b, WriteKind::DataWb, {});
    bool read = false;
    mc.readLine(0x3100, ReadKind::Demand, [&](const Line &line) {
        read = true;
        EXPECT_EQ(line[0], 2);
    });
    eq.run();
    EXPECT_TRUE(read);
}

TEST_F(MemCtrlTest, WhenLineDurableWaitsForPendingWrite)
{
    Line data{};
    bool durable = false;
    mc.writeLine(0x4000, data, WriteKind::Flush, {});
    mc.whenLineDurable(0x4000, [&] { durable = true; });
    EXPECT_FALSE(durable);
    eq.run();
    EXPECT_TRUE(durable);
}

TEST_F(MemCtrlTest, WhenLineDurableImmediateWhenIdle)
{
    bool durable = false;
    mc.whenLineDurable(0x5000, [&] { durable = true; });
    EXPECT_TRUE(durable);
}

TEST_F(MemCtrlTest, LatencyIncludesDeviceWrite)
{
    Line data{};
    Tick done_at = 0;
    mc.writeLine(0x6000, data, WriteKind::DataWb,
                 [&] { done_at = eq.now(); });
    eq.run();
    // frontend (8) + transfer (25) + device write (360) + match (1)
    EXPECT_GE(done_at, 8u + 25u + 360u);
    EXPECT_LE(done_at, 8u + 25u + 360u + 2u);
}

/** A gate that locks one line until released. */
class TestGate : public WriteGate
{
  public:
    bool
    tryAcquire(Addr line, UnlockCallback on_unlock) override
    {
        if (line == locked) {
            waiters.push_back(std::move(on_unlock));
            return false;
        }
        return true;
    }

    void
    release()
    {
        locked = ~Addr(0);
        for (auto &w : waiters)
            w();
        waiters.clear();
    }

    Addr locked = ~Addr(0);
    std::vector<UnlockCallback> waiters;
};

TEST_F(MemCtrlTest, GateBlocksDataWriteUntilUnlocked)
{
    TestGate gate;
    gate.locked = 0x7000;
    mc.setWriteGate(&gate);

    Line data{};
    data[0] = 9;
    bool wrote = false;
    mc.writeLine(0x7000, data, WriteKind::DataWb, [&] { wrote = true; });
    eq.run();
    EXPECT_FALSE(wrote);  // blocked by the gate
    EXPECT_EQ(stats.value("mc0", "gate_blocks"), 1u);

    gate.release();
    eq.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(nvm.readLine(0x7000)[0], 9);
    mc.setWriteGate(nullptr);
}

TEST_F(MemCtrlTest, GateNeverBlocksLogWrites)
{
    TestGate gate;
    gate.locked = 0x8000;
    mc.setWriteGate(&gate);
    Line data{};
    bool wrote = false;
    mc.writeLine(0x8000, data, WriteKind::LogData, [&] { wrote = true; });
    eq.run();
    EXPECT_TRUE(wrote);  // log traffic bypasses the gate
    mc.setWriteGate(nullptr);
}

TEST_F(MemCtrlTest, PowerFailDropsQueuedWrites)
{
    Line data{};
    data[0] = 0x55;
    bool wrote = false;
    mc.writeLine(0x9000, data, WriteKind::DataWb, [&] { wrote = true; });
    mc.powerFail();
    eq.run();
    EXPECT_FALSE(wrote);
    EXPECT_EQ(nvm.readLine(0x9000)[0], 0);  // never reached NVM
    EXPECT_EQ(mc.pendingWrites(), 0u);
}

TEST_F(MemCtrlTest, TwoChannelSteeringSeparatesLogTraffic)
{
    SystemConfig cfg2;
    cfg2.channelsPerMc = 2;
    MemoryController mc2(1, eq, cfg2, nvm, stats);
    Line data{};
    // Data write then log write: with two channels both can complete
    // at their solo latency (no shared-channel serialization).
    Tick t_data = 0;
    Tick t_log = 0;
    mc2.writeLine(0x10000, data, WriteKind::DataWb,
                  [&] { t_data = eq.now(); });
    mc2.writeLine(0x11000, data, WriteKind::LogData,
                  [&] { t_log = eq.now(); });
    eq.run();
    // If they shared one channel one of them would finish ~25 cycles
    // later than the other; with two they finish within a cycle.
    EXPECT_LE(t_data > t_log ? t_data - t_log : t_log - t_data, 2u);
}

// --- Hybrid memory: DRAM device timing -------------------------------

class DramDeviceTest : public ::testing::Test
{
  protected:
    DramDeviceTest()
        : rowHits(stats.counter("mc0", "row_hits")),
          rowMisses(stats.counter("mc0", "row_misses")),
          dev(eq, cfg, rowHits, rowMisses)
    {
    }

    Tick
    accessDone(Addr addr, bool write, Tick ready = 0)
    {
        Tick done = 0;
        dev.access(addr, write, ready,
                   [&done, this] { done = eq.now(); });
        eq.run();
        return done;
    }

    SystemConfig cfg;
    EventQueue eq;
    StatSet stats;
    Counter &rowHits;
    Counter &rowMisses;
    DramDevice dev;
};

TEST_F(DramDeviceTest, RowHitIsFasterThanRowMiss)
{
    // Cold access: transfer (10 cycles at 12.8 GB/s) + row miss (36).
    const Tick first = accessDone(0x10000, false);
    EXPECT_EQ(first, cfg.dramTransferCycles() + cfg.dramRowMissLatency);
    EXPECT_EQ(rowMisses.value(), 1u);

    // Same row again: row hit, only the hit latency after the bank
    // frees.
    const Tick second = accessDone(0x10040, false);
    EXPECT_EQ(second - first,
              cfg.dramTransferCycles() + cfg.dramRowHitLatency);
    EXPECT_EQ(rowHits.value(), 1u);

    // Different row, same bank: row miss again.
    const Addr other_row =
        0x10000 + Addr(cfg.dramRowBytes) * cfg.dramBanksPerMc;
    accessDone(other_row, false);
    EXPECT_EQ(rowMisses.value(), 2u);
}

TEST_F(DramDeviceTest, BanksPipelineIndependently)
{
    // Two accesses to different banks issued together overlap their
    // row latencies; only the shared data bus serializes them.
    Tick done_a = 0;
    Tick done_b = 0;
    dev.access(0x0, false, 0, [&] { done_a = eq.now(); });
    dev.access(Addr(cfg.dramRowBytes), false, 0,
               [&] { done_b = eq.now(); });
    eq.run();
    const Tick xfer = cfg.dramTransferCycles();
    EXPECT_EQ(done_a, xfer + cfg.dramRowMissLatency);
    EXPECT_EQ(done_b, 2 * xfer + cfg.dramRowMissLatency);
}

TEST_F(DramDeviceTest, FrFcfsPrefersTheOpenRow)
{
    // Open row 0 of bank 0, then queue a row-miss request ahead of a
    // row-hit request: the picker reorders, completing the hit first.
    accessDone(0x0, false);
    const Addr miss_addr =
        Addr(cfg.dramRowBytes) * cfg.dramBanksPerMc;  // bank 0, row N
    std::vector<int> order;
    dev.access(miss_addr, false, 0, [&] { order.push_back(1); });
    dev.access(0x40, false, 0, [&] { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);  // the open-row request jumped the queue
    EXPECT_EQ(order[1], 1);
}

TEST_F(DramDeviceTest, RequestPoolIsReused)
{
    for (int i = 0; i < 100; ++i)
        accessDone(Addr(i % 4) * kLineBytes, i % 2 == 0);
    EXPECT_LE(dev.poolAllocated(), 2u);
    EXPECT_EQ(dev.poolFree(), dev.poolAllocated());
}

// --- Hybrid memory: the controller's DRAM tier -----------------------

class HybridMcTest : public ::testing::Test
{
  protected:
    HybridMcTest()
    {
        cfg.hybridMode = HybridMode::MemoryMode;
        cfg.dramCacheMBPerMc = 1;
        mc = std::make_unique<MemoryController>(0, eq, cfg, nvm,
                                                stats);
    }

    Tick
    readDone(Addr addr, Line *out = nullptr)
    {
        const Tick start = eq.now();
        Tick done = 0;
        mc->readLine(addr, ReadKind::Demand, [&, out](const Line &l) {
            done = eq.now();
            if (out)
                *out = l;
        });
        eq.run();
        return done - start;
    }

    SystemConfig cfg;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    std::unique_ptr<MemoryController> mc;
};

TEST_F(HybridMcTest, ReadMissFillsThenHitsAtDramLatency)
{
    Line data{};
    data[3] = 0x5a;
    nvm.writeLine(0x40000, data);

    Line back{};
    const Tick miss = readDone(0x40000, &back);
    EXPECT_EQ(back[3], 0x5a);
    EXPECT_EQ(stats.value("mc0", "dram_misses"), 1u);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 0u);

    const Tick hit = readDone(0x40000, &back);
    EXPECT_EQ(back[3], 0x5a);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 1u);
    EXPECT_LT(hit, miss);
    EXPECT_LT(hit, cfg.nvmReadLatency);
}

TEST_F(HybridMcTest, AbsorbedWritebackIsFastButNotDurable)
{
    Line data{};
    data[0] = 0x77;
    Tick acked = 0;
    mc->writeLine(0x50000, data, WriteKind::DataWb,
                  [&] { acked = eq.now(); });
    eq.run();
    // Acked at DRAM latency, well under the NVM device write.
    EXPECT_GT(acked, 0u);
    EXPECT_LT(acked, cfg.nvmWriteLatency);
    EXPECT_EQ(stats.value("mc0", "dram_wr_absorbed"), 1u);

    // The bytes are visible to reads...
    Line back{};
    readDone(0x50000, &back);
    EXPECT_EQ(back[0], 0x77);
    // ...but never reached NVM: the line is one power failure away
    // from vanishing.
    EXPECT_EQ(nvm.readLine(0x50000)[0], 0);
    EXPECT_EQ(mc->dramCache()->dirtyLines(), 1u);
}

TEST_F(HybridMcTest, FillPrefersWriteAcceptedDuringNvmReadWindow)
{
    // A read miss is in flight when a write-through write of the same
    // line is accepted (log/REDO traffic is not FIFO-ordered against
    // home-tile reads, so this race is reachable). writeThrough() was
    // a no-op -- the line was absent -- so the demand fill must
    // install the in-flight write's bytes, not the read's issue-time
    // snapshot; otherwise later reads hit a permanently stale clean
    // line.
    Line oldv{};
    oldv[0] = 1;
    nvm.writeLine(0xa0000, oldv);

    Tick read_done = 0;
    mc->readLine(0xa0000, ReadKind::Demand,
                 [&](const Line &) { read_done = eq.now(); });
    eq.run(100);  // read issued to the device, completion pending
    ASSERT_EQ(read_done, 0u);

    Line newv{};
    newv[0] = 2;
    mc->writeLine(0xa0000, newv, WriteKind::Flush, {});
    eq.run();
    ASSERT_GT(read_done, 0u);

    // The cached copy must carry the newer bytes.
    Line back{};
    readDone(0xa0000, &back);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 1u);
    EXPECT_EQ(back[0], 2);
    EXPECT_EQ(nvm.readLine(0xa0000)[0], 2);
}

TEST_F(HybridMcTest, PowerFailDropsDirtyDramLines)
{
    Line data{};
    data[0] = 0x42;
    mc->writeLine(0x60000, data, WriteKind::DataWb, {});
    eq.run();
    ASSERT_EQ(mc->dramCache()->dirtyLines(), 1u);

    mc->powerFail();
    EXPECT_EQ(mc->dramCache()->dirtyLines(), 0u);
    EXPECT_FALSE(mc->dramCache()->contains(0x60000));
    // Only NVM-resident bytes survive: the absorbed write is gone.
    EXPECT_EQ(nvm.readLine(0x60000)[0], 0);
}

TEST_F(HybridMcTest, FlushWritesThroughToNvm)
{
    Line data{};
    data[7] = 0x99;
    bool durable = false;
    mc->writeLine(0x70000, data, WriteKind::Flush,
                  [&] { durable = true; });
    eq.run();
    EXPECT_TRUE(durable);
    EXPECT_EQ(nvm.readLine(0x70000)[7], 0x99);
}

TEST_F(HybridMcTest, LogWritesAreNeverAbsorbed)
{
    Line data{};
    data[1] = 0x13;
    mc->writeLine(0x80000, data, WriteKind::LogData, {});
    mc->writeLine(0x80040, data, WriteKind::LogHeader, {});
    eq.run();
    EXPECT_EQ(nvm.readLine(0x80000)[1], 0x13);
    EXPECT_EQ(nvm.readLine(0x80040)[1], 0x13);
    EXPECT_EQ(stats.value("mc0", "dram_wr_absorbed"), 0u);
}

TEST_F(HybridMcTest, WhenLineDurableCleansesDirtyDramLine)
{
    // A committed line whose only current copy is a dirty absorbed
    // writeback: whenLineDurable must push it to NVM before acking,
    // or "durable" would be a lie.
    Line data{};
    data[0] = 0xcd;
    mc->writeLine(0x90000, data, WriteKind::DataWb, {});
    eq.run();
    ASSERT_EQ(nvm.readLine(0x90000)[0], 0);

    bool durable = false;
    mc->whenLineDurable(0x90000, [&] { durable = true; });
    EXPECT_FALSE(durable);
    eq.run();
    EXPECT_TRUE(durable);
    EXPECT_EQ(nvm.readLine(0x90000)[0], 0xcd);
    EXPECT_EQ(stats.value("mc0", "dram_cleanses"), 1u);
    EXPECT_EQ(mc->dramCache()->dirtyLines(), 0u);
}

TEST_F(HybridMcTest, DirtyVictimWritesBackToNvm)
{
    // Direct-mapped 1 MB cache: two lines one cache-stride apart
    // conflict; the second absorb displaces the first, whose dirty
    // data must reach NVM through the ordinary write queue.
    SystemConfig cfg1 = cfg;
    cfg1.dramCacheAssoc = 1;
    MemoryController mc1(1, eq, cfg1, nvm, stats);
    const Addr stride =
        Addr(cfg1.dramCacheMBPerMc) * 1024 * 1024;

    Line a{};
    a[0] = 0xaa;
    Line b{};
    b[0] = 0xbb;
    mc1.writeLine(0x1000, a, WriteKind::DataWb, {});
    eq.run();
    mc1.writeLine(0x1000 + stride, b, WriteKind::DataWb, {});
    eq.run();

    EXPECT_EQ(stats.value("mc1", "wb_evictions"), 1u);
    EXPECT_EQ(nvm.readLine(0x1000)[0], 0xaa);      // evicted victim
    EXPECT_EQ(nvm.readLine(0x1000 + stride)[0], 0);  // still absorbed
    EXPECT_EQ(mc1.dramCache()->dirtyLines(), 1u);
}

TEST_F(HybridMcTest, AppDirectWindowBypassesTheCache)
{
    mc->setUncacheableWindow(0x100000, 0x200000);

    // Inside the window: straight to NVM, no DRAM involvement.
    Line data{};
    data[0] = 0x11;
    mc->writeLine(0x100000, data, WriteKind::DataWb, {});
    eq.run();
    EXPECT_EQ(nvm.readLine(0x100000)[0], 0x11);
    EXPECT_FALSE(mc->dramCache()->contains(0x100000));
    readDone(0x100000);
    EXPECT_EQ(stats.value("mc0", "dram_hits"), 0u);
    EXPECT_EQ(stats.value("mc0", "dram_misses"), 0u);

    // Outside the window: cached as usual.
    mc->writeLine(0x300000, data, WriteKind::DataWb, {});
    eq.run();
    EXPECT_TRUE(mc->dramCache()->contains(0x300000));
    EXPECT_EQ(nvm.readLine(0x300000)[0], 0);
}

TEST_F(HybridMcTest, GateBlocksDramVictimWriteback)
{
    // Invariant 2 end to end: a dirty DRAM victim's writeback is a
    // data write reaching NVM, so it must consult the ATOM write gate
    // like any other.
    SystemConfig cfg1 = cfg;
    cfg1.dramCacheAssoc = 1;
    MemoryController mc1(2, eq, cfg1, nvm, stats);
    const Addr stride = Addr(cfg1.dramCacheMBPerMc) * 1024 * 1024;

    TestGate gate;
    gate.locked = 0x2000;
    mc1.setWriteGate(&gate);

    Line a{};
    a[0] = 0xa1;
    mc1.writeLine(0x2000, a, WriteKind::DataWb, {});
    eq.run();
    mc1.writeLine(0x2000 + stride, a, WriteKind::DataWb, {});
    eq.run();
    EXPECT_EQ(nvm.readLine(0x2000)[0], 0);  // victim blocked

    gate.release();
    eq.run();
    EXPECT_EQ(nvm.readLine(0x2000)[0], 0xa1);
    mc1.setWriteGate(nullptr);
}

TEST(HybridAddressMapTest, AppDirectWindowFollowsThePolicy)
{
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::AppDirect;
    {
        AddressMap amap(cfg, Addr(16) * 1024 * 1024);
        // Log placement "direct": log + ADR bypass, data cached.
        EXPECT_EQ(amap.appDirectBase(), amap.logBase());
        EXPECT_EQ(amap.appDirectEnd(), amap.reservedEnd());
        EXPECT_FALSE(inAddrWindow(0x1000, amap.appDirectBase(),
                                  amap.appDirectEnd()));
        EXPECT_TRUE(inAddrWindow(amap.logBase(), amap.appDirectBase(),
                                 amap.appDirectEnd()));
        EXPECT_TRUE(inAddrWindow(amap.adrBase(0), amap.appDirectBase(),
                                 amap.appDirectEnd()));
    }
    cfg.appDirectRegion = AppDirectRegion::DataRegion;
    {
        AddressMap amap(cfg, Addr(16) * 1024 * 1024);
        EXPECT_EQ(amap.appDirectBase(), 0u);
        EXPECT_EQ(amap.appDirectEnd(), amap.logBase());
        EXPECT_TRUE(inAddrWindow(0x1000, amap.appDirectBase(),
                                 amap.appDirectEnd()));
        EXPECT_FALSE(inAddrWindow(amap.logBase(), amap.appDirectBase(),
                                  amap.appDirectEnd()));
    }
    cfg.hybridMode = HybridMode::NvmOnly;
    {
        // No tier at all: the window is the canonical empty [0, 0).
        AddressMap amap(cfg, Addr(16) * 1024 * 1024);
        EXPECT_EQ(amap.appDirectBase(), 0u);
        EXPECT_EQ(amap.appDirectEnd(), 0u);
        EXPECT_FALSE(inAddrWindow(0x1000, amap.appDirectBase(),
                                  amap.appDirectEnd()));
    }
}

} // namespace
} // namespace atomsim
