/**
 * @file
 * Unit tests for the core model: store queue back-pressure and stats,
 * the store queue's ring (wrap, FIFO full retries, same-line order,
 * forwarding, drain waiters), op execution, atomic-region hooks.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "harness/system.hh"

namespace atomsim
{
namespace
{

SystemConfig
tinyConfig(DesignKind design, std::uint32_t sq_entries = 32)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.l2Tiles = 2;
    cfg.meshRows = 1;
    cfg.ausPerMc = 2;
    cfg.sqEntries = sq_entries;
    cfg.design = design;
    return cfg;
}

/** Hands out a fixed list of transactions per core. */
class ScriptedSource : public TransactionSource
{
  public:
    bool
    next(CoreId core, Transaction &txn) override
    {
        if (core >= scripts.size() || at[core] >= scripts[core].size())
            return false;
        txn = scripts[core][at[core]++];
        return true;
    }

    std::vector<std::vector<Transaction>> scripts{2};
    std::vector<std::size_t> at = std::vector<std::size_t>(2, 0);
};

Transaction
makeTxn(Addr base, std::uint32_t n_stores, bool atomic)
{
    Transaction txn;
    if (atomic)
        txn.ops.push_back(MemOp::marker(OpKind::AtomicBegin));
    for (std::uint32_t i = 0; i < n_stores; ++i) {
        const std::uint64_t value = i;
        txn.ops.push_back(MemOp::store(base + i * 8, &value, 8));
        if (atomic) {
            const Addr line = lineAlign(base + i * 8);
            if (txn.modifiedLines.empty() ||
                txn.modifiedLines.back() != line) {
                txn.modifiedLines.push_back(line);
            }
        }
    }
    if (atomic)
        txn.ops.push_back(MemOp::marker(OpKind::AtomicEnd));
    return txn;
}

TEST(CoreTest, ExecutesScriptedTransactions)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    source.scripts[0].push_back(makeTxn(0x10000, 4, true));
    source.scripts[0].push_back(makeTxn(0x20000, 4, true));

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    EXPECT_TRUE(sys.core(0).done());
    EXPECT_EQ(sys.core(0).committed(), 2u);
    EXPECT_EQ(sys.core(1).committed(), 0u);
    // The flushed data must be durable.
    EXPECT_EQ(sys.nvmImage().load64(0x10000 + 8), 1u);
}

TEST(CoreTest, LoadsBlockStoresDoNot)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    // Loads to distinct cold lines: each blocks for the full miss.
    Transaction loads;
    for (int i = 0; i < 4; ++i)
        loads.ops.push_back(MemOp::load(0x30000 + Addr(i) * 4096, 8));
    source.scripts[0].push_back(loads);
    source.scripts[1].push_back(makeTxn(0x50000, 4, false));

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    // Core 1 (stores only) finishes long before core 0 (cold loads):
    // stores retire from the SQ in the background.
    const auto &stats = sys.stats();
    EXPECT_EQ(stats.value("core0", "ops"), 4u);
    EXPECT_GT(stats.value("core0", "load_stall_cycles"), 4u * 240u);
}

TEST(CoreTest, SqBackpressureCountsFullCycles)
{
    // A 2-entry SQ and BASE logging (log persist in the store path)
    // guarantees back-pressure.
    System sys(tinyConfig(DesignKind::Base, /*sq=*/2),
               Addr(8) * 1024 * 1024);
    ScriptedSource source;
    // Stores to distinct lines so every store needs a log write.
    Transaction txn;
    txn.ops.push_back(MemOp::marker(OpKind::AtomicBegin));
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t value = i;
        txn.ops.push_back(MemOp::store(0x60000 + Addr(i) * 64, &value, 8));
        txn.modifiedLines.push_back(0x60000 + Addr(i) * 64);
    }
    txn.ops.push_back(MemOp::marker(OpKind::AtomicEnd));
    source.scripts[0].push_back(txn);

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    EXPECT_EQ(sys.core(0).committed(), 1u);
    EXPECT_GT(sys.stats().value("core0", "sq_full_cycles"), 0u);
}

TEST(CoreTest, StoreToLoadForwardingSkipsTheCache)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    Transaction txn;
    const std::uint64_t value = 7;
    txn.ops.push_back(MemOp::store(0x70000, &value, 8));
    txn.ops.push_back(MemOp::load(0x70000, 8));  // forwarded
    source.scripts[0].push_back(txn);

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    // Only the store touches the L1 (one store, zero loads).
    EXPECT_EQ(sys.stats().value("l1c0", "loads"), 0u);
    EXPECT_EQ(sys.stats().value("l1c0", "stores"), 1u);
}

TEST(CoreTest, AtomicEndWaitsForStoreDrain)
{
    // With ATOM, Atomic_End flushes modified lines; the flushes must
    // observe every store of the region (values in NVM afterwards).
    System sys(tinyConfig(DesignKind::Atom), Addr(8) * 1024 * 1024);
    ScriptedSource source;
    source.scripts[0].push_back(makeTxn(0x80000, 16, true));

    sys.core(0).setSource(&source);
    sys.core(1).setSource(&source);
    sys.core(0).start();
    sys.core(1).start();
    sys.eventQueue().run();

    EXPECT_EQ(sys.core(0).committed(), 1u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(sys.nvmImage().load64(0x80000 + Addr(i) * 8),
                  std::uint64_t(i));
}

TEST(StoreQueueTest, HoldsLineMatchesPendingStores)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const std::uint8_t payload[8] = {0xaa, 0xaa, 0xaa, 0xaa,
                                     0xaa, 0xaa, 0xaa, 0xaa};
    bool accepted = false;
    sq.push(0x90008, payload, 8, [&] { accepted = true; });
    EXPECT_TRUE(accepted);
    EXPECT_TRUE(sq.holdsLine(0x90000));   // same line
    EXPECT_TRUE(sq.holdsLine(0x9003f));
    EXPECT_FALSE(sq.holdsLine(0x90040));  // next line
    sys.eventQueue().run();
    EXPECT_TRUE(sq.empty());
}

TEST(StoreQueueTest, WhenEmptyFiresAfterDrain)
{
    System sys(tinyConfig(DesignKind::NonAtomic), Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const std::uint8_t payload[8] = {1, 1, 1, 1, 1, 1, 1, 1};
    sq.push(0xa0000, payload, 8, [] {});
    bool drained = false;
    sq.whenEmpty([&] { drained = true; });
    EXPECT_FALSE(drained);
    sys.eventQueue().run();
    EXPECT_TRUE(drained);
}

/** An 8-byte little-endian store payload. */
std::array<std::uint8_t, 8>
word(std::uint64_t v)
{
    std::array<std::uint8_t, 8> b{};
    std::memcpy(b.data(), &v, 8);
    return b;
}

/** The 8-byte word at @p addr in core 0's L1 (the line must be
 * resident). */
std::uint64_t
l1Word(System &sys, Addr addr)
{
    const CacheLineState *frame =
        sys.l1(0).array().find(lineAlign(addr));
    EXPECT_NE(frame, nullptr);
    if (!frame)
        return 0;
    std::uint64_t v = 0;
    std::memcpy(&v,
                sys.l1(0).array().data(frame).data() +
                    (addr - lineAlign(addr)),
                8);
    return v;
}

TEST(StoreQueueTest, RingWrapsPastItsCapacity)
{
    // 10 stores through a 4-slot ring: every slot is reused at least
    // twice, and each store still retires in order with its own data.
    System sys(tinyConfig(DesignKind::NonAtomic, /*sq=*/4),
               Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    std::vector<int> accepted;
    for (int i = 0; i < 10; ++i) {
        const auto bytes = word(100 + i);
        sq.push(0xb0000 + Addr(i) * 8, bytes.data(), 8,
                [&accepted, i] { accepted.push_back(i); });
        EXPECT_LE(sq.occupancy(), 4u);
    }
    EXPECT_EQ(accepted.size(), 4u);  // the rest wait for free slots
    sys.eventQueue().run();
    EXPECT_TRUE(sq.empty());
    ASSERT_EQ(accepted.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(accepted[i], i);
        EXPECT_EQ(l1Word(sys, 0xb0000 + Addr(i) * 8), 100u + i);
    }
    EXPECT_EQ(sys.stats().value("core0", "stores_retired"), 10u);
}

TEST(StoreQueueTest, FullRetriesResumeInFifoOrderAndCountTheirWait)
{
    System sys(tinyConfig(DesignKind::NonAtomic, /*sq=*/2),
               Addr(8) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();
    StoreQueue &sq = sys.core(0).storeQueue();
    // Fill the SQ, then park three stores issued at different ticks.
    std::vector<std::pair<int, Tick>> accepted;
    auto push = [&](int i) {
        const auto bytes = word(i);
        sq.push(0xc0000 + Addr(i) * kLineBytes, bytes.data(), 8,
                [&accepted, &eq, i] { accepted.emplace_back(i, eq.now()); });
    };
    push(0);
    push(1);
    const Tick t0 = eq.now();
    push(2);
    eq.run(t0 + 3);
    const Tick t3 = eq.now();
    push(3);
    push(4);
    ASSERT_EQ(accepted.size(), 2u);
    eq.run();

    ASSERT_EQ(accepted.size(), 5u);
    std::uint64_t waited = 0;
    const Tick parked_at[] = {0, 0, t0, t3, t3};
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(accepted[i].first, i);
        if (i >= 2) {
            EXPECT_GT(accepted[i].second, parked_at[i]);
            waited += accepted[i].second - parked_at[i];
        }
    }
    EXPECT_EQ(sq.fullCycles(), waited);
    EXPECT_EQ(sys.stats().value("core0", "sq_full_cycles"), waited);
}

TEST(StoreQueueTest, SameLineStoresIssueInProgramOrderWhenDrainingWide)
{
    SystemConfig cfg = tinyConfig(DesignKind::NonAtomic, /*sq=*/8);
    cfg.sqDrainWidth = 4;
    System sys(cfg, Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const Addr a = 0xd0000 + 8;
    const Addr b = 0xd0040 + 8;
    const std::uint64_t values[] = {1, 2, 3, 4};
    const Addr addrs[] = {a, a, b, a};
    for (int i = 0; i < 4; ++i) {
        const auto bytes = word(values[i]);
        sq.push(addrs[i], bytes.data(), 8, [] {});
    }
    // The wide drain issues the first store of each line at once; the
    // younger stores to line a wait for the older one to complete.
    EXPECT_EQ(sys.stats().value("l1c0", "stores"), 2u);
    sys.eventQueue().run();
    EXPECT_TRUE(sq.empty());
    EXPECT_EQ(sys.stats().value("l1c0", "stores"), 4u);
    EXPECT_EQ(l1Word(sys, a), 4u);  // program order: the last one wins
    EXPECT_EQ(l1Word(sys, b), 3u);
}

TEST(StoreQueueTest, HoldsLineSeesEntriesAcrossTheWrapPoint)
{
    System sys(tinyConfig(DesignKind::NonAtomic, /*sq=*/4),
               Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const auto bytes = word(7);
    // Advance the ring head to slot 3, then occupy slots 3, 0 and 1.
    for (int i = 0; i < 3; ++i)
        sq.push(0xe0000 + Addr(i) * kLineBytes, bytes.data(), 8, [] {});
    sys.eventQueue().run();
    ASSERT_TRUE(sq.empty());
    sq.push(0xf0000, bytes.data(), 8, [] {});  // slot 3
    sq.push(0xf0040, bytes.data(), 8, [] {});  // slot 0 (wrapped)
    sq.push(0xf0080, bytes.data(), 8, [] {});  // slot 1
    EXPECT_EQ(sq.occupancy(), 3u);
    EXPECT_TRUE(sq.holdsLine(0xf0000));
    EXPECT_TRUE(sq.holdsLine(0xf0078));
    EXPECT_TRUE(sq.holdsLine(0xf00a0));
    EXPECT_FALSE(sq.holdsLine(0xf00c0));
    EXPECT_FALSE(sq.holdsLine(0xe0000));  // retired before the wrap
    sys.eventQueue().run();
    EXPECT_FALSE(sq.holdsLine(0xf0040));
}

TEST(StoreQueueTest, WhenEmptyFiresOnceAfterTheDrain)
{
    System sys(tinyConfig(DesignKind::NonAtomic, /*sq=*/2),
               Addr(8) * 1024 * 1024);
    StoreQueue &sq = sys.core(0).storeQueue();
    const auto bytes = word(1);
    for (int i = 0; i < 5; ++i)
        sq.push(0x100000 + Addr(i) * 8, bytes.data(), 8, [] {});
    int fired = 0;
    sq.whenEmpty([&] { ++fired; });
    sys.eventQueue().run();
    EXPECT_EQ(fired, 1);
    // A later drain does not re-fire a consumed waiter.
    sq.push(0x100100, bytes.data(), 8, [] {});
    sys.eventQueue().run();
    EXPECT_EQ(fired, 1);
    // On an empty queue, whenEmpty runs inline.
    sq.whenEmpty([&] { ++fired; });
    EXPECT_EQ(fired, 2);
}

TEST(AusPoolTest, StructuralOverflowStallsAndRecovers)
{
    EventQueue eq;
    StatSet stats;
    AusPool pool(eq, /*slots=*/1, /*cores=*/2, stats);

    std::uint32_t slot0 = 99;
    pool.acquire(0, [&](std::uint32_t s) { slot0 = s; });
    EXPECT_EQ(slot0, 0u);

    bool got1 = false;
    pool.acquire(1, [&](std::uint32_t) { got1 = true; });
    EXPECT_FALSE(got1);  // structural overflow: waits

    eq.postIn(100, [&] { pool.release(0); });
    eq.run();
    EXPECT_TRUE(got1);
    EXPECT_EQ(pool.slotOf(1), 0);
    EXPECT_GE(pool.structuralStallCycles(), 100u);
}

} // namespace
} // namespace atomsim
