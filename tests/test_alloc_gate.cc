/**
 * @file
 * End-to-end allocation gate for the sequential transaction path.
 *
 * Every transaction-path structure -- the store-queue ring, the design
 * layer's per-core commit state, LogM's record registers and lock
 * table, the controllers' in-flight write tables, the directories --
 * either lives inline in a fixed-capacity structure or recycles pooled
 * nodes and flat-table slots. After a warm-up that grows the pools and
 * tables to their high-water marks, what may still allocate is
 * first-touch state (a DataImage record written for the first time,
 * which may need a new slab block or a bigger page index) and the
 * occasional amortized growth of a pool or table.
 *
 * Each shape runs its first half as warm-up, then counts operator-new
 * calls (this binary's own counting operator new) over the second half
 * and bounds them per completed transaction. The bounds are the
 * measured counts rounded up to a tenth: a change that puts an
 * allocation back on the per-transaction path raises the count by at
 * least one per transaction and trips the gate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/runner.hh"
#include "workloads/hash_workload.hh"
#include "workloads/kv_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

namespace
{
std::uint64_t g_allocs = 0;
} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace atomsim
{
namespace
{

/** Transactions completed so far (every tenant and class). */
std::uint64_t
completed(Runner &runner)
{
    std::uint64_t n = 0;
    const std::uint32_t slots = runner.system().config().tenantSlots();
    for (std::uint32_t t = 0; t < slots; ++t)
        for (std::uint32_t c = 0; c < Runner::kTxnClasses; ++c)
            n += runner.latency(t, c).count();
    return n;
}

/**
 * Set up and run @p runner (@p total transactions) to completion;
 * returns the heap allocations per completed transaction over the
 * second half.
 */
double
steadyAllocsPerTxn(Runner &runner, std::uint64_t total)
{
    runner.setUp();
    EventQueue &eq = runner.system().eventQueue();
    eq.runUntil([&runner, total] { return completed(runner) * 2 >= total; });
    const std::uint64_t txns0 = completed(runner);
    const std::uint64_t allocs0 = g_allocs;
    runner.run();
    const std::uint64_t allocs = g_allocs - allocs0;
    const std::uint64_t txns = completed(runner) - txns0;
    EXPECT_EQ(completed(runner), total);
    EXPECT_GT(txns, 0u);
    const double per_txn = txns ? double(allocs) / double(txns) : 0.0;
    std::printf("steady state: %llu allocs over %llu txns = %.3f/txn\n",
                (unsigned long long)allocs, (unsigned long long)txns,
                per_txn);
    return per_txn;
}

TEST(AllocGateTest, TpccUnderAtomOpt)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l2Tiles = 8;
    cfg.meshRows = 2;
    cfg.design = DesignKind::AtomOpt;
    constexpr std::uint32_t kTxnsPerCore = 24;
    TpccWorkload workload{tpcc::ScaleParams{}};
    Runner runner(cfg, workload, kTxnsPerCore);
    // Measured 0.49/txn: DataImage page-index growth and record slab
    // blocks (NVM log and data records, and the architectural records
    // of freshly allocated rows and tree nodes), then amortized
    // LogM/directory table, pool and cache-arena growth.
    EXPECT_LE(steadyAllocsPerTxn(runner, cfg.numCores * kTxnsPerCore),
              0.5);
    DirectAccessor arch(runner.system().archMem());
    EXPECT_EQ(workload.checkConsistency(arch, cfg.numCores), "");
}

TEST(AllocGateTest, ZipfianKvUnderAtomOpt)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.l2Tiles = 16;
    cfg.meshRows = 4;
    cfg.numTenants = 2;
    cfg.design = DesignKind::AtomOpt;
    constexpr std::uint32_t kTxnsPerCore = 48;
    KvParams kv;
    kv.numTenants = 2;
    kv.theta = 0.99;
    kv.keysPerTenant = 256;
    kv.insertsPerCore = 8;
    kv.txnsPerCore = kTxnsPerCore;
    KvWorkload workload(kv);
    Runner runner(cfg, workload, kTxnsPerCore);
    // Measured 0.15/txn: amortized cache-arena chunk, directory/LogM
    // table and NVM page-index growth.
    EXPECT_LE(steadyAllocsPerTxn(runner, cfg.numCores * kTxnsPerCore),
              0.2);
    DirectAccessor arch(runner.system().archMem());
    EXPECT_EQ(workload.checkConsistency(arch, cfg.numCores), "");
}

TEST(AllocGateTest, TieredHashUnderEventualDurability)
{
    // The 4-core hash on DRAM cache + NVM + flash, eventual policy,
    // aggressive destage: the MC channel, DRAM cache, SSD ring, destage
    // pipeline and truncation carry the transaction path.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.l2TileBytes = 64 * 1024;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::Atom;
    cfg.hybridMode = HybridMode::MemoryMode;
    cfg.dramCacheMBPerMc = 1;
    cfg.ssdTier = true;
    cfg.durabilityPolicy = DurabilityPolicy::Eventual;
    cfg.ssdColdPageWatermark = 0;
    cfg.ssdFlashPagesPerMc = 256;
    cfg.ssdMaxDestageBacklog = 4;
    cfg.ssdReadLatency = 2000;
    cfg.ssdProgramLatency = 5000;
    constexpr std::uint32_t kTxnsPerCore = 600;
    MicroParams p;
    p.entryBytes = 512;
    p.initialItems = 256;
    p.txnsPerCore = kTxnsPerCore;
    HashWorkload workload(p);
    Runner runner(cfg, workload, kTxnsPerCore, Addr(64) * 1024 * 1024);
    // Measured 0.024/txn: record slab blocks for flash pages the
    // destage engine programs for the first time and for new hash
    // nodes, and amortized pool growth.
    EXPECT_LE(steadyAllocsPerTxn(runner, cfg.numCores * kTxnsPerCore),
              0.1);
    DirectAccessor arch(runner.system().archMem());
    EXPECT_EQ(workload.checkConsistency(arch, cfg.numCores), "");
}

} // namespace
} // namespace atomsim
