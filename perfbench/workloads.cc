#include "workloads.hh"

#include <vector>

#include "workloads/hash_workload.hh"
#include "workloads/kv_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

namespace perfbench
{

using namespace atomsim;

namespace
{

constexpr std::uint32_t kTenants = 8;

// --- tpcc32: TPC-C on the paper's Table-I machine -------------------

SystemConfig
tpccConfig(std::uint64_t seed, bool crash)
{
    SystemConfig cfg;  // 32 cores, 4x8 mesh, 4 MCs, flat NVM
    cfg.design = DesignKind::AtomOpt;
    cfg.seed = seed;
    // TPC-C's regions mutate shared B+-trees and district rows; crash
    // consistency needs the lock-based isolation ATOM assumes from
    // software (as the crash campaign's TPC-C cells do).
    cfg.serializeAtomicRegions = crash;
    return cfg;
}

std::unique_ptr<Workload>
tpccMake(std::uint64_t, std::uint32_t)
{
    // Scale factor 1; transaction inputs come from the Runner's
    // per-core generators, which SystemConfig::seed drives.
    return std::make_unique<TpccWorkload>(tpcc::ScaleParams{});
}

// --- kv1024: zipfian multi-tenant KV serving on 1024 tiles ----------

SystemConfig
kvConfig(std::uint64_t seed, bool crash)
{
    SystemConfig cfg = SystemConfig::makeMeshPreset(1024);
    cfg.numTenants = kTenants;
    cfg.design = DesignKind::AtomOpt;
    cfg.seed = seed;
    // The cores of one tenant update one shared slot table, so a
    // crash needs the same region isolation as TPC-C: without it,
    // rolling back one core's region can restore a pre-image over
    // another core's committed update of the same key.
    cfg.serializeAtomicRegions = crash;
    return cfg;
}

std::unique_ptr<Workload>
kvMake(std::uint64_t seed, std::uint32_t txns_per_core)
{
    KvParams kv;
    kv.numTenants = kTenants;
    kv.theta = 0.99;
    kv.readFraction = 0.5;
    kv.updateFraction = 0.4;
    kv.keysPerTenant = 1024;
    kv.insertsPerCore = 8;
    kv.txnsPerCore = txns_per_core;
    kv.seed = seed;
    return std::make_unique<KvWorkload>(kv);
}

// --- tiered_eventual: hash on DRAM cache + NVM + flash (eventual) ---

SystemConfig
tieredConfig(std::uint64_t seed, bool)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.l2TileBytes = 64 * 1024;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::Atom;
    cfg.seed = seed;
    // Tier 1: memory-mode DRAM cache, 1 MB per controller.
    cfg.hybridMode = HybridMode::MemoryMode;
    cfg.dramCacheMBPerMc = 1;
    // Tier 3: flash behind NVM, eventual durability, aggressive
    // destage (pages go cold at truncation) with short flash timings.
    cfg.ssdTier = true;
    cfg.durabilityPolicy = DurabilityPolicy::Eventual;
    cfg.ssdColdPageWatermark = 0;
    cfg.ssdFlashPagesPerMc = 256;
    cfg.ssdMaxDestageBacklog = 4;
    cfg.ssdReadLatency = 2000;
    cfg.ssdProgramLatency = 5000;
    return cfg;
}

std::unique_ptr<Workload>
tieredMake(std::uint64_t seed, std::uint32_t txns_per_core)
{
    MicroParams p;
    p.entryBytes = 512;
    // 256 x 576-byte nodes per core: 4 x 144 KB against 4 x 64 KB of L2.
    p.initialItems = 256;
    p.txnsPerCore = txns_per_core;
    p.seed = seed;
    return std::make_unique<HashWorkload>(p);
}

const std::vector<BenchWorkload> &
workloads()
{
    static const std::vector<BenchWorkload> all = {
        {"tpcc32", 32, Addr(512) * 1024 * 1024, tpccConfig, tpccMake},
        {"kv1024", 32, Addr(512) * 1024 * 1024, kvConfig, kvMake},
        {"tiered_eventual", 3000, Addr(64) * 1024 * 1024, tieredConfig,
         tieredMake},
    };
    return all;
}

} // namespace

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace perfbench
