#include "drivers.hh"

#include <algorithm>
#include <chrono>

#include "harness/system.hh"
#include "mem/dram_cache.hh"
#include "mem/memory_controller.hh"
#include "mem/ssd_device.hh"
#include "net/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace perfbench
{

using namespace atomsim;

namespace
{

constexpr int kTimedBatches = 5;

/**
 * Median host ns per call of @p batch (which returns the number of
 * calls it made), after one untimed warm-up batch.
 */
template <typename Batch>
double
nsPerCall(Batch &&batch)
{
    batch();
    std::vector<double> ns;
    for (int i = 0; i < kTimedBatches; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t calls = batch();
        const auto t1 = std::chrono::steady_clock::now();
        ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0)
                         .count() /
                     double(calls));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** EventQueue: post() a one-shot continuation and execute it. */
double
eventQueueDriver(std::uint64_t seed)
{
    constexpr std::uint32_t kPosts = 200000;
    Random rng(seed);
    std::vector<Cycles> delays(kPosts);
    for (Cycles &d : delays)
        d = 1 + rng.below(1000);  // within the default wheel horizon
    EventQueue eq;
    std::uint64_t sink = 0;
    return nsPerCall([&] {
        for (Cycles d : delays)
            eq.postIn(d, [&sink] { ++sink; });
        eq.run();
        return std::uint64_t(kPosts);
    });
}

/** Mesh: send() a callback message between random tiles of 4x8. */
double
meshDriver(std::uint64_t seed)
{
    constexpr std::uint32_t kWaves = 4000;
    constexpr std::uint32_t kPerWave = 32;
    SystemConfig cfg;  // Table I: 4x8 mesh
    EventQueue eq;
    StatSet stats;
    Mesh mesh(eq, cfg, stats);
    Random rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> routes(
        kWaves * kPerWave);
    for (auto &r : routes)
        r = {std::uint32_t(rng.below(mesh.numNodes())),
             std::uint32_t(rng.below(mesh.numNodes()))};
    std::uint64_t sink = 0;
    return nsPerCall([&] {
        for (std::uint32_t w = 0; w < kWaves; ++w) {
            for (std::uint32_t i = 0; i < kPerWave; ++i) {
                const auto &r = routes[w * kPerWave + i];
                mesh.send(r.first, r.second, MsgType::GetS,
                          [&sink] { ++sink; });
            }
            eq.run();
        }
        return std::uint64_t(kWaves) * kPerWave;
    });
}

/**
 * L1/L2/directory miss path: L1 load misses spread over 8 MB, four
 * times the two L2 tiles, so most also miss L2 and read NVM.
 */
double
missPathDriver(std::uint64_t seed)
{
    constexpr std::uint32_t kLoads = 20000;
    constexpr Addr kRegion = Addr(8) * 1024 * 1024;  // > L1 + L2
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.l2Tiles = 2;
    cfg.meshRows = 1;
    cfg.seed = seed;
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();
    Random rng(seed);
    std::uint64_t done = 0;
    return nsPerCall([&] {
        for (std::uint32_t i = 0; i < kLoads; ++i) {
            const Addr addr =
                kPageBytes + rng.below(kRegion / kLineBytes) * kLineBytes;
            sys.l1(0).load(addr, [&done] { ++done; });
            eq.run();
        }
        return std::uint64_t(kLoads);
    });
}

/** MemoryController: alternating readLine / writeLine to NVM. */
double
nvmDriver(std::uint64_t seed)
{
    constexpr std::uint32_t kBursts = 4000;
    constexpr std::uint32_t kPerBurst = 32;
    SystemConfig cfg;
    EventQueue eq;
    DataImage nvm;
    StatSet stats;
    MemoryController mc(0, eq, cfg, nvm, stats);
    Random rng(seed);
    Line line{};
    std::uint64_t sink = 0;
    return nsPerCall([&] {
        for (std::uint32_t b = 0; b < kBursts; ++b) {
            for (std::uint32_t i = 0; i < kPerBurst; ++i) {
                const Addr addr = rng.below(16384) * kLineBytes;
                if (i & 1) {
                    line[0] = std::uint8_t(i);
                    mc.writeLine(addr, line, WriteKind::DataWb,
                                 [&sink] { ++sink; });
                } else {
                    mc.readLine(addr, ReadKind::Demand,
                                [&sink](const Line &l) { sink += l[0]; });
                }
            }
            eq.run();
        }
        return std::uint64_t(kBursts) * kPerBurst;
    });
}

/** DramCache: read() hits over a resident 256 KB set. */
double
dramDriver(std::uint64_t seed)
{
    constexpr std::uint32_t kLines = 4096;
    constexpr std::uint32_t kReads = 1000000;
    SystemConfig cfg;
    cfg.hybridMode = HybridMode::MemoryMode;
    cfg.dramCacheMBPerMc = 1;
    StatSet stats;
    DramCache cache(cfg, stats, "dram0");
    Line line{};
    for (std::uint32_t i = 0; i < kLines; ++i)
        cache.fill(Addr(i) * kLineBytes, line);
    Random rng(seed);
    std::vector<Addr> order(kReads);
    for (Addr &a : order)
        a = rng.below(kLines) * kLineBytes;
    std::uint64_t hits = 0;
    return nsPerCall([&] {
        Line out;
        for (Addr a : order)
            hits += cache.read(a, out) ? 1 + out[0] : 0;
        return std::uint64_t(kReads);
    });
}

/** SsdDevice: submit, ring the doorbell and reap page commands. */
double
ssdDriver(std::uint64_t)
{
    constexpr std::uint32_t kRounds = 200;
    SystemConfig cfg;
    cfg.ssdTier = true;
    cfg.ssdChannels = 2;
    cfg.ssdDiesPerChannel = 2;
    cfg.ssdQueueDepth = 8;
    cfg.ssdFlashPagesPerMc = 64;
    cfg.ssdReadLatency = 2000;
    cfg.ssdProgramLatency = 5000;
    EventQueue eq;
    StatSet stats;
    SsdDevice ssd(0, eq, cfg, stats);
    std::uint64_t completions = 0;
    return nsPerCall([&] {
        const std::uint64_t before = completions;
        for (std::uint32_t round = 0; round < kRounds; ++round) {
            for (std::uint32_t qp = 0; qp < cfg.ssdChannels; ++qp) {
                for (std::uint32_t i = 0; i < cfg.ssdQueueDepth / 2; ++i) {
                    for (bool write : {true, false}) {
                        SsdDevice::Cmd *c = ssd.acquireCmd();
                        c->isWrite = write;
                        c->flashPage = qp + cfg.ssdChannels * i;
                        c->done = [&completions](SsdDevice::Cmd &) {
                            ++completions;
                        };
                        if (!ssd.submit(qp, c))
                            ssd.releaseCmd(c);
                    }
                }
                ssd.ringDoorbell(qp);
            }
            eq.run();
        }
        return std::max<std::uint64_t>(completions - before, 1);
    });
}

/** LogM: beginUpdate, seven postLogEntry calls, truncate. */
double
logmDriver(std::uint64_t)
{
    constexpr std::uint32_t kUpdates = 4000;
    constexpr std::uint32_t kEntries = 7;  // one full record
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.l2Tiles = 2;
    cfg.meshRows = 1;
    cfg.ausPerMc = 2;
    cfg.design = DesignKind::Atom;
    System sys(cfg, Addr(16) * 1024 * 1024);
    EventQueue &eq = sys.eventQueue();
    LogM *logm = sys.logm(0);
    AusPool *pool = sys.ausPool();
    Line old{};
    return nsPerCall([&] {
        for (std::uint32_t u = 0; u < kUpdates; ++u) {
            pool->acquire(0, [&, u](std::uint32_t slot) {
                logm->beginUpdate(slot);
                const Addr base = kPageBytes + Addr(u % 64) * kEntries *
                                                   kLineBytes;
                for (std::uint32_t i = 0; i < kEntries; ++i)
                    logm->postLogEntry(slot, base + i * kLineBytes, old,
                                       true, {});
                logm->truncate(slot, [pool] { pool->release(0); });
            });
            eq.run();
        }
        return std::uint64_t(kUpdates) * kEntries;
    });
}

} // namespace

std::vector<DriverResult>
runLayerDrivers(std::uint64_t seed)
{
    return {
        {"sim.ns_per_post", eventQueueDriver(seed)},
        {"net.ns_per_send", meshDriver(seed)},
        {"cache.ns_per_miss", missPathDriver(seed)},
        {"mem.ns_per_nvm_op", nvmDriver(seed)},
        {"mem.ns_per_dram_read", dramDriver(seed)},
        {"mem.ns_per_ssd_cmd", ssdDriver(seed)},
        {"atom.ns_per_log_entry", logmDriver(seed)},
    };
}

} // namespace perfbench
