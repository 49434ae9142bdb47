#include "golden_support.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "harness/runner.hh"
#include "workloads/hash_workload.hh"
#include "workloads/kv_workload.hh"
#include "workloads/tpcc/tpcc_workload.hh"

namespace atomsim
{
namespace golden
{

namespace
{

GoldenRun
collect(Runner &runner, TraceHasher &tracer)
{
    runner.setUp();
    const RunResult result = runner.run();
    GoldenRun r;
    r.hash = tracer.hash();
    r.deliveries = tracer.deliveries();
    r.txns = result.txns;
    r.stats = std::as_const(runner.system()).stats().dump();
    return r;
}

/** The hash micro-benchmark that drives the hybrid and flash-tier
 * goldens: larger entries on the quickstart machine. */
MicroParams
tierParams()
{
    MicroParams params;
    params.entryBytes = 512;
    params.initialItems = 48;
    params.txnsPerCore = 6;
    return params;
}

GoldenRun
runHash(const SystemConfig &cfg, const MicroParams &params)
{
    HashWorkload workload(params);
    Runner runner(cfg, workload, params.txnsPerCore);
    TraceHasher tracer;
    runner.system().mesh().setTracer(&tracer);
    return collect(runner, tracer);
}

SystemConfig
quickstartMachine()
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.l2Tiles = 8;
    cfg.meshRows = 2;
    cfg.ausPerMc = 8;
    cfg.design = DesignKind::AtomOpt;
    return cfg;
}

} // namespace

GoldenRun
runGoldenHybrid(HybridMode mode, AppDirectRegion region)
{
    SystemConfig cfg = quickstartMachine();
    cfg.hybridMode = mode;
    cfg.appDirectRegion = region;
    cfg.dramCacheMBPerMc = 1;
    // A small L2 forces writebacks and re-reads through the
    // controllers, so the DRAM tier processes real traffic.
    cfg.l2TileBytes = 64 * 1024;
    cfg.l2Assoc = 4;
    return runHash(cfg, tierParams());
}

GoldenRun
runGoldenFlashTier()
{
    SystemConfig cfg = quickstartMachine();
    cfg.ssdTier = true;
    cfg.durabilityPolicy = DurabilityPolicy::Balanced;
    // Aggressive destage thresholds and short flash latencies so the
    // small run forwards and promotes real pages.
    cfg.ssdColdPageWatermark = 0;
    cfg.ssdFlashPagesPerMc = 256;
    cfg.ssdMaxDestageBacklog = 4;
    cfg.ssdReadLatency = 2000;
    cfg.ssdProgramLatency = 5000;
    return runHash(cfg, tierParams());
}

GoldenRun
runGoldenServing1024()
{
    SystemConfig cfg = SystemConfig::makeMeshPreset(1024);
    cfg.numTenants = 4;

    KvParams params;
    params.numTenants = cfg.numTenants;
    params.theta = 0.99;
    params.keysPerTenant = 256;
    params.insertsPerCore = 2;
    params.txnsPerCore = 1;

    KvWorkload workload(params);
    Runner runner(cfg, workload, params.txnsPerCore);
    TraceHasher tracer;
    runner.system().mesh().setTracer(&tracer);
    return collect(runner, tracer);
}

GoldenRun
runGoldenQuickstart()
{
    MicroParams params;
    params.entryBytes = 256;
    params.initialItems = 24;
    params.txnsPerCore = 6;
    return runHash(quickstartMachine(), params);
}

GoldenRun
runGoldenTpcc()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.l2Tiles = 4;
    cfg.meshRows = 2;
    cfg.ausPerMc = 4;
    cfg.design = DesignKind::Atom;

    tpcc::ScaleParams scale;
    scale.customersPerDistrict = 8;
    scale.items = 128;
    TpccWorkload workload(scale);

    Runner runner(cfg, workload, /*txns_per_core=*/4,
                  Addr(128) * 1024 * 1024);
    TraceHasher tracer;
    runner.system().mesh().setTracer(&tracer);
    return collect(runner, tracer);
}

std::string
renderGoldens()
{
    const GoldenRun quick = runGoldenQuickstart();
    const GoldenRun tpcc = runGoldenTpcc();
    const GoldenRun memory_mode = runGoldenHybrid(
        HybridMode::MemoryMode, AppDirectRegion::LogRegion);
    const GoldenRun direct_log = runGoldenHybrid(
        HybridMode::AppDirect, AppDirectRegion::LogRegion);
    const GoldenRun direct_data = runGoldenHybrid(
        HybridMode::AppDirect, AppDirectRegion::DataRegion);
    const GoldenRun flash = runGoldenFlashTier();
    const GoldenRun serving = runGoldenServing1024();

    char buf[2048];
    const int len = std::snprintf(
        buf, sizeof(buf),
        "// Golden delivery-stream constants. GENERATED -- never\n"
        "// hand-edit: run `test_golden_trace --dump-goldens` and\n"
        "// commit the rewritten file together with the intentional\n"
        "// timing change that moved it.\n"
        "// clang-format off\n"
        "constexpr std::uint64_t kGoldenQuickstartHash = "
        "0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenQuickstartDeliveries = "
        "%lluull;\n"
        "constexpr std::uint64_t kGoldenTpccHash = 0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenTpccDeliveries = %lluull;\n"
        "constexpr std::uint64_t kGoldenMemoryModeHash = "
        "0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenAppDirectLogHash = "
        "0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenAppDirectDataHash = "
        "0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenFlashTierHash = "
        "0x%016llxull;\n"
        "constexpr std::uint64_t kGoldenServing1024Hash = "
        "0x%016llxull;\n"
        "// clang-format on\n",
        (unsigned long long)quick.hash,
        (unsigned long long)quick.deliveries,
        (unsigned long long)tpcc.hash,
        (unsigned long long)tpcc.deliveries,
        (unsigned long long)memory_mode.hash,
        (unsigned long long)direct_log.hash,
        (unsigned long long)direct_data.hash,
        (unsigned long long)flash.hash,
        (unsigned long long)serving.hash);
    if (len < 0 || std::size_t(len) >= sizeof(buf)) {
        // A truncated render would silently regenerate a truncated
        // goldens.inc (and the idempotence test would then bless it).
        std::fprintf(stderr,
                     "renderGoldens: buffer too small (%d bytes "
                     "needed)\n", len);
        std::abort();
    }
    return std::string(buf, std::size_t(len));
}

bool
maybeDumpGoldens(int argc, char **argv)
{
    bool dump = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dump-goldens") == 0)
            dump = true;
    }
    if (!dump)
        return false;

    std::printf("regenerating goldens...\n");
    const std::string contents = renderGoldens();

    const char *path = ATOMSIM_GOLDENS_PATH;
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return true;
    }
    std::fputs(contents.c_str(), f);
    std::fclose(f);

    std::printf("wrote %s:\n%s", path, contents.c_str());
    return true;
}

} // namespace golden
} // namespace atomsim
