/**
 * @file
 * Multi-tenant serving sweep (plain chrono; always builds).
 *
 * Runs the zipfian KV serving workload (src/workloads/kv_workload)
 * across the skew x tenants x mesh-size grid and reports per-tenant
 * throughput and p50/p95/p99 transaction latency per class
 * (read/update/insert). The large-mesh rows use the 256- and
 * 1024-tile presets (SystemConfig::makeMeshPreset).
 *
 * `--smoke` runs the CI subset: the 256-tile preset with 2 tenants and
 * skew on, plus the 1024-tile scaling gates -- System construction at
 * the 1024-tile preset must finish inside a generous wall budget with
 * O(1) amortized allocations per registered stat counter and bounded
 * resident-memory growth, and stat dump/aggregation over the full
 * 1024-tile counter population must stay in bounds. These gates pin
 * the fixes for the structures that were O(cores^2)-ish at 1024 tiles
 * (ordered-map stat registration) and the per-set cache footprint; the binary exits non-zero if any gate
 * fails. The 1024-tile machine then serves one transaction per core,
 * and its L1 and L2 footprint (sets allocated / configured, line-data
 * slots) is printed at construction and after that run, beside the
 * architectural and NVM image footprint (pages, records, KB) after
 * it; the NVM image's record bytes are gated.
 *
 * `--stats-json <path>` exports one row per run with a per-tenant
 * array: {"tenant": N, "commits": ..., "aus_acquires": ...,
 * "log_writes": ..., "read"/"update"/"insert":
 * {"count", "p50", "p95", "p99"}}.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include <malloc.h>
#include <unistd.h>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "workloads/kv_workload.hh"

namespace
{
std::uint64_t g_allocCount = 0;
}

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using namespace atomsim;

JsonWriter g_json;
bool g_jsonOpen = false;

struct SweepPoint
{
    std::uint32_t tiles;     //!< 32 (Table I), 256 or 1024 (presets)
    std::uint32_t tenants;   //!< 0 = single-tenant
    double theta;            //!< zipfian skew (0 = uniform)
    std::uint32_t txnsPerCore;
};

SystemConfig
configFor(const SweepPoint &p)
{
    SystemConfig cfg = p.tiles == 32 ? SystemConfig{}
                                     : SystemConfig::makeMeshPreset(p.tiles);
    cfg.numTenants = p.tenants;
    return cfg;
}

KvParams
paramsFor(const SweepPoint &p)
{
    KvParams kv;
    kv.numTenants = p.tenants;
    kv.theta = p.theta;
    kv.txnsPerCore = p.txnsPerCore;
    // Keep the per-tenant key population meaningful even when many
    // tenants split the machine.
    kv.keysPerTenant = 1024;
    kv.insertsPerCore = 8;
    return kv;
}

/** One sweep run; prints the row and appends the JSON record. */
void
runPoint(const SweepPoint &p)
{
    const SystemConfig cfg = configFor(p);
    KvWorkload workload(paramsFor(p));

    Runner runner(cfg, workload, p.txnsPerCore);
    runner.setUp();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = runner.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const StatSet &stats = std::as_const(runner.system()).stats();
    std::printf("%5u tiles  %2u tenants  theta %.2f  %8llu txns  "
                "%10llu cycles  %8.1f ms wall\n",
                p.tiles, cfg.tenantSlots(), p.theta,
                (unsigned long long)r.txns, (unsigned long long)r.cycles,
                wall_ms);
    for (std::uint32_t t = 0; t < cfg.tenantSlots(); ++t) {
        const std::string g = "tenant" + std::to_string(t);
        std::printf(
            "    tenant %u: %llu commits  read p50/p95/p99 = "
            "%llu/%llu/%llu  update = %llu/%llu/%llu\n",
            t, (unsigned long long)stats.value(g, "commits"),
            (unsigned long long)runner.latency(t, 0).percentile(0.50),
            (unsigned long long)runner.latency(t, 0).percentile(0.95),
            (unsigned long long)runner.latency(t, 0).percentile(0.99),
            (unsigned long long)runner.latency(t, 1).percentile(0.50),
            (unsigned long long)runner.latency(t, 1).percentile(0.95),
            (unsigned long long)runner.latency(t, 1).percentile(0.99));
    }

    if (!g_jsonOpen)
        return;
    g_json.beginObject();
    g_json.kv("tiles", p.tiles);
    g_json.kv("tenants", cfg.tenantSlots());
    g_json.kv("theta", p.theta);
    g_json.kv("txns_per_core", p.txnsPerCore);
    g_json.kv("txns", r.txns);
    g_json.kv("cycles", std::uint64_t(r.cycles));
    g_json.kv("txn_per_sec", r.txnPerSec);
    g_json.kv("wall_ms", wall_ms);
    g_json.key("per_tenant");
    g_json.beginArray();
    for (std::uint32_t t = 0; t < cfg.tenantSlots(); ++t) {
        const std::string g = "tenant" + std::to_string(t);
        g_json.beginObject();
        g_json.kv("tenant", t);
        g_json.kv("commits", stats.value(g, "commits"));
        g_json.kv("aus_acquires", stats.value(g, "aus_acquires"));
        g_json.kv("log_writes", stats.value(g, "log_writes"));
        for (std::uint16_t cls = 0; cls < KvWorkload::kNumClasses; ++cls)
            writeLatencyObject(g_json, KvWorkload::className(cls),
                               runner.latency(t, cls));
        g_json.endObject();
    }
    g_json.endArray();
    g_json.endObject();
}

/** Resident set size of this process in MB, or -1 when
 * /proc/self/statm is unavailable. */
double
residentMb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return -1.0;
    unsigned long long size = 0;
    unsigned long long resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return -1.0;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

/** Bound on the resident growth of building the 1024-tile machine
 * (its System plus the Runner's per-core state): the measured
 * +10.5 MB rounded up. */
constexpr double kBuildResidentMbBound = 12.0;

/** Bound on the NVM image's record bytes after the 1024-tile machine
 * serves one transaction per core: the measured 2018 KB rounded up.
 * Whole-page images held 977 pages (3908 KB) for the same run. */
constexpr double kNvmRecordKbBound = 2048.0;

/** Print the cache arrays' footprint per level: sets allocated out of
 * sets configured, and line-data slots handed out. */
void
printCacheFootprint(System &sys, const char *when)
{
    std::uint64_t l1_sets = 0, l1_used = 0, l1_slots = 0;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const CacheArray &a = sys.l1(c).array();
        l1_sets += a.numSets();
        l1_used += a.setsAllocated();
        l1_slots += a.dataSlots();
    }
    std::uint64_t l2_sets = 0, l2_used = 0, l2_slots = 0;
    for (std::uint32_t t = 0; t < sys.config().l2Tiles; ++t) {
        const CacheArray &a = sys.l2Tile(t).array();
        l2_sets += a.numSets();
        l2_used += a.setsAllocated();
        l2_slots += a.dataSlots();
    }
    std::printf("cache footprint %s: L1 %llu/%llu sets, %llu data slots; "
                "L2 %llu/%llu sets, %llu data slots\n",
                when, (unsigned long long)l1_used,
                (unsigned long long)l1_sets, (unsigned long long)l1_slots,
                (unsigned long long)l2_used, (unsigned long long)l2_sets,
                (unsigned long long)l2_slots);
}

/** Record bytes of @p img, in KB. */
double
recordKb(const DataImage &img)
{
    return double(img.recordsAllocated()) * DataImage::kRecordBytes / 1024.0;
}

/** Print the architectural and NVM images' footprint: pages indexed,
 * 512-byte records materialized and the KB those records hold. */
void
printImageFootprint(System &sys, const char *when)
{
    const DataImage &arch = sys.archMem();
    const DataImage &nvm = sys.nvmImage();
    std::printf("image footprint %s: arch %llu pages, %llu records "
                "(%.0f KB); NVM %llu pages, %llu records (%.0f KB)\n",
                when, (unsigned long long)arch.pagesAllocated(),
                (unsigned long long)arch.recordsAllocated(), recordKb(arch),
                (unsigned long long)nvm.pagesAllocated(),
                (unsigned long long)nvm.recordsAllocated(), recordKb(nvm));
}

/**
 * 1024-tile scaling gates: construction wall time, amortized
 * allocations per registered counter, resident growth of the build,
 * and stat dump/aggregation time over the full counter population.
 * Time budgets are deliberately generous (CI machines vary); the
 * pre-fix super-linear structures blew them by orders of magnitude.
 * The machine then serves one KV transaction per core; its cache
 * footprint is printed at construction and after the run, its image
 * footprint after the run, and the NVM image's record bytes are gated.
 */
bool
scalingGates()
{
    std::printf("\n-- 1024-tile scaling gates --\n");
    bool ok = true;

    const SystemConfig cfg = SystemConfig::makeMeshPreset(1024);
    KvWorkload workload(paramsFor({1024, 0, 0.99, 1}));
    const std::uint64_t a0 = g_allocCount;
    // Hand the sweep's freed heap back first, so the growth below is
    // this System's own footprint and not memory the allocator reuses.
    malloc_trim(0);
    const double rss0 = residentMb();
    const auto t0 = std::chrono::steady_clock::now();
    Runner runner(cfg, workload, 1);
    System &sys = runner.system();
    const auto t1 = std::chrono::steady_clock::now();
    const double build_s = std::chrono::duration<double>(t1 - t0).count();
    const std::uint64_t build_allocs = g_allocCount - a0;
    const double build_mb = residentMb() - rss0;

    const auto dump = std::as_const(sys).stats().dump();
    const std::uint64_t counters = dump.size();
    const auto t2 = std::chrono::steady_clock::now();
    const double dump_s = std::chrono::duration<double>(t2 - t1).count();

    // Aggregation over the full population (what RunResult::collect
    // does a dozen times per run).
    const std::uint64_t live =
        std::as_const(sys).stats().sum("dir", "ctrl_blocks_live");
    (void)live;
    const auto t3 = std::chrono::steady_clock::now();
    const double sum_s = std::chrono::duration<double>(t3 - t2).count();

    std::printf("construction: %.2f s, %llu allocs, %llu counters "
                "(%.1f allocs/counter)\n",
                build_s, (unsigned long long)build_allocs,
                (unsigned long long)counters,
                double(build_allocs) / double(counters));
    std::printf("stat dump: %.3f s; prefix aggregation: %.3f s\n",
                dump_s, sum_s);
    if (rss0 >= 0)
        std::printf("construction resident growth: %+.1f MB\n", build_mb);
    printCacheFootprint(sys, "at construction");

    if (build_s > 30.0) {
        std::printf("!! 1024-tile construction took %.1f s (> 30 s "
                    "budget)\n", build_s);
        ok = false;
    }
    // The machine itself allocates per component; registration must
    // not add more than a constant number of allocations per counter
    // on top (the ordered map's rebalancing node churn plus per-node
    // key copies pushed this way up at this population).
    if (counters > 0 && build_allocs / counters > 512) {
        std::printf("!! %.0f allocations per registered counter\n",
                    double(build_allocs) / double(counters));
        ok = false;
    }
    // Cache arrays allocate a set's tags and metadata frames on the
    // set's first use and line data only on install, so an unused
    // 1024-tile machine stays small.
    if (rss0 >= 0 && build_mb > kBuildResidentMbBound) {
        std::printf("!! 1024-tile construction grew resident memory by "
                    "%.1f MB (> %.0f MB bound)\n",
                    build_mb, kBuildResidentMbBound);
        ok = false;
    }
    if (dump_s > 5.0 || sum_s > 5.0) {
        std::printf("!! stat dump/aggregation over %llu counters too "
                    "slow (%.2f s / %.2f s)\n",
                    (unsigned long long)counters, dump_s, sum_s);
        ok = false;
    }

    runner.setUp();
    const RunResult r = runner.run();
    std::printf("one txn per core: %llu committed in %llu cycles\n",
                (unsigned long long)r.txns, (unsigned long long)r.cycles);
    printCacheFootprint(sys, "after run");
    printImageFootprint(sys, "after run");
    // Images materialize 512-byte records, not pages: most NVM pages
    // the run touches are log buckets holding one or two records.
    if (recordKb(sys.nvmImage()) > kNvmRecordKbBound) {
        std::printf("!! NVM image holds %.0f KB of records (> %.0f KB "
                    "bound)\n",
                    recordKb(sys.nvmImage()), kNvmRecordKbBound);
        ok = false;
    }
    std::printf("scaling gates: %s\n", ok ? "OK" : "FAIL");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    std::printf("serving_sweep: zipfian multi-tenant KV serving%s\n",
                smoke ? " (smoke subset)" : "");

    const std::string json_path = statsJsonPathFromArgs(argc, argv);
    g_jsonOpen = !json_path.empty();
    if (g_jsonOpen) {
        g_json.beginObject();
        g_json.kv("bench", "serving_sweep");
        g_json.kv("smoke", smoke);
        g_json.key("rows");
        g_json.beginArray();
    }

    if (smoke) {
        // CI subset: the 256-tile preset, 2 tenants, YCSB skew.
        runPoint({256, 2, 0.99, 2});
    } else {
        // Skew x tenants on the Table-I machine (cheap rows first).
        for (double theta : {0.0, 0.99})
            for (std::uint32_t tenants : {0u, 4u})
                runPoint({32, tenants, theta, 8});
        // Large-mesh presets: skewed multi-tenant serving.
        runPoint({256, 2, 0.99, 2});
        runPoint({256, 8, 0.99, 2});
        runPoint({1024, 8, 0.99, 1});
    }

    if (g_jsonOpen)
        g_json.endArray();

    const bool gates_ok = scalingGates();

    if (g_jsonOpen) {
        g_json.kv("scaling_gates_ok", gates_ok);
        g_json.endObject();
        if (!g_json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }
    return gates_ok ? 0 : 1;
}
