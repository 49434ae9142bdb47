/**
 * @file
 * atombench: host cost and simulated ATOM throughput of one workload.
 *
 *   atombench --workload <tpcc32|kv1024|tiered_eventual> --seed <n>
 *             --seconds <s> --trace <0|1>
 *             [--txns-per-core <n>] [--spans-out <path>]
 *             [--inject-fault 1]
 *
 * --trace 0 repeats the workload (fresh System each time) until
 * --seconds have passed, at least three times, and reports the
 * end-to-end metrics: medians of the host times, and the simulated
 * figures (identical in every repetition; the benchmark checks that).
 *
 * --trace 1 alternates three untraced and three traced instances,
 * crashes another instance at mid-run and recovers it, runs the layer
 * drivers, and reports the per-layer metrics. Spans go to --spans-out
 * when given.
 *
 * Every instance's architectural image must pass the workload's
 * consistency check (the crash instance: its recovered NVM image). The
 * last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * and the exit code is non-zero when any check failed.
 *
 * --txns-per-core shrinks the workload (self-test sizes); a histogram
 * under the 1,000-sample floor then still yields p50/p99 from the
 * fullest histogram. --inject-fault makes every consistency check
 * fail, so the self-test can see the failure path.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "drivers.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "spans.hh"
#include "workloads.hh"

// --- allocation counter ------------------------------------------------

namespace
{
// The benchmark is single-threaded (sequential kernel only).
std::uint64_t g_allocs = 0;
// Self-test hook: report every consistency check as failed.
bool g_injectFault = false;
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

namespace
{

using namespace atomsim;
using perfbench::BenchWorkload;
using perfbench::SpanLog;
using perfbench::SpanScope;

using Clock = std::chrono::steady_clock;

/** A latency histogram must hold this many samples to be reported. */
constexpr std::uint64_t kMinLatencySamples = 1000;
/**
 * Distinct simulated instances per untraced run. Their seeds derive
 * from --seed; the simulated figures aggregate over all of them, which
 * evens out the seed-to-seed swings of a contended run (TPC-C's
 * allocations per transaction vary by ~10% between seeds).
 */
constexpr std::size_t kInstances = 8;
/** Traced runs drive Runner::advanceTo in about this many slices. */
constexpr Tick kTraceSlices = 64;
/** Untraced/traced instance pairs of a traced run. */
constexpr std::uint32_t kTracePairs = 3;

/** Seed of instance @p i of a run with seed @p seed. */
std::uint64_t
instanceSeed(std::uint64_t seed, std::size_t i)
{
    return seed * kInstances + i;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a over 64-bit words and strings (the stat-dump hash). */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }

    void
    mix(const std::string &s)
    {
        for (unsigned char c : s) {
            hash ^= c;
            hash *= 1099511628211ull;
        }
        mix(std::uint64_t(s.size()));
    }

    std::uint64_t hash = 14695981039346656037ull;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Everything one simulated instance yields. */
struct RunSample
{
    double setupS = 0;       //!< workload + Runner/System + setUp
    double runS = 0;         //!< Runner::run (or its traced slices)
    std::uint64_t allocs = 0;  //!< operator new calls during the run
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;  //!< sum of latency-histogram counts
    std::uint64_t committed = 0;  //!< durable commits (RunResult::txns)
    std::uint64_t classCounts[Runner::kTxnClasses] = {};
    Tick cycles = 0;
    double clockHz = 0;
    Tick p50 = 0;
    Tick p99 = 0;
    bool latencyFloorMet = false;
    std::uint64_t eventsRun = 0;
    std::uint64_t statsHash = 0;
    std::uint64_t meshHash = 0;
    std::string fault;       //!< empty when every check passed
    std::vector<Metric> layer;  //!< per-layer counts (when requested)
};

bool
allCoresDone(System &sys)
{
    for (CoreId c = 0; c < sys.numCores(); ++c)
        if (!sys.core(c).done())
            return false;
    return true;
}

/** Per-layer counts, read from the public StatSet after a run. */
std::vector<Metric>
layerCounts(Runner &runner, const RunSample &s)
{
    System &sys = runner.system();
    const StatSet &st = std::as_const(sys).stats();
    const SystemConfig &cfg = sys.config();
    auto sum = [&st](const char *group, const char *name) {
        return double(st.sum(group, name));
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double txns = double(s.completed);
    auto per = [&](double v) { return ratio(v, txns); };

    double busy = 0;
    for (McId m = 0; m < cfg.numMemCtrls; ++m)
        busy += double(sys.memCtrl(m).channelBusyCycles());
    const double channel_cycles =
        double(cfg.numMemCtrls) * cfg.channelsPerMc * double(s.cycles);

    const double messages = sum("mesh", "messages");
    const double pages = sum("mc", "destage_pages");
    const double entries = sum("logm", "entries");
    return {
        {"sim.events_per_txn", per(double(s.eventsRun)), "count/txn"},
        {"sim.spill_ratio", sys.eventQueue().spillRatio(), "ratio"},
        {"net.messages_per_txn", per(messages), "count/txn"},
        {"net.flit_hops_per_message",
         ratio(sum("mesh", "flit_hops"), messages), "count/msg"},
        {"net.link_stall_cycles", sum("mesh", "link_stall_cycles"),
         "cycles"},
        {"cache.l1_miss_ratio",
         ratio(sum("l1c", "load_misses") + sum("l1c", "store_misses"),
               sum("l1c", "loads") + sum("l1c", "stores")),
         "ratio"},
        {"cache.l2_miss_ratio",
         ratio(sum("l2t", "misses"),
               sum("l2t", "hits") + sum("l2t", "misses")),
         "ratio"},
        {"cache.l2_recalls", sum("l2t", "recalls"), "count"},
        {"cache.l1_writebacks", sum("l1c", "writebacks"), "count"},
        {"cache.dir_ctrl_evictions", sum("dir", "ctrl_evictions"),
         "count"},
        {"cpu.sq_full_cycles_per_txn", per(sum("core", "sq_full_cycles")),
         "cycles/txn"},
        {"cpu.load_stall_cycles_per_txn",
         per(sum("core", "load_stall_cycles")), "cycles/txn"},
        {"mem.nvm_log_writes_per_txn", per(sum("mc", "log_writes")),
         "count/txn"},
        {"mem.nvm_data_writes_per_txn", per(sum("mc", "data_writes")),
         "count/txn"},
        {"mem.nvm_demand_reads_per_txn", per(sum("mc", "demand_reads")),
         "count/txn"},
        {"mem.gate_blocks_per_txn", per(sum("mc", "gate_blocks")),
         "count/txn"},
        {"mem.channel_busy_ratio", ratio(busy, channel_cycles), "ratio"},
        {"mem.dram_hit_ratio",
         ratio(sum("mc", "dram_hits"),
               sum("mc", "dram_hits") + sum("mc", "dram_misses")),
         "ratio"},
        {"mem.dram_wb_evictions", sum("mc", "wb_evictions"), "count"},
        {"mem.destage_pages_per_txn", per(pages), "count/txn"},
        {"mem.destage_promotions_per_txn",
         per(sum("mc", "destage_promotions")), "count/txn"},
        {"mem.destage_useful_ratio",
         ratio(pages, pages + sum("mc", "destage_cancelled")), "ratio"},
        {"mem.destage_trunc_waits", sum("mc", "destage_trunc_waits"),
         "count"},
        {"mem.destage_log_pages", sum("mc", "destage_log_pages"), "count"},
        {"mem.ssd_sq_stalls", sum("ssd", "sq_stalls"), "count"},
        {"atom.log_entries_per_txn", per(entries), "count/txn"},
        {"atom.source_logged_ratio",
         ratio(sum("logm", "source_logged"), entries), "ratio"},
        {"atom.forced_seals_per_txn", per(sum("logm", "forced_seals")),
         "count/txn"},
        {"atom.aus_stall_cycles", sum("aus", "structural_stall_cycles"),
         "cycles"},
        {"atom.truncations_per_txn", per(sum("logm", "truncations")),
         "count/txn"},
        {"atom.log_overflows", sum("logm", "log_overflows"), "count"},
        {"designs.commit_flushes_per_txn",
         per(sum("design", "commit_flushes")), "count/txn"},
        {"designs.staged_ack_ratio",
         ratio(sum("design", "staged_acks"), sum("design", "commits")),
         "ratio"},
    };
}

/**
 * Build, set up, run and check one instance of @p w. With @p spans the
 * workload is wrapped for tracing and the run advances in slices of
 * @p slice ticks, each a `harness.run` span.
 */
RunSample
runInstance(const BenchWorkload &w, std::uint64_t seed,
            std::uint32_t txns_per_core, SpanLog *spans, Tick slice,
            bool want_layers)
{
    RunSample s;
    const SystemConfig cfg = w.config(seed, false);
    s.attempted = std::uint64_t(cfg.numCores) * txns_per_core;

    const auto t0 = Clock::now();
    std::unique_ptr<Workload> inner = w.make(seed, txns_per_core);
    std::unique_ptr<perfbench::TracedWorkload> traced;
    Workload *workload = inner.get();
    if (spans) {
        traced = std::make_unique<perfbench::TracedWorkload>(*inner, *spans);
        workload = traced.get();
    }
    std::unique_ptr<Runner> runner;
    {
        SpanScope span(spans, "harness.build");
        runner = std::make_unique<Runner>(cfg, *workload, txns_per_core,
                                          w.dataBytes);
    }
    bench::StreamHashTracer mesh_hash;
    runner->system().mesh().setTracer(&mesh_hash);
    {
        SpanScope span(spans, "harness.setup");
        runner->setUp();
    }
    s.setupS = secondsSince(t0);

    EventQueue &eq = runner->system().eventQueue();
    const std::uint64_t events0 = eq.executed();
    const std::uint64_t allocs0 = g_allocs;
    const auto t1 = Clock::now();
    RunResult r;
    if (!spans) {
        r = runner->run();
    } else {
        const Tick start = eq.now();
        while (!allCoresDone(runner->system())) {
            if (eq.empty()) {
                s.fault = "simulation stalled before every core finished";
                break;
            }
            SpanScope span(spans, "harness.run");
            runner->advanceTo(eq.now() + slice);
        }
        r = runner->collect(start, eq.now());
    }
    s.runS = secondsSince(t1);
    s.allocs = g_allocs - allocs0;
    s.eventsRun = eq.executed() - events0;
    runner->system().mesh().setTracer(nullptr);

    {
        SpanScope span(spans, "workloads.check");
        DirectAccessor arch(runner->system().archMem());
        const std::string fault =
            inner->checkConsistency(arch, cfg.numCores);
        if (!fault.empty())
            s.fault = "consistency: " + fault;
        else if (g_injectFault)
            s.fault = "consistency: injected fault";
    }

    // Completed transactions and latency, from the Runner's histograms.
    std::uint64_t best_count = 0;
    const LatencyHistogram *fallback = nullptr;
    for (std::uint32_t t = 0; t < cfg.tenantSlots(); ++t) {
        for (std::uint32_t c = 0; c < Runner::kTxnClasses; ++c) {
            const LatencyHistogram &h = runner->latency(t, c);
            const std::uint64_t n = h.count();
            s.completed += n;
            s.classCounts[c] += n;
            if (n > best_count) {
                best_count = n;
                fallback = &h;
            }
            if (n >= kMinLatencySamples) {
                // The worst (tenant, class) histogram at each quantile.
                s.latencyFloorMet = true;
                s.p50 = std::max(s.p50, h.percentile(0.50));
                s.p99 = std::max(s.p99, h.percentile(0.99));
            }
        }
    }
    if (!s.latencyFloorMet && fallback) {
        // Reduced sizes (self-test): fall back to the fullest histogram.
        s.p50 = fallback->percentile(0.50);
        s.p99 = fallback->percentile(0.99);
    }
    s.committed = r.txns;
    s.cycles = r.cycles;
    s.clockHz = cfg.clockHz;

    Fnv stats_hash;
    for (const auto &[name, value] :
         std::as_const(runner->system()).stats().dump()) {
        stats_hash.mix(name);
        stats_hash.mix(value);
    }
    s.statsHash = stats_hash.hash;
    s.meshHash = mesh_hash.hash;
    if (want_layers)
        s.layer = layerCounts(*runner, s);
    return s;
}

struct CrashOutcome
{
    RecoveryReport report;
    std::string fault;
};

/** Crash a fresh instance at mid-run, recover it, check the image. */
CrashOutcome
runCrash(const BenchWorkload &w, std::uint64_t seed,
         std::uint32_t txns_per_core, SpanLog *spans)
{
    CrashOutcome out;
    const SystemConfig cfg = w.config(seed, true);
    std::unique_ptr<Workload> workload = w.make(seed, txns_per_core);
    Runner runner(cfg, *workload, txns_per_core, w.dataBytes);
    runner.setUp();
    runner.runUntilCrash(0.5, seed);
    {
        SpanScope span(spans, "atom.recover");
        out.report = runner.system().recover();
    }
    SpanScope span(spans, "workloads.check");
    DirectAccessor durable(runner.system().nvmImage());
    out.fault = workload->checkConsistency(durable, cfg.numCores);
    if (out.fault.empty() && !out.report.criticalStateFound)
        out.fault = "ADR critical state missing";
    if (!out.fault.empty())
        out.fault = "crash recovery: " + out.fault;
    return out;
}

/** True when every simulated figure of @p b equals that of @p a. */
bool
sameSimulation(const RunSample &a, const RunSample &b)
{
    return a.statsHash == b.statsHash && a.meshHash == b.meshHash &&
           a.completed == b.completed && a.cycles == b.cycles &&
           a.p50 == b.p50 && a.p99 == b.p99 && a.eventsRun == b.eventsRun;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::uint32_t txnsPerCore = 0;  //!< 0 = the workload's size
    std::string spansOut;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "atombench: %s needs a value\n", a.c_str());
            return false;
        }
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--txns-per-core")
            o.txnsPerCore = std::uint32_t(std::strtoul(v, nullptr, 10));
        else if (a == "--spans-out")
            o.spansOut = v;
        else if (a == "--inject-fault")
            g_injectFault = std::strcmp(v, "0") != 0;
        else {
            std::fprintf(stderr, "atombench: unknown option %s\n",
                         a.c_str());
            return false;
        }
    }
    return true;
}

void
printDetail(const Options &o, const BenchWorkload &w,
            std::uint32_t txns_per_core, std::size_t reps,
            const std::vector<RunSample> &instances)
{
    // One fingerprint per run: the instances' hashes, in seed order.
    Fnv stats_hash;
    Fnv mesh_hash;
    std::uint64_t completed = 0;
    std::uint64_t committed = 0;
    std::uint64_t classes[Runner::kTxnClasses] = {};
    bool floor_met = true;
    for (const RunSample &s : instances) {
        stats_hash.mix(s.statsHash);
        mesh_hash.mix(s.meshHash);
        completed += s.completed;
        committed += s.committed;
        for (std::uint32_t c = 0; c < Runner::kTxnClasses; ++c)
            classes[c] += s.classCounts[c];
        floor_met = floor_met && s.latencyFloorMet;
    }
    std::printf("fingerprint %s seed %" PRIu64 ": stats %016" PRIx64
                " mesh %016" PRIx64 "\n",
                w.name, o.seed, stats_hash.hash, mesh_hash.hash);
    JsonWriter j;
    j.beginObject();
    j.kv("workload", w.name);
    j.kv("seed", o.seed);
    j.kv("trace", o.trace);
    j.kv("instances", std::uint64_t(instances.size()));
    j.kv("reps", std::uint64_t(reps));
    j.kv("txns_per_core", txns_per_core);
    j.kv("completed", completed);
    j.kv("committed", committed);
    j.key("class_counts");
    j.beginArray();
    for (std::uint64_t n : classes)
        j.value(n);
    j.endArray();
    j.kv("latency_floor_met", floor_met);
    j.kv("stats_hash", stats_hash.hash);
    j.kv("mesh_hash", mesh_hash.hash);
    j.endObject();
    std::printf("detail %s\n", j.str().c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    JsonWriter j;
    j.beginObject();
    j.kv("correct", correct);
    j.kv("attempted", attempted);
    j.kv("failed", failed);
    j.key("metrics");
    j.beginObject();
    for (const Metric &m : metrics) {
        j.key(m.name);
        j.beginObject();
        j.kv("value", m.value);
        j.kv("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
}

/** Fault bookkeeping shared by both modes. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** A check that spans the whole run failed: every txn fails. */
    bool runFailed = false;
    std::vector<std::string> faults;

    void
    add(const RunSample &s)
    {
        attempted += s.attempted;
        if (!s.fault.empty()) {
            failed += s.attempted;
            faults.push_back(s.fault);
        } else {
            failed += s.attempted - s.completed;
        }
    }

    void
    failRun(const std::string &fault)
    {
        runFailed = true;
        faults.push_back(fault);
    }

    std::uint64_t
    totalFailed() const
    {
        return runFailed ? attempted : failed;
    }

    bool
    report() const
    {
        for (const std::string &f : faults)
            std::fprintf(stderr, "atombench: FAILED: %s\n", f.c_str());
        return faults.empty() && failed == 0;
    }
};

int
runEndToEnd(const Options &o, const BenchWorkload &w,
            std::uint32_t txns_per_core)
{
    // The first kInstances repetitions each simulate a distinct
    // instance seed; later ones cycle through them again until the time
    // is up, and must reproduce the first simulation exactly.
    Verdict v;
    std::vector<RunSample> reps;
    const auto start = Clock::now();
    while (reps.size() < kInstances || secondsSince(start) < o.seconds) {
        const std::size_t i = reps.size() % kInstances;
        reps.push_back(runInstance(w, instanceSeed(o.seed, i),
                                   txns_per_core, nullptr, 0, false));
        const RunSample &s = reps.back();
        std::fprintf(stderr,
                     "rep %zu (instance %zu): setup %.4f s, run %.4f s, "
                     "%" PRIu64 " txns, %" PRIu64 " allocs\n",
                     reps.size(), i, s.setupS, s.runS, s.completed,
                     s.allocs);
        v.add(s);
        if (reps.size() > kInstances && !sameSimulation(reps[i], s))
            v.failRun("repetitions of one instance simulated differently");
    }

    std::vector<double> setup;
    std::vector<double> host_us;
    for (const RunSample &s : reps) {
        setup.push_back(s.setupS);
        host_us.push_back(s.runS * 1e6 /
                          double(std::max<std::uint64_t>(s.completed, 1)));
    }
    // Simulated figures: all distinct instances together.
    const std::vector<RunSample> instances(reps.begin(),
                                           reps.begin() + kInstances);
    double completed = 0;
    double allocs = 0;
    double sim_seconds = 0;
    double p50 = 0;
    double p99 = 0;
    for (const RunSample &s : instances) {
        completed += double(s.completed);
        allocs += double(s.allocs);
        sim_seconds += double(s.cycles) / s.clockHz;
        p50 += double(s.p50) / kInstances;
        p99 += double(s.p99) / kInstances;
    }
    printDetail(o, w, txns_per_core, reps.size(), instances);
    const bool ok = v.report();
    printResult(ok, v.attempted, v.totalFailed(),
                {
                    {"host_us_per_txn", median(host_us), "us"},
                    {"setup_s", median(setup), "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                    {"allocs_per_txn", allocs / std::max(completed, 1.0),
                     "count"},
                    {"sim_txn_per_s",
                     sim_seconds > 0 ? completed / sim_seconds : 0.0,
                     "txn/s"},
                    {"sim_txn_p50_cycles", p50, "cycles"},
                    {"sim_txn_p99_cycles", p99, "cycles"},
                });
    return ok ? 0 : 1;
}

int
runTraced(const Options &o, const BenchWorkload &w,
          std::uint32_t txns_per_core)
{
    Verdict v;
    const std::uint64_t seed = instanceSeed(o.seed, 0);
    SpanLog spans;
    // Untraced and traced instances alternate, so that host speed
    // drifts cancel out of the tracing-overhead ratio.
    double untraced_s = 0;
    double traced_s = 0;
    std::uint64_t untraced_events = 0;
    std::uint64_t traced_txns = 0;
    RunSample first;
    for (std::uint32_t pair = 0; pair < kTracePairs; ++pair) {
        const RunSample base =
            runInstance(w, seed, txns_per_core, nullptr, 0, false);
        v.add(base);
        spans.setTrace(pair);
        const Tick slice = std::max<Tick>(1, base.cycles / kTraceSlices);
        RunSample s = runInstance(w, seed, txns_per_core, &spans, slice,
                                  pair == 0);
        v.add(s);
        if (!sameSimulation(base, s))
            v.failRun("the traced run simulated differently from the "
                      "untraced run");
        untraced_s += base.runS;
        untraced_events += base.eventsRun;
        traced_s += s.runS;
        traced_txns += s.completed;
        if (pair == 0)
            first = std::move(s);
    }

    spans.setTrace(kTracePairs);
    const CrashOutcome crash = runCrash(w, seed, txns_per_core, &spans);
    if (!crash.fault.empty())
        v.failRun(crash.fault);

    const std::vector<perfbench::DriverResult> drivers =
        perfbench::runLayerDrivers(seed);

    // Span sums over the traced instances, per transaction or instance.
    const double txns = double(std::max<std::uint64_t>(traced_txns, 1));
    std::vector<Metric> metrics = first.layer;
    metrics.push_back(
        {"sim.host_ns_per_event",
         untraced_s * 1e9 /
             double(std::max<std::uint64_t>(untraced_events, 1)),
         "ns"});
    metrics.push_back({"atom.recover_ms",
                       spans.totalSeconds("atom.recover") * 1e3, "ms"});
    metrics.push_back({"atom.records_applied",
                       double(crash.report.recordsApplied), "count"});
    metrics.push_back({"atom.pages_rehydrated",
                       double(crash.report.pagesRehydrated), "count"});
    metrics.push_back(
        {"workloads.gen_us_per_txn",
         spans.totalSeconds("workloads.runTransaction") * 1e6 / txns, "us"});
    metrics.push_back({"workloads.init_s",
                       spans.totalSeconds("workloads.init") / kTracePairs,
                       "s"});
    metrics.push_back({"harness.build_s",
                       spans.totalSeconds("harness.build") / kTracePairs,
                       "s"});
    metrics.push_back({"harness.run_self_us_per_txn",
                       spans.selfSeconds("harness.run") * 1e6 / txns, "us"});
    metrics.push_back({"harness.trace_overhead_ratio",
                       traced_s / std::max(untraced_s, 1e-9) - 1.0,
                       "ratio"});
    for (const perfbench::DriverResult &d : drivers)
        metrics.push_back({d.metric, d.nsPerCall, "ns"});

    if (!o.spansOut.empty() && !spans.writeChromeTrace(o.spansOut))
        std::fprintf(stderr, "atombench: cannot write %s\n",
                     o.spansOut.c_str());

    printDetail(o, w, txns_per_core, 2 * kTracePairs, {first});
    const bool ok = v.report();
    printResult(ok, v.attempted, v.totalFailed(), metrics);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o))
        return 2;
    const BenchWorkload *w = perfbench::findWorkload(o.workload);
    if (!w) {
        std::fprintf(stderr, "atombench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    const std::uint32_t txns_per_core =
        o.txnsPerCore ? o.txnsPerCore : w->txnsPerCore;
    return o.trace ? runTraced(o, *w, txns_per_core)
                   : runEndToEnd(o, *w, txns_per_core);
}
