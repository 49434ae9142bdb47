/**
 * @file
 * The paper's figures and tables, regenerated and gated in one run:
 *
 *   Figure 5   txn throughput of ATOM / ATOM-OPT / NON-ATOMIC over
 *              BASE, six micro-benchmarks, small (a) and large (b)
 *              datasets
 *   Figure 6   store-queue-full cycles over BASE (small datasets)
 *   Figure 7   REDO vs ATOM-OPT, one channel and a dedicated log
 *              channel (-2C)
 *   Figure 8   rbtree ATOM-OPT vs REDO while NVM latency sweeps
 *              1x..40x DRAM latency
 *   Table III  % of source-logged lines under ATOM-OPT
 *   Table IV   TPC-C new-order throughput over BASE
 *   Ablations  log entry collation (Section IV-C); structural and log
 *              overflow (Section IV-E)
 *
 * Each section prints the paper-style table (normalized the way the
 * paper normalizes), the paper's reference points, and one `gate:`
 * line per ordering the simulator reproduces. The gates check
 * orderings between simulated designs, never the paper's numbers; the
 * binary exits non-zero when any gate fails. Table IV and Figure 8's
 * REDO crossover do not reproduce and are printed without a gate.
 *
 * `--stats-json <path>` writes every simulated cell the tables derive
 * from plus each gate's outcome. The run is deterministic (no wall
 * clock), so the file diffs cleanly between commits.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hh"

using namespace atomsim;
using namespace atomsim::bench;

namespace
{

/** The --stats-json document: every simulated cell in run order,
 * then the gates. */
JsonWriter g_json;
/** Every gate's name and outcome, in check order. */
std::vector<std::pair<std::string, bool>> g_gates;

/** Record one simulated run under (figure, row, column). */
void
record(const char *figure, const std::string &row,
       const std::string &column, const RunResult &r,
       const char *extra_key = nullptr, std::uint64_t extra = 0)
{
    g_json.beginObject();
    g_json.kv("figure", figure);
    g_json.kv("row", row);
    g_json.kv("column", column);
    g_json.kv("txns", r.txns);
    g_json.kv("cycles", std::uint64_t(r.cycles));
    g_json.kv("txn_per_s", r.txnPerSec);
    g_json.kv("sq_full_cycles", r.sqFullCycles);
    g_json.kv("log_entries", r.logEntries);
    g_json.kv("source_logged", r.sourceLogged);
    g_json.kv("mem_log_writes", r.memLogWrites);
    if (extra_key)
        g_json.kv(extra_key, extra);
    g_json.endObject();
}

void
gate(const std::string &name, bool ok)
{
    std::printf("gate:   %s: %s\n", name.c_str(), ok ? "ok" : "FAIL");
    g_gates.emplace_back(name, ok);
}

/**
 * runCell on the default Table I machine, memoized: Figures 5 and 6
 * and Table III share their cells, and the simulation is
 * deterministic, so a repeat would only cost time.
 */
const RunResult &
defaultCell(const char *name, DesignKind design, bool large)
{
    static std::map<std::tuple<std::string, DesignKind, bool>, RunResult>
        memo;
    const auto key = std::make_tuple(std::string(name), design, large);
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, runCell(name, design, microParams(large)))
                 .first;
    return it->second;
}

bool
nonIncreasing(const std::vector<double> &v)
{
    return std::is_sorted(v.rbegin(), v.rend());
}

/** Geomean row of @p norm in @p columns order. */
template <typename Key>
std::vector<std::string>
gmeanRow(const std::vector<Key> &columns,
         std::map<Key, std::vector<double>> &norm)
{
    std::vector<std::string> row{"gmean"};
    for (const Key &c : columns)
        row.push_back(ReportTable::num(geomean(norm[c])));
    row.push_back("");
    return row;
}

void
fig5(bool large)
{
    const MicroParams params = microParams(large);
    const std::vector<DesignKind> designs = {
        DesignKind::Base, DesignKind::Atom, DesignKind::AtomOpt,
        DesignKind::NonAtomic};
    const char *fig = large ? "fig5b" : "fig5a";

    std::printf("\n=== Figure 5(%s): normalized txn throughput, %s "
                "datasets (%u-byte entries) ===\n",
                large ? "b" : "a", large ? "large" : "small",
                params.entryBytes);

    ReportTable table({"bench", "BASE", "ATOM", "ATOM-OPT",
                       "NON-ATOMIC", "BASE txn/s"});
    std::map<DesignKind, std::vector<double>> norm;
    for (const char *name : kMicroNames) {
        const double base =
            defaultCell(name, DesignKind::Base, large).txnPerSec;
        std::vector<std::string> row{name};
        for (DesignKind d : designs) {
            const RunResult &r = defaultCell(name, d, large);
            record(fig, name, designName(d), r);
            const double n = r.txnPerSec / base;
            row.push_back(ReportTable::num(n));
            norm[d].push_back(n);
        }
        row.push_back(ReportTable::num(base, 0));
        table.addRow(std::move(row));
    }
    table.addRow(gmeanRow(designs, norm));
    table.print();

    if (large) {
        std::printf("paper:  gmean ATOM=1.24 ATOM-OPT=1.33 "
                    "NON-ATOMIC=1.41 (vs BASE)\n");
    } else {
        std::printf("paper:  gmean ATOM=1.23 ATOM-OPT=1.27 "
                    "NON-ATOMIC=1.38 (vs BASE)\n");
    }

    // Per-bench orderings are not gated: sps sits at parity and
    // ATOM-OPT trails ATOM by a hair on a few benches.
    const double base = geomean(norm[DesignKind::Base]);
    const double atom = geomean(norm[DesignKind::Atom]);
    const double opt = geomean(norm[DesignKind::AtomOpt]);
    const double none = geomean(norm[DesignKind::NonAtomic]);
    gate(std::string(fig) +
             " gmean BASE < ATOM <= ATOM-OPT < NON-ATOMIC",
         base < atom && atom <= opt && opt < none);
}

void
fig6()
{
    const char *benches[] = {"btree", "hash", "queue", "rbtree", "sps"};
    const std::vector<DesignKind> designs = {
        DesignKind::Base, DesignKind::AtomOpt, DesignKind::NonAtomic};

    std::printf("\n=== Figure 6: SQ-full cycles normalized to BASE "
                "(small datasets) ===\n");
    ReportTable table({"bench", "BASE", "ATOM-OPT", "NON-ATOMIC",
                       "BASE cycles"});
    std::map<DesignKind, std::vector<double>> norm;
    bool opt_below_base = true;
    for (const char *name : benches) {
        const std::uint64_t base_cycles =
            defaultCell(name, DesignKind::Base, false).sqFullCycles;
        const double base = double(base_cycles);
        std::vector<std::string> row{name};
        for (DesignKind d : designs) {
            const RunResult &r = defaultCell(name, d, false);
            record("fig6", name, designName(d), r);
            const double n =
                base > 0 ? double(r.sqFullCycles) / base : 0.0;
            row.push_back(ReportTable::num(n));
            norm[d].push_back(n > 0 ? n : 1e-3);
        }
        opt_below_base = opt_below_base &&
            defaultCell(name, DesignKind::AtomOpt, false).sqFullCycles <
                base_cycles;
        row.push_back(ReportTable::num(base, 0));
        table.addRow(std::move(row));
    }
    table.addRow(gmeanRow(designs, norm));
    table.print();
    std::printf("paper:  ATOM-OPT ~0.79 of BASE on average; "
                "queue 0.57, rbtree 0.65, sps 0.99\n");
    gate("fig6 ATOM-OPT SQ-full cycles < BASE on every bench",
         opt_below_base);
}

void
fig7()
{
    const MicroParams params = microParams(false);
    const char *benches[] = {"btree", "hash", "queue", "rbtree", "sps"};

    struct Variant
    {
        const char *label;
        DesignKind design;
        std::uint32_t channels;
    };
    const Variant variants[] = {
        {"ATOM-OPT", DesignKind::AtomOpt, 1},
        {"ATOM-OPT-2C", DesignKind::AtomOpt, 2},
        {"REDO", DesignKind::Redo, 1},
        {"REDO-2C", DesignKind::Redo, 2},
    };
    std::vector<std::string> labels;
    for (const Variant &v : variants)
        labels.push_back(v.label);

    std::printf("\n=== Figure 7: throughput normalized to ATOM-OPT "
                "(small datasets) ===\n");
    ReportTable table({"bench", "ATOM-OPT", "ATOM-OPT-2C", "REDO",
                       "REDO-2C", "redo/atom entries"});
    std::map<std::string, std::vector<double>> norm;
    bool redo_below = true;
    bool two_channels_help = true;
    for (const char *name : benches) {
        std::map<std::string, RunResult> res;
        for (const Variant &v : variants) {
            SystemConfig cfg;
            cfg.channelsPerMc = v.channels;
            res[v.label] = runCell(name, v.design, params, cfg);
            record("fig7", name, v.label, res[v.label]);
        }
        const double ref = res["ATOM-OPT"].txnPerSec;
        std::vector<std::string> row{name};
        for (const Variant &v : variants) {
            const double n = res[v.label].txnPerSec / ref;
            row.push_back(ReportTable::num(n));
            norm[v.label].push_back(n);
        }
        const double ratio =
            res["ATOM-OPT"].logEntries
                ? double(res["REDO"].logEntries) /
                      double(res["ATOM-OPT"].logEntries)
                : 0.0;
        row.push_back(ReportTable::num(ratio, 1) + "x");
        table.addRow(std::move(row));

        redo_below = redo_below && res["REDO"].txnPerSec < ref;
        two_channels_help = two_channels_help &&
            res["ATOM-OPT-2C"].txnPerSec >= ref &&
            res["REDO-2C"].txnPerSec >= res["REDO"].txnPerSec;
    }
    table.addRow(gmeanRow(labels, norm));
    table.print();
    std::printf("paper:  REDO ~0.22 of ATOM-OPT (1 channel), ~0.30 "
                "with a dedicated log channel; ~19x log entries\n");
    gate("fig7 REDO < ATOM-OPT on every bench", redo_below);
    gate("fig7 each -2C run >= its 1-channel run", two_channels_help);
}

void
fig8()
{
    const MicroParams params = microParams(false);

    // DRAM-equivalent latencies: the paper's NVM default (360/240) is
    // 10x DRAM write latency, so 1x = 36/24 core cycles.
    const struct
    {
        const char *label;
        Cycles write;
        Cycles read;
    } points[] = {
        {"1x", 36, 24},   {"5x", 180, 120}, {"10x", 360, 240},
        {"20x", 720, 480}, {"40x", 1440, 960},
    };

    std::printf("\n=== Figure 8: rbtree throughput vs NVM latency "
                "(txn/s) ===\n");
    ReportTable table({"latency", "ATOM-OPT", "REDO", "REDO/ATOM-OPT"});
    std::vector<double> opt_tput;
    for (const auto &pt : points) {
        SystemConfig cfg;
        cfg.nvmWriteLatency = pt.write;
        cfg.nvmReadLatency = pt.read;
        const RunResult opt =
            runCell("rbtree", DesignKind::AtomOpt, params, cfg);
        const RunResult redo =
            runCell("rbtree", DesignKind::Redo, params, cfg);
        record("fig8", pt.label, "ATOM-OPT", opt);
        record("fig8", pt.label, "REDO", redo);
        table.addRow({pt.label, ReportTable::num(opt.txnPerSec, 0),
                      ReportTable::num(redo.txnPerSec, 0),
                      ReportTable::num(redo.txnPerSec / opt.txnPerSec)});
        opt_tput.push_back(opt.txnPerSec);
    }
    table.print();
    std::printf("paper:  REDO above ATOM-OPT at 1x, crossing below as "
                "latency grows; ATOM-OPT degrades ~linearly\n");
    gate("fig8 ATOM-OPT txn/s does not increase with NVM latency",
         nonIncreasing(opt_tput));
}

void
table3()
{
    std::printf("\n=== Table III: %% of source-logged lines "
                "(ATOM-OPT) ===\n");
    ReportTable table({"bench", "small %", "large %", "small entries",
                       "large entries"});
    bool large_not_below = true;
    for (const char *name : kMicroNames) {
        double pct[2];
        std::uint64_t entries[2];
        for (int large = 0; large < 2; ++large) {
            const RunResult &r =
                defaultCell(name, DesignKind::AtomOpt, large != 0);
            record("table3", name, large ? "large" : "small", r);
            entries[large] = r.logEntries;
            pct[large] = r.logEntries
                             ? 100.0 * double(r.sourceLogged) /
                                   double(r.logEntries)
                             : 0.0;
        }
        table.addRow({name, ReportTable::num(pct[0]),
                      ReportTable::num(pct[1]),
                      std::to_string(entries[0]),
                      std::to_string(entries[1])});
        large_not_below = large_not_below && pct[1] >= pct[0];
    }
    table.print();
    std::printf("paper (small): btree 0.12, hash 0.12, queue 0.07, "
                "rbtree 0.01, sdg 0.04, sps 0.01\n");
    std::printf("paper (large): btree 0.4, hash 0.4, queue 0.7, "
                "rbtree 0.4, sdg 0.07, sps 0.01\n");
    std::printf("expectation: the large-dataset fraction exceeds the "
                "small one (more store misses reach memory)\n");
    gate("table3 large-dataset source-logged % >= small-dataset % on "
         "every bench",
         large_not_below);
}

RunResult
runTpcc(DesignKind design)
{
    SystemConfig cfg;
    cfg.design = design;
    // Simulation-scale run: 8 terminals (vs the paper's 32) and
    // reduced table cardinalities keep each design's simulation in
    // the minutes range; the design comparison is unaffected (all
    // designs share the workload).
    cfg.numCores = 8;
    cfg.l2Tiles = 8;
    cfg.meshRows = 2;
    cfg.ausPerMc = 8;
    // TPC-C new-order writes ~10x more lines per update than the
    // micro-benchmarks, and BASE burns a whole record per entry: the
    // OS log reservation must scale with demand (Section IV-E).
    cfg.bucketsPerMc = 2048;
    tpcc::ScaleParams scale;  // SF=1: 1 warehouse, 10 districts
    scale.customersPerDistrict = 32;
    scale.items = 256;
    TpccWorkload workload(scale);
    Runner runner(cfg, workload, /*txns_per_core=*/5);
    runner.setUp();
    return runner.run(Tick(400000) * 1000 * 1000);
}

/** Table IV does not reproduce (all four designs run at parity), so
 * it prints without a gate. */
void
table4()
{
    std::printf("\n=== Table IV: TPC-C new-order throughput "
                "normalized to BASE ===\n");
    const DesignKind designs[] = {DesignKind::Base, DesignKind::Atom,
                                  DesignKind::AtomOpt, DesignKind::Redo};
    std::map<DesignKind, RunResult> res;
    for (DesignKind d : designs) {
        res[d] = runTpcc(d);
        record("table4", "tpcc", designName(d), res[d]);
        std::printf("  ran %s: %.0f txn/s\n", designName(d),
                    res[d].txnPerSec);
        std::fflush(stdout);
    }

    const double base = res[DesignKind::Base].txnPerSec;
    ReportTable table({"design", "normalized", "txn/s", "sq_full vs BASE",
                       "% source logged"});
    for (DesignKind d : designs) {
        const RunResult &r = res[d];
        const double sq_rel =
            res[DesignKind::Base].sqFullCycles
                ? double(r.sqFullCycles) /
                      double(res[DesignKind::Base].sqFullCycles)
                : 0.0;
        const double src_pct =
            r.logEntries
                ? 100.0 * double(r.sourceLogged) / double(r.logEntries)
                : 0.0;
        table.addRow({designName(d),
                      ReportTable::num(r.txnPerSec / base),
                      ReportTable::num(r.txnPerSec, 0),
                      ReportTable::num(sq_rel),
                      ReportTable::num(src_pct, 3)});
    }
    table.print();
    std::printf("paper:  ATOM 1.58, ATOM-OPT 1.60, REDO 1.47 (vs "
                "BASE); ATOM-OPT SQ-full 0.58 of BASE; 0.02%% source "
                "logged\n");
}

/**
 * Without LEC, every log entry costs 2 NVM write requests (data line
 * + per-entry metadata line); with LEC, 7 entries share one header:
 * 8 writes per 7 entries. Measured on the ATOM (posted) design.
 */
void
ablationLec()
{
    const MicroParams params = microParams(false);

    std::printf("\n=== Ablation: log entry collation (ATOM design) "
                "===\n");
    ReportTable table({"bench", "log writes (LEC)", "log writes (no LEC)",
                       "reduction", "speedup from LEC"});
    bool lec_cuts = true;
    for (const char *name : {"hash", "queue", "rbtree", "btree"}) {
        SystemConfig on;
        on.enableLec = true;
        SystemConfig off;
        off.enableLec = false;
        const RunResult with_lec =
            runCell(name, DesignKind::Atom, params, on);
        const RunResult without =
            runCell(name, DesignKind::Atom, params, off);
        record("ablation_lec", name, "LEC", with_lec);
        record("ablation_lec", name, "no LEC", without);
        const double reduction =
            without.memLogWrites
                ? 100.0 * (1.0 - double(with_lec.memLogWrites) /
                                     double(without.memLogWrites))
                : 0.0;
        table.addRow({name, std::to_string(with_lec.memLogWrites),
                      std::to_string(without.memLogWrites),
                      ReportTable::num(reduction, 1) + "%",
                      ReportTable::num(with_lec.txnPerSec /
                                       without.txnPerSec)});
        lec_cuts = lec_cuts && with_lec.memLogWrites < without.memLogWrites;
    }
    table.print();
    std::printf("paper:  LEC turns 2 writes/entry into 8 writes/7 "
                "entries = 42.9%% fewer writes at full records (57%% "
                "fewer vs 2/entry)\n");
    gate("ablation_lec LEC cuts NVM log writes on every bench", lec_cuts);
}

/**
 * Structural overflow: fewer AUS than cores makes Atomic_Begin stall
 * until a slot frees (no deadlock, bounded throughput loss). Log
 * overflow: a small initial OS log reservation triggers overflow
 * interrupts that map more pages; forward progress is preserved at an
 * interrupt-latency cost.
 */
void
ablationOverflow()
{
    MicroParams params = microParams(false);
    params.txnsPerCore = 12;
    const std::uint64_t expected_txns =
        std::uint64_t(SystemConfig{}.numCores) * params.txnsPerCore;
    bool all_complete = true;

    std::printf("\n=== Ablation: structural overflow (AUS count) ===\n");
    {
        ReportTable table({"AUS slots", "txn/s", "normalized",
                           "stall cycles"});
        double ref = 0.0;
        std::vector<double> tput;
        for (std::uint32_t aus : {32u, 16u, 8u, 4u}) {
            SystemConfig cfg;
            cfg.ausPerMc = aus;
            auto workload = makeMicro("hash", params);
            Runner runner(cfg, *workload, params.txnsPerCore);
            runner.setUp();
            const RunResult r = runner.run(Tick(200000) * 1000 * 1000);
            const std::uint64_t stalls =
                runner.system().ausPool()->structuralStallCycles();
            record("ablation_overflow", "hash", std::to_string(aus), r,
                   "aus_stall_cycles", stalls);
            if (ref == 0.0)
                ref = r.txnPerSec;
            table.addRow({std::to_string(aus),
                          ReportTable::num(r.txnPerSec, 0),
                          ReportTable::num(r.txnPerSec / ref),
                          std::to_string(stalls)});
            tput.push_back(r.txnPerSec);
            all_complete = all_complete && r.txns == expected_txns;
        }
        table.print();
        std::printf("expectation: throughput degrades gracefully as "
                    "updates serialize on AUS slots; no deadlock\n");
        gate("ablation_overflow throughput does not increase as AUS "
             "slots shrink",
             nonIncreasing(tput));
    }

    std::printf("\n=== Ablation: log overflow (initial OS buckets) "
                "===\n");
    {
        ReportTable table({"initial buckets/MC", "txn/s", "normalized",
                           "OS interrupts"});
        double ref = 0.0;
        for (std::uint32_t initial : {0u, 16u, 4u, 2u}) {
            SystemConfig cfg;
            cfg.osInitialBucketsPerMc = initial;
            auto workload = makeMicro("queue", params);
            Runner runner(cfg, *workload, params.txnsPerCore);
            runner.setUp();
            const RunResult r = runner.run(Tick(200000) * 1000 * 1000);
            const std::uint64_t interrupts =
                runner.system().logSpace().overflowInterrupts();
            record("ablation_overflow", "queue",
                   "buckets " + std::to_string(initial), r,
                   "os_interrupts", interrupts);
            if (ref == 0.0)
                ref = r.txnPerSec;
            table.addRow({initial == 0 ? "all (256)"
                                       : std::to_string(initial),
                          ReportTable::num(r.txnPerSec, 0),
                          ReportTable::num(r.txnPerSec / ref),
                          std::to_string(interrupts)});
            all_complete = all_complete && r.txns == expected_txns;
        }
        table.print();
        std::printf("expectation: overflow interrupts appear as the "
                    "reservation shrinks; all runs complete\n");
    }
    gate("ablation_overflow every run completes", all_complete);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::string json_path = statsJsonPathFromArgs(argc, argv);

    g_json.beginObject();
    g_json.kv("bench", "paper_figures");
    g_json.key("cells");
    g_json.beginArray();
    fig5(false);
    fig5(true);
    fig6();
    fig7();
    fig8();
    table3();
    table4();
    ablationLec();
    ablationOverflow();
    g_json.endArray();

    std::size_t failed = 0;
    g_json.key("gates");
    g_json.beginObject();
    for (const auto &g : g_gates) {
        g_json.kv(g.first, g.second);
        failed += g.second ? 0 : 1;
    }
    g_json.endObject();
    g_json.endObject();
    std::printf("\npaper-figure gates: %zu/%zu ok\n",
                g_gates.size() - failed, g_gates.size());

    if (!json_path.empty()) {
        if (!g_json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }
    return failed ? 1 : 0;
}
