/**
 * @file
 * Golden-trace regression tests.
 *
 * Runs fixed workloads -- a quickstart-sized hash micro-benchmark, a
 * tpcc-sized OLTP run, the hash run through each hybrid-memory mode
 * and the flash tier, and 1024-tile multi-tenant serving -- with a
 * tracer attached to the mesh, and
 * hashes every packet delivery as a (tick, node, message-kind) triple
 * (golden_support.hh owns the hash and the workload configs; the
 * checked-in values live in the generated tests/goldens.inc). The hash
 * pins the simulation down tick-for-tick: any kernel, NoC or protocol
 * refactor that perturbs event timing or ordering -- even two
 * same-tick deliveries swapping places -- changes it.
 *
 * If a change *intentionally* alters timing (a new latency model, a
 * protocol change), regenerate instead of hand-editing: run this
 * binary with `--dump-goldens`, which rewrites tests/goldens.inc, and
 * commit the regenerated file together with the timing change -- with
 * a commit message explaining why the timing moved.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "golden_support.hh"

namespace atomsim
{
namespace
{

using golden::GoldenRun;
using golden::runGoldenQuickstart;
using golden::runGoldenTpcc;

TEST(GoldenTraceTest, QuickstartSizedRunIsTickForTickStable)
{
    const GoldenRun r = runGoldenQuickstart();
    EXPECT_EQ(r.txns, 8u * 6u);
    EXPECT_EQ(r.deliveries, golden::kGoldenQuickstartDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenQuickstartHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

TEST(GoldenTraceTest, TpccSizedRunIsTickForTickStable)
{
    const GoldenRun r = runGoldenTpcc();
    EXPECT_EQ(r.txns, 4u * 4u);
    EXPECT_EQ(r.deliveries, golden::kGoldenTpccDeliveries)
        << "actual deliveries: " << r.deliveries
        << " (rerun with --dump-goldens for intentional changes)";
    EXPECT_EQ(r.hash, golden::kGoldenTpccHash)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

/** Sum of every stat whose name contains @p key. */
std::uint64_t
statSum(const GoldenRun &r, const char *key)
{
    std::uint64_t sum = 0;
    for (const auto &s : r.stats) {
        if (s.first.find(key) != std::string::npos)
            sum += s.second;
    }
    return sum;
}

void
expectHash(const GoldenRun &r, std::uint64_t golden)
{
    EXPECT_EQ(r.hash, golden)
        << "actual hash: 0x" << std::hex << r.hash
        << " (rerun with --dump-goldens for intentional changes)";
}

TEST(GoldenTraceTest, MemoryModeRunIsTickForTickStable)
{
    const GoldenRun r = golden::runGoldenHybrid(
        HybridMode::MemoryMode, AppDirectRegion::LogRegion);
    EXPECT_EQ(r.txns, 8u * 6u);
    expectHash(r, golden::kGoldenMemoryModeHash);
    // The DRAM tier must see real traffic or the pin is vacuous.
    EXPECT_GT(statSum(r, "dram_hits"), 0u);
}

// ATOM-OPT writes its log through and never reads it back here, so
// app-direct with the log region bypassing the cache delivers the same
// stream as memory mode; the pin still guards the bypass routing.
TEST(GoldenTraceTest, AppDirectRunsAreTickForTickStable)
{
    const GoldenRun log = golden::runGoldenHybrid(
        HybridMode::AppDirect, AppDirectRegion::LogRegion);
    EXPECT_EQ(log.txns, 8u * 6u);
    expectHash(log, golden::kGoldenAppDirectLogHash);
    EXPECT_GT(statSum(log, "dram_hits"), 0u);

    const GoldenRun data = golden::runGoldenHybrid(
        HybridMode::AppDirect, AppDirectRegion::DataRegion);
    EXPECT_EQ(data.txns, 8u * 6u);
    expectHash(data, golden::kGoldenAppDirectDataHash);
}

TEST(GoldenTraceTest, FlashTierRunIsTickForTickStable)
{
    const GoldenRun r = golden::runGoldenFlashTier();
    EXPECT_EQ(r.txns, 8u * 6u);
    expectHash(r, golden::kGoldenFlashTierHash);
    // The tier must destage real pages or the pin is vacuous.
    EXPECT_GT(statSum(r, "destage_pages"), 0u);
}

// The 1024-tile preset doubles as the regression test for structures
// that used to be super-linear in tiles, and its >= 64-core sharer
// masks exercise the SharerSet wide path on every invalidation round.
TEST(GoldenTraceTest, Serving1024RunIsTickForTickStable)
{
    const GoldenRun r = golden::runGoldenServing1024();
    EXPECT_GT(r.txns, 0u);
    expectHash(r, golden::kGoldenServing1024Hash);
    // Multi-tenant accounting ran: all four tenants committed work.
    std::uint32_t tenants_seen = 0;
    for (const auto &s : r.stats) {
        if (s.first.rfind("tenant", 0) == 0 &&
            s.first.find(".commits") != std::string::npos &&
            s.second > 0)
            ++tenants_seen;
    }
    EXPECT_EQ(tenants_seen, 4u);
}

// Determinism of the trace itself (same config + seed -> same stream),
// independent of the checked-in goldens: a fresh System must reproduce
// the exact delivery sequence.
TEST(GoldenTraceTest, BackToBackRunsProduceIdenticalTraces)
{
    const GoldenRun a = runGoldenQuickstart();
    const GoldenRun b = runGoldenQuickstart();
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.deliveries, b.deliveries);
}

// The regeneration machinery itself: running `--dump-goldens` with no
// timing change must reproduce the checked-in tests/goldens.inc
// byte-identically -- constants, comments, formatting, everything.
// This guards the regeneration path (shared renderer, workload
// configs, hash definition) against silent drift: if this test fails
// while the hash tests above pass, the *dump machinery* changed, not
// the simulation.
TEST(GoldenTraceTest, DumpGoldensIsIdempotent)
{
    std::ifstream in(ATOMSIM_GOLDENS_PATH, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot read " << ATOMSIM_GOLDENS_PATH;
    std::ostringstream checked_in;
    checked_in << in.rdbuf();
    EXPECT_EQ(golden::renderGoldens(), checked_in.str());
}

} // namespace
} // namespace atomsim
