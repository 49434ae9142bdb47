/**
 * @file
 * Golden-trace machinery for test_golden_trace.cc -- the single source
 * of truth for how delivery streams are hashed, which workloads the
 * goldens pin, and how the checked-in constants regenerate.
 *
 * The golden constants live in tests/goldens.inc (generated -- never
 * hand-edit). When a PR intentionally changes simulated timing (a new
 * latency model, a protocol change), run the test binary with
 * `--dump-goldens`: it recomputes every constant and rewrites
 * goldens.inc in place. Commit the regenerated file together
 * with the timing change and explain the move in the commit message.
 */

#ifndef ATOMSIM_TESTS_GOLDEN_SUPPORT_HH
#define ATOMSIM_TESTS_GOLDEN_SUPPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/mesh.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace atomsim
{
namespace golden
{

// The checked-in golden constants (generated file).
#include "goldens.inc"

/**
 * FNV-1a over the (tick, node, kind) delivery stream -- THE hash every
 * golden constant is computed with.
 */
class TraceHasher : public Mesh::Tracer
{
  public:
    void
    onDeliver(Tick tick, std::uint32_t node, MsgType type) override
    {
        mix(tick);
        mix(node);
        mix(std::uint64_t(type));
        ++_deliveries;
    }

    std::uint64_t hash() const { return _hash; }
    std::uint64_t deliveries() const { return _deliveries; }

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _hash ^= (v >> (8 * i)) & 0xff;
            _hash *= 1099511628211ull;
        }
    }

    std::uint64_t _hash = 14695981039346656037ull;
    std::uint64_t _deliveries = 0;
};

/** Everything a golden run produces. */
struct GoldenRun
{
    std::uint64_t hash = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t txns = 0;
    std::vector<std::pair<std::string, std::uint64_t>> stats;
};

/**
 * The quickstart-sized golden workload: the hash micro-benchmark on a
 * scaled-down Table-I machine (8 cores, ATOM-OPT).
 */
GoldenRun runGoldenQuickstart();

/** The tpcc-sized golden workload: TPC-C new-order, 4 cores, ATOM. */
GoldenRun runGoldenTpcc();

/**
 * The hybrid-memory golden workload: the hash micro-benchmark with
 * 512-byte entries on the quickstart machine, a 1 MB DRAM cache per
 * controller in @p mode (and @p region bypassing it in app-direct
 * mode) and a 64 KB L2 tile, so lines travel through the DRAM tier.
 */
GoldenRun runGoldenHybrid(HybridMode mode, AppDirectRegion region);

/**
 * The flash-tier golden workload: the hybrid workload on flat NVM
 * with the SSD tier on under the balanced policy and destage
 * thresholds low enough that the run destages real pages.
 */
GoldenRun runGoldenFlashTier();

/**
 * The serving golden workload: the 1024-tile preset running the
 * zipfian KV workload for 4 tenants, one transaction per core.
 */
GoldenRun runGoldenServing1024();

/**
 * Recompute every golden constant and render the full goldens.inc file contents. This is the single
 * formatter `--dump-goldens` writes through, so the idempotence test
 * can assert that regenerating with no timing change reproduces the
 * checked-in file byte-identically.
 */
std::string renderGoldens();

/**
 * `--dump-goldens` entry point of the test binary's main: if argv contains the flag, recompute every golden constant, rewrite
 * tests/goldens.inc, print the new values, and return true (the
 * caller exits without running gtest).
 */
bool maybeDumpGoldens(int argc, char **argv);

} // namespace golden
} // namespace atomsim

#endif // ATOMSIM_TESTS_GOLDEN_SUPPORT_HH
