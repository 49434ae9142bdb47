/**
 * @file
 * The benchmark's three workloads: machine configuration, workload
 * construction and default size, all derived from the run's seed.
 *
 * Every workload is a closed loop on the sequential kernel
 * (numShards = 0): each simulated core is one client that fetches its
 * next transaction only when the previous one completes, for a fixed
 * number of transactions per core. Simulated caches start cold after
 * Runner::setUp (no warm-up phase is simulated).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/config.hh"
#include "workloads/workload.hh"

namespace perfbench
{

struct BenchWorkload
{
    const char *name;
    /** Transactions per core at the benchmark's size. */
    std::uint32_t txnsPerCore;
    /** Heap region handed to the Runner. */
    atomsim::Addr dataBytes;

    /**
     * Machine for @p seed. @p crash builds the mid-run crash instance,
     * which serializes atomic regions where the workload's regions
     * mutate structures shared between cores.
     */
    atomsim::SystemConfig (*config)(std::uint64_t seed, bool crash);

    /** Fresh workload instance for @p seed. */
    std::unique_ptr<atomsim::Workload> (*make)(std::uint64_t seed,
                                               std::uint32_t txns_per_core);
};

/** The workload named @p name, or nullptr. */
const BenchWorkload *findWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
