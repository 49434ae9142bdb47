/**
 * @file
 * Layer drivers: small loops that call one simulator layer's public
 * API directly and report host nanoseconds per call. They run only in
 * the traced run and feed the per-layer metrics.
 */

#ifndef PERFBENCH_DRIVERS_HH
#define PERFBENCH_DRIVERS_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

struct DriverResult
{
    const char *metric;  //!< per-layer metric name
    double nsPerCall;    //!< median over timed batches
};

/** Run every layer driver; inputs derive from @p seed. */
std::vector<DriverResult> runLayerDrivers(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_DRIVERS_HH
