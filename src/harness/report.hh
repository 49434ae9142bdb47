/**
 * @file
 * Paper-style table/figure printing for the bench harnesses, plus the
 * machine-readable JSON export behind the benches' `--stats-json`
 * flag (bench/paper_figures.cc, bench/hybrid_sweep.cc and the other
 * sweeps).
 */

#ifndef ATOMSIM_HARNESS_REPORT_HH
#define ATOMSIM_HARNESS_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace atomsim
{

class StatSet;

/**
 * Log-bucketed latency histogram with percentile extraction.
 *
 * Buckets are exact below 16 ticks and log2-spaced with 8 sub-buckets
 * per octave above (<= 12.5% relative error on a reported percentile).
 * Deliberately NOT a StatSet counter:
 * the golden-pinned stat dumps stay byte-identical whether or not a
 * harness records latencies.
 */
class LatencyHistogram
{
  public:
    static constexpr std::uint32_t kLogSub = 3;
    static constexpr std::uint32_t kSub = 1u << kLogSub;
    static constexpr std::uint32_t kBuckets = (64 - kLogSub + 1) * kSub;

    LatencyHistogram() : _buckets(kBuckets) {}

    void record(Tick latency) { ++_buckets[bucketOf(latency)]; }

    /** Total samples recorded. */
    std::uint64_t count() const;

    /**
     * Latency at quantile @p q in [0, 1] (0.5 = p50), as the floor of
     * the bucket holding that sample; 0 when empty.
     */
    Tick percentile(double q) const;

    /** Bucket of @p latency (exact small values, then log2 + sub). */
    static std::uint32_t
    bucketOf(Tick latency)
    {
        if (latency < 2 * kSub)
            return std::uint32_t(latency);
        const int msb = 63 - __builtin_clzll(latency);
        const std::uint32_t sub =
            std::uint32_t(latency >> (msb - int(kLogSub))) & (kSub - 1);
        return std::uint32_t(msb - int(kLogSub) + 1) * kSub + sub;
    }

    /** Smallest latency mapping to bucket @p b. */
    static Tick
    bucketFloor(std::uint32_t b)
    {
        if (b < 2 * kSub)
            return b;
        return Tick(kSub + b % kSub) << (b / kSub - 1);
    }

  private:
    std::vector<std::uint64_t> _buckets;
};

/** A simple fixed-width text table writer. */
class ReportTable
{
  public:
    explicit ReportTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string str() const;

    /** Print to stdout. */
    void print() const;

    /** Format a double with @p decimals digits. */
    static std::string num(double v, int decimals = 2);

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** Geometric mean of a series (paper figures report gmean bars). */
double geomean(const std::vector<double> &values);

/**
 * Minimal streaming JSON emitter for the `--stats-json` exports: the
 * benches build one document per run (metadata + rows + raw stat
 * dumps) instead of forcing downstream tooling to scrape stdout
 * tables. Comma placement and nesting are managed internally; strings
 * are escaped; numbers print round-trippably.
 *
 * Usage:
 *     JsonWriter j;
 *     j.beginObject();
 *     j.kv("bench", "hybrid_sweep");
 *     j.key("rows"); j.beginArray();
 *       j.beginObject(); j.kv("mode", "memoryMode"); j.endObject();
 *     j.endArray();
 *     j.endObject();
 *     j.writeFile(path);
 */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key (must be inside an object). */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(double v);
    void value(bool v);
    void value(int v) { value(std::int64_t(v)); }
    void value(unsigned v) { value(std::uint64_t(v)); }

    /** key + value in one call. */
    template <typename T>
    void
    kv(const std::string &k, const T &v)
    {
        key(k);
        value(v);
    }

    /** Emit every counter of @p stats as one flat "name: value"
     * object under @p k (sorted by name, so diffs are stable). */
    void statsObject(const std::string &k, const StatSet &stats);

    /** The document so far. */
    const std::string &str() const { return _out; }

    /** Write the document to @p path (returns false on I/O error). */
    bool writeFile(const std::string &path) const;

  private:
    void separate();
    void escape(const std::string &s);

    std::string _out;
    /** Nesting stack: true = some element already emitted at this
     * level (a separating comma is due). */
    std::vector<bool> _hasElem;
    bool _afterKey = false;
};

/**
 * Emit @p h as a percentile object under key @p k:
 * {"count": N, "p50": ..., "p95": ..., "p99": ...} (latencies in
 * core cycles). The serving-sweep `--stats-json` schema.
 */
void writeLatencyObject(JsonWriter &w, const std::string &k,
                        const LatencyHistogram &h);

/**
 * Scan argv for `--stats-json <path>`; returns the path or "" when
 * absent. Shared by the always-built benches.
 */
std::string statsJsonPathFromArgs(int argc, char **argv);

} // namespace atomsim

#endif // ATOMSIM_HARNESS_REPORT_HH
