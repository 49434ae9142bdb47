/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * each simulator layer's public functions (System construction,
 * Runner::setUp, Runner::advanceTo slices, Workload calls, recovery).
 * They stay in memory until the run ends, then are written out as a
 * Chrome trace-event file. A span's self time is its duration minus
 * the time covered by its direct children.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace perfbench
{

class SpanLog
{
  public:
    struct Span
    {
        const char *name;     //!< string literal
        std::int32_t parent;  //!< index of the enclosing span, or -1
        std::uint32_t trace;  //!< spans of one simulated instance share it
        std::int64_t startNs;
        std::int64_t endNs;
    };

    SpanLog();

    /** Trace id stamped on spans opened from now on. */
    void setTrace(std::uint32_t trace) { _trace = trace; }

    /** Open a span as a child of the innermost open span. */
    std::int32_t begin(const char *name);

    /** Close span @p id, the innermost open span (SpanScope nests). */
    void end(std::int32_t id);

    /** Summed duration and summed self time of the spans named @p name. */
    double totalSeconds(const char *name) const;
    double selfSeconds(const char *name) const;

    /** Write every span as a Chrome trace-event JSON array. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    std::chrono::steady_clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<std::int32_t> _open;
    std::uint32_t _trace = 0;
};

/** RAII span; a null log makes it a no-op (the untraced path). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name)
        : _log(log), _id(log ? log->begin(name) : -1)
    {
    }

    ~SpanScope()
    {
        if (_log)
            _log->end(_id);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *_log;
    std::int32_t _id;
};

/**
 * Forwarding Workload that records a `workloads.init` span around
 * init() and one `workloads.runTransaction` span per transaction.
 */
class TracedWorkload : public atomsim::Workload
{
  public:
    TracedWorkload(atomsim::Workload &inner, SpanLog &log)
        : _inner(inner), _log(log)
    {
    }

    std::string name() const override { return _inner.name(); }

    void
    init(atomsim::DirectAccessor &mem, atomsim::PersistentHeap &heap,
         std::uint32_t num_cores) override
    {
        SpanScope s(&_log, "workloads.init");
        _inner.init(mem, heap, num_cores);
    }

    void
    runTransaction(atomsim::CoreId core, atomsim::Accessor &mem,
                   atomsim::Random &rng) override
    {
        SpanScope s(&_log, "workloads.runTransaction");
        _inner.runTransaction(core, mem, rng);
    }

    std::string
    checkConsistency(atomsim::DirectAccessor &mem,
                     std::uint32_t num_cores) override
    {
        return _inner.checkConsistency(mem, num_cores);
    }

  private:
    atomsim::Workload &_inner;
    SpanLog &_log;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
