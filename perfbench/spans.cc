#include "spans.hh"

#include <cstdio>
#include <cstring>

namespace perfbench
{

SpanLog::SpanLog() : _epoch(std::chrono::steady_clock::now())
{
    // One span per simulated transaction dominates; reserving up front
    // keeps vector growth out of the timed slices.
    _spans.reserve(1 << 16);
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - _epoch)
        .count();
}

std::int32_t
SpanLog::begin(const char *name)
{
    const std::int32_t parent = _open.empty() ? -1 : _open.back();
    const auto id = std::int32_t(_spans.size());
    _spans.push_back(Span{name, parent, _trace, nowNs(), 0});
    _open.push_back(id);
    return id;
}

void
SpanLog::end(std::int32_t id)
{
    _spans[std::size_t(id)].endNs = nowNs();
    _open.pop_back();
}

double
SpanLog::totalSeconds(const char *name) const
{
    std::int64_t ns = 0;
    for (const Span &s : _spans)
        if (std::strcmp(s.name, name) == 0)
            ns += s.endNs - s.startNs;
    return double(ns) * 1e-9;
}

double
SpanLog::selfSeconds(const char *name) const
{
    std::vector<std::int64_t> child(_spans.size(), 0);
    for (const Span &s : _spans)
        if (s.parent >= 0)
            child[std::size_t(s.parent)] += s.endNs - s.startNs;
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        if (std::strcmp(_spans[i].name, name) == 0)
            ns += _spans[i].endNs - _spans[i].startNs - child[i];
    return double(ns) * 1e-9;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                     i ? "," : "", s.name, s.trace,
                     double(s.startNs) * 1e-3,
                     double(s.endNs - s.startNs) * 1e-3, i, s.parent);
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
