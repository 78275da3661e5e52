#include "core.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** Per-thread stack of open span ids (the parent of a new span). */
thread_local std::vector<std::uint64_t> openStack;

/** Escape @p text for a JSON string body. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

double
nowSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::uint64_t
SpanRecorder::open(std::string name, std::uint64_t request)
{
    if (!enabled)
        return 0;
    Span span;
    span.name = std::move(name);
    span.request = request;
    span.parent = openStack.empty() ? 0 : openStack.back();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> guard(lock);
        id = span.id = nextId++;
        span.start = nowSeconds();
        openSpans.push_back(std::move(span));
    }
    openStack.push_back(id);
    return id;
}

void
SpanRecorder::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const double end = nowSeconds();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    std::lock_guard<std::mutex> guard(lock);
    for (std::size_t i = 0; i < openSpans.size(); ++i) {
        if (openSpans[i].id != id)
            continue;
        Span span = std::move(openSpans[i]);
        openSpans.erase(openSpans.begin() +
                        static_cast<std::ptrdiff_t>(i));
        span.end = end;
        closed.push_back(std::move(span));
        return;
    }
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> guard(lock);
    return closed;
}

std::vector<Span>
SpanRecorder::named(const std::string &name) const
{
    std::vector<Span> out;
    std::lock_guard<std::mutex> guard(lock);
    for (const Span &span : closed) {
        if (span.name == name)
            out.push_back(span);
    }
    return out;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes(all);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        std::fprintf(file,
                     "{\"id\": %llu, \"parent\": %llu, \"request\": "
                     "%llu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"self\": %.9f}\n",
                     static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent),
                     static_cast<unsigned long long>(span.request),
                     jsonEscape(span.name).c_str(), span.start,
                     span.end, self[i]);
    }
    return std::fclose(file) == 0;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> guard(lock);
    closed.clear();
}

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

ScopedSpan::ScopedSpan(std::string name, std::uint64_t request)
    : id(SpanRecorder::global().open(std::move(name), request)),
      started(nowSeconds())
{
}

ScopedSpan::~ScopedSpan() { stop(); }

double
ScopedSpan::stop()
{
    if (elapsed < 0.0) {
        elapsed = nowSeconds() - started;
        SpanRecorder::global().close(id);
    }
    return elapsed;
}

double
selfTime(const Span &span, const std::vector<Span> &children)
{
    std::vector<std::pair<double, double>> covered;
    for (const Span &child : children) {
        const double lo = std::max(child.start, span.start);
        const double hi = std::min(child.end, span.end);
        if (hi > lo)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double reach = span.start;
    for (const auto &[lo, hi] : covered) {
        const double from = std::max(lo, reach);
        if (hi > from) {
            union_length += hi - from;
            reach = hi;
        }
    }
    return span.duration() - union_length;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<Span>> children;
    for (const Span &span : spans) {
        if (span.parent != 0)
            children[span.parent].push_back(span);
    }
    std::vector<double> out;
    out.reserve(spans.size());
    static const std::vector<Span> none;
    for (const Span &span : spans) {
        const auto it = children.find(span.id);
        out.push_back(
            selfTime(span, it == children.end() ? none : it->second));
    }
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** 1-based nearest rank of the @p p-th percentile of @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps ranks such as 99.9% of 10000 from rounding up
    // past an exact integer.
    const double rank =
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(values.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
highestReportablePercentile(std::size_t n,
                            const std::vector<double> &candidates,
                            std::size_t min_beyond)
{
    std::optional<double> best;
    for (const double p : candidates) {
        if (samplesBeyond(n, p) >= min_beyond)
            best = p;
    }
    return best;
}

void
Report::add(Metric metric)
{
    entries.push_back(std::move(metric));
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, std::uint64_t count,
            const std::string &base)
{
    add(Metric{name, value, unit, count, base, true});
}

void
Report::addExtra(const std::string &name, double value,
                 const std::string &unit, std::uint64_t count,
                 const std::string &base)
{
    add(Metric{name, value, unit, count, base, false});
}

void
Report::note(const std::string &line)
{
    notes.push_back(line);
}

void
Report::print(bool correct, const OperationTally &tally) const
{
    for (const std::string &line : notes)
        std::printf("# %s\n", line.c_str());
    for (const Metric &metric : entries) {
        std::printf("metric %-40s %16.6f %-10s", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
        if (metric.count > 0)
            std::printf("  n=%llu",
                        static_cast<unsigned long long>(metric.count));
        if (!metric.base.empty())
            std::printf("  base=%s", metric.base.c_str());
        std::printf("\n");
    }
    std::printf("metric %-40s %16.6f %-10s  attempted=%llu failed=%llu\n",
                "error_rate", tally.errorRate(), "ratio",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed()));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &metric : entries) {
        if (!metric.listed)
            continue;
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + jsonEscape(metric.name) + "\": {\"value\": " +
                value + ", \"unit\": \"" + jsonEscape(metric.unit) +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

CpuRotation::CpuRotation()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    }
}

CpuRotation::~CpuRotation() { restore(); }

void
CpuRotation::next()
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[turn++ % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void
CpuRotation::restore()
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
mix64(std::uint64_t value)
{
    value += 0x9e3779b97f4a7c15ULL;
    value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
    value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
    return value ^ (value >> 31);
}

} // namespace perfbench
