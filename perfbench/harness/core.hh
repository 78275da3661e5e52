/**
 * @file
 * Measurement helpers of the perfbench harness: in-memory spans, the
 * percentile rule, operation tallies and the metric report.
 *
 * Everything here is the benchmark's own code. Spans are recorded
 * around calls into the simulator's public functions, never inside
 * them, so the simulator is measured exactly as users run it.
 */

#ifndef PERFBENCH_CORE_HH
#define PERFBENCH_CORE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since an arbitrary process epoch. */
double nowSeconds();

/** One timed call: name, interval, causing span and request id. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0; ///< 0 = not part of a service request
    std::string name;
    double start = 0.0;
    double end = 0.0;

    double duration() const { return end - start; }
};

/**
 * Collects spans in memory; written out once, when the run ends.
 * Thread-safe. Each thread keeps its own stack of open spans, so a
 * span opened while another is open on the same thread becomes its
 * child.
 */
class SpanRecorder
{
  public:
    /** Open a span; returns its id (0 when recording is off). */
    std::uint64_t open(std::string name, std::uint64_t request = 0);

    /** Close span @p id (a no-op for id 0). */
    void close(std::uint64_t id);

    void setEnabled(bool on) { enabled = on; }

    /** Closed spans, in closing order. */
    std::vector<Span> spans() const;

    /** Closed spans named @p name. */
    std::vector<Span> named(const std::string &name) const;

    /** Write every closed span, with its self time, as one JSON
     * object per line. */
    bool writeJsonl(const std::string &path) const;

    /** Forget every span (between repetitions). */
    void clear();

    /** The process-wide recorder. */
    static SpanRecorder &global();

  private:
    bool enabled = false;
    mutable std::mutex lock;
    std::uint64_t nextId = 1;
    std::vector<Span> openSpans;
    std::vector<Span> closed;
};

/** RAII span on the global recorder. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name, std::uint64_t request = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close now; returns the span's duration in seconds. */
    double stop();

  private:
    std::uint64_t id;
    double started;
    double elapsed = -1.0;
};

/**
 * Self time of @p span: its duration minus the part of its interval
 * covered by @p children (spans whose parent is @p span). Children
 * that overlap each other are counted once.
 */
double selfTime(const Span &span, const std::vector<Span> &children);

/** Self time of every span in @p spans, indexed like @p spans. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Median of @p values (mean of the two middle values when even). */
double median(std::vector<double> values);

/** Nearest-rank @p p-th percentile (0 < p <= 100) of @p values. */
double percentile(std::vector<double> values, double p);

/** Samples strictly beyond the nearest-rank @p p-th percentile. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of @p candidates (ascending percentiles) that has at
 * least @p min_beyond samples beyond it among @p n samples; nullopt
 * when none qualifies.
 */
std::optional<double>
highestReportablePercentile(std::size_t n,
                            const std::vector<double> &candidates,
                            std::size_t min_beyond = 10);

/**
 * Operations attempted and how they ended. An operation is a matrix
 * cell or a service request. Shed requests, failed operations and
 * operations whose output did not match the oracle all count as
 * failed.
 */
struct OperationTally
{
    std::uint64_t attempted = 0;
    std::uint64_t shed = 0;
    std::uint64_t errored = 0;
    std::uint64_t mismatched = 0;

    void addOk() { ++attempted; }
    void addShed() { ++attempted; ++shed; }
    void addError() { ++attempted; ++errored; }

    /** A completed operation's output failed its correctness check
     * (the operation was already counted as attempted). */
    void markMismatch() { ++mismatched; }

    std::uint64_t failed() const { return shed + errored + mismatched; }

    double
    errorRate() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed()) /
                                    static_cast<double>(attempted);
    }
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;

    /** Samples the value was derived from (0 = a single measure). */
    std::uint64_t count = 0;

    /** For ratios: what the value is a share of. */
    std::string base;

    /** Listed in BENCHMARK.json, so part of the result line. */
    bool listed = true;
};

/** The metrics of one run plus its correctness verdict. */
class Report
{
  public:
    void add(Metric metric);

    /** Shorthand for a listed metric. */
    void add(const std::string &name, double value,
             const std::string &unit, std::uint64_t count = 0,
             const std::string &base = {});

    /** Shorthand for a metric printed but not in the result line. */
    void addExtra(const std::string &name, double value,
                  const std::string &unit, std::uint64_t count = 0,
                  const std::string &base = {});

    /** A free-form report line. */
    void note(const std::string &line);

    /** Print every metric line, then the JSON result line. */
    void print(bool correct, const OperationTally &tally) const;

  private:
    std::vector<Metric> entries;
    std::vector<std::string> notes;
};

/**
 * Moves the calling thread to the next CPU it may run on, one CPU per
 * repetition. The host's CPUs are not equally fast at a given moment
 * (a CPU stays slow for tens of seconds while another tenant loads
 * it), and the scheduler tends to keep a thread on one CPU for a whole
 * run; taking the CPUs in turn makes every run sample all of them.
 * The destructor restores the original affinity.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next allowed CPU. */
    void next();

    /** Undo the pinning (also done by the destructor). */
    void restore();

  private:
    std::vector<int> cpus;
    std::size_t turn = 0;
};

/** Peak resident set of this process in MB (ru_maxrss). */
double peakRssMb();

/** 64-bit mix of @p value (splitmix64 finaliser). */
std::uint64_t mix64(std::uint64_t value);

} // namespace perfbench

#endif // PERFBENCH_CORE_HH
