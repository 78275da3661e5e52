/**
 * @file
 * Lightweight observability primitive: scoped wall-clock timers.
 *
 * Designed for coarse-grained instrumentation — once per phase or
 * matrix cell, never per branch — so a mutex-protected map is plenty
 * and the hot simulation loops stay untouched. The run journal
 * (src/obs/) embeds a TimerRegistry and serializes its snapshot into
 * its metrics summary.
 */

#ifndef BPSIM_SUPPORT_OBSERVE_HH
#define BPSIM_SUPPORT_OBSERVE_HH

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "support/types.hh"

namespace bpsim
{

/** Accumulated invocations and wall time of one named scope. */
struct TimerStat
{
    Count count = 0;
    double seconds = 0.0;
};

/**
 * Accumulates ScopedTimer measurements by name and tracks how many
 * timers are currently open — openCount() returning to zero is the
 * "every timer that started also stopped" nesting invariant the
 * property suite asserts.
 */
class TimerRegistry
{
  public:
    /** Fold @p seconds into scope @p name. */
    void add(const std::string &name, double seconds);

    /** ScopedTimers currently running against this registry. */
    Count openCount() const
    {
        return open.load(std::memory_order_acquire);
    }

    /** Copy of all timer stats, sorted by name. */
    std::map<std::string, TimerStat> snapshot() const;

  private:
    friend class ScopedTimer;

    std::atomic<Count> open{0};
    mutable std::mutex lock;
    std::map<std::string, TimerStat> stats;
};

/**
 * RAII wall-clock timer: measures from construction to stop() (or
 * destruction) and records into a TimerRegistry. A null registry
 * still measures (stop() returns the elapsed seconds) but records
 * nowhere, so call sites can use one timer as both their measurement
 * and their observability hook without branching.
 */
class ScopedTimer
{
  public:
    ScopedTimer(TimerRegistry *registry, std::string name);

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer() { stop(); }

    /**
     * Stop the timer and record; idempotent (later calls return the
     * first measurement).
     *
     * @return elapsed wall seconds
     */
    double stop();

  private:
    TimerRegistry *registry;
    std::string name;
    std::chrono::steady_clock::time_point start;
    bool running;
    double elapsed = 0.0;
};

} // namespace bpsim

#endif // BPSIM_SUPPORT_OBSERVE_HH
