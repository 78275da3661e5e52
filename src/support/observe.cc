#include "support/observe.hh"

namespace bpsim
{

void
TimerRegistry::add(const std::string &name, double seconds)
{
    std::lock_guard<std::mutex> guard(lock);
    TimerStat &stat = stats[name];
    ++stat.count;
    stat.seconds += seconds;
}

std::map<std::string, TimerStat>
TimerRegistry::snapshot() const
{
    std::lock_guard<std::mutex> guard(lock);
    return stats;
}

ScopedTimer::ScopedTimer(TimerRegistry *registry, std::string name)
    : registry(registry), name(std::move(name)),
      start(std::chrono::steady_clock::now()), running(true)
{
    if (registry != nullptr)
        registry->open.fetch_add(1, std::memory_order_acq_rel);
}

double
ScopedTimer::stop()
{
    if (!running)
        return elapsed;
    running = false;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    if (registry != nullptr) {
        registry->add(name, elapsed);
        registry->open.fetch_sub(1, std::memory_order_acq_rel);
    }
    return elapsed;
}

} // namespace bpsim
