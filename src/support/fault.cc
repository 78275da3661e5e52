#include "support/fault.hh"

#include <cstdlib>
#include <vector>

#include "support/logging.hh"

namespace bpsim
{

namespace
{

Result<Count>
parseCount(const std::string &text, const char *what)
{
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size()) {
        return Error(ErrorCode::ConfigInvalid,
                     std::string(what) + " expects an unsigned "
                                         "integer, got '" +
                         text + "'");
    }
    return Count{value};
}

} // namespace

FaultInjector::FaultInjector()
{
    if (const char *spec = std::getenv("BPSIM_FAULT_INJECT")) {
        const Result<void> armed = armFromSpec(spec);
        if (!armed.ok()) {
            bpsim_fatal("BPSIM_FAULT_INJECT: ",
                        armed.error().describe());
        }
    }
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(std::string point, Count nth, ErrorCode code,
                   Count times, std::string match)
{
    std::lock_guard<std::mutex> guard(lock);
    armedPoint = std::move(point);
    armedMatch = std::move(match);
    armedNth = nth;
    armedTimes = times;
    armedCode = code;
    hitCounts.clear();
    isArmed.store(!armedPoint.empty() && armedNth > 0,
                  std::memory_order_relaxed);
}

Result<void>
FaultInjector::armFromSpec(const std::string &spec)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t colon = spec.find(':', pos);
        parts.push_back(spec.substr(pos, colon - pos));
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    if (parts.size() < 2 || parts.size() > 4 || parts[0].empty()) {
        return Error(ErrorCode::ConfigInvalid,
                     "fault spec '" + spec +
                         "' is not point:nth[:code[:times]]");
    }

    const Result<Count> nth = parseCount(parts[1], "fault spec nth");
    if (!nth.ok())
        return nth.error();
    if (nth.value() == 0) {
        return Error(ErrorCode::ConfigInvalid,
                     "fault spec nth is 1-based; 0 never fires");
    }

    ErrorCode code = ErrorCode::Internal;
    if (parts.size() >= 3) {
        const Result<ErrorCode> parsed = errorCodeFromName(parts[2]);
        if (!parsed.ok())
            return parsed.error();
        code = parsed.value();
    }

    Count times = 1;
    if (parts.size() == 4) {
        const Result<Count> parsed =
            parseCount(parts[3], "fault spec times");
        if (!parsed.ok())
            return parsed.error();
        if (parsed.value() == 0) {
            return Error(ErrorCode::ConfigInvalid,
                         "fault spec times must be positive");
        }
        times = parsed.value();
    }

    arm(parts[0], nth.value(), code, times);
    return okResult();
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> guard(lock);
    armedPoint.clear();
    armedMatch.clear();
    armedNth = 0;
    armedTimes = 0;
    hitCounts.clear();
    isArmed.store(false, std::memory_order_relaxed);
}

Count
FaultInjector::hits(const std::string &point) const
{
    std::lock_guard<std::mutex> guard(lock);
    const auto it = hitCounts.find(point);
    return it != hitCounts.end() ? it->second : 0;
}

void
FaultInjector::onHit(const char *point, const std::string &context)
{
    Error error;
    {
        std::lock_guard<std::mutex> guard(lock);
        if (armedPoint != point)
            return;
        if (!armedMatch.empty() &&
            context.find(armedMatch) == std::string::npos)
            return;
        const Count hit = ++hitCounts[armedPoint];
        if (hit < armedNth || hit >= armedNth + armedTimes)
            return;
        error = Error(armedCode,
                      "injected fault at " + armedPoint + " (hit " +
                          std::to_string(hit) + ")");
        if (!context.empty())
            error.withContext(context);
    }
    raise(std::move(error));
}

} // namespace bpsim
