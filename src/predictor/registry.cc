#include "predictor/registry.hh"

#include <algorithm>
#include <cstdlib>

#include "predictor/factory.hh"
#include "support/logging.hh"

namespace bpsim
{

PredictorRegistry &
PredictorRegistry::instance()
{
    static PredictorRegistry registry;
    return registry;
}

void
PredictorRegistry::add(PredictorInfo info)
{
    bpsim_assert(!info.name.empty(), "predictor registered without a name");
    bpsim_assert(static_cast<bool>(info.make),
                 "predictor '", info.name, "' registered without make()");
    bpsim_assert(find(info.name) == nullptr,
                 "predictor '", info.name, "' registered twice");
    if (info.goldenFile.empty())
        info.goldenFile = info.name;
    // Safe at static-init time: no predictor constructor consults the
    // registry.
    info.kernelCapable =
        visitPredictor(*info.make(info.defaultBytes), [](auto &) {});
    const std::vector<PredictorKind> &kinds = allPredictorKinds();
    info.paperKind =
        std::any_of(kinds.begin(), kinds.end(), [&](PredictorKind kind) {
            return predictorKindName(kind) == info.name;
        });
    entries.push_back(std::move(info));
}

const PredictorInfo *
PredictorRegistry::find(const std::string &name) const
{
    for (const PredictorInfo &info : entries) {
        if (info.name == name)
            return &info;
    }
    return nullptr;
}

std::vector<const PredictorInfo *>
PredictorRegistry::all() const
{
    std::vector<const PredictorInfo *> sorted;
    sorted.reserve(entries.size());
    for (const PredictorInfo &info : entries)
        sorted.push_back(&info);
    std::sort(sorted.begin(), sorted.end(),
              [](const PredictorInfo *a, const PredictorInfo *b) {
                  return a->name < b->name;
              });
    return sorted;
}

std::vector<std::string>
PredictorRegistry::names() const
{
    std::vector<std::string> result;
    result.reserve(entries.size());
    for (const PredictorInfo *info : all())
        result.push_back(info->name);
    return result;
}

std::string
PredictorRegistry::namesJoined() const
{
    std::string joined;
    for (const std::string &name : names()) {
        if (!joined.empty())
            joined += ", ";
        joined += name;
    }
    return joined;
}

Result<ParsedPredictorSpec>
parsePredictorSpec(const std::string &spec)
{
    const auto colon = spec.find(':');
    const std::string name = spec.substr(0, colon);

    const PredictorInfo *info = PredictorRegistry::instance().find(name);
    if (info == nullptr) {
        return Error(ErrorCode::ConfigInvalid,
                     "unknown predictor '" + name + "' (registered: " +
                         PredictorRegistry::instance().namesJoined() +
                         ")");
    }

    std::size_t bytes = info->defaultBytes;
    if (colon != std::string::npos) {
        const std::string size_str = spec.substr(colon + 1);
        char *end = nullptr;
        bytes = std::strtoull(size_str.c_str(), &end, 10);
        if (size_str.empty() || end == nullptr || *end != '\0' ||
            bytes == 0) {
            return Error(ErrorCode::ConfigInvalid,
                         "bad predictor size in spec '" + spec + "'");
        }
    }
    return ParsedPredictorSpec{info, bytes};
}

// Force-link anchors: one per registration translation unit, so the
// archive members carrying the registration statics are always pulled
// into any binary that links the registry (see BPSIM_REGISTER_PREDICTOR).
// This list is the single place that grows per predictor.
const void *bpsimPredictorAnchor_bimodal();
const void *bpsimPredictorAnchor_ghist();
const void *bpsimPredictorAnchor_gshare();
const void *bpsimPredictorAnchor_bimode();
const void *bpsimPredictorAnchor_twobcgskew();
const void *bpsimPredictorAnchor_agree();
const void *bpsimPredictorAnchor_tournament();
const void *bpsimPredictorAnchor_gselect();
const void *bpsimPredictorAnchor_yags();
const void *bpsimPredictorAnchor_ideal();
const void *bpsimPredictorAnchor_tage();
const void *bpsimPredictorAnchor_perceptron();

namespace
{

[[maybe_unused]] const void *const predictorAnchors[] = {
    bpsimPredictorAnchor_bimodal(),    bpsimPredictorAnchor_ghist(),
    bpsimPredictorAnchor_gshare(),     bpsimPredictorAnchor_bimode(),
    bpsimPredictorAnchor_twobcgskew(), bpsimPredictorAnchor_agree(),
    bpsimPredictorAnchor_tournament(), bpsimPredictorAnchor_gselect(),
    bpsimPredictorAnchor_yags(),       bpsimPredictorAnchor_ideal(),
    bpsimPredictorAnchor_tage(),       bpsimPredictorAnchor_perceptron(),
};

} // namespace

} // namespace bpsim
