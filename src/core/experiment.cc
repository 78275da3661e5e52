#include "core/experiment.hh"

#include <algorithm>

#include "core/engine.hh"
#include "predictor/registry.hh"
#include "support/logging.hh"
#include "trace/replay_buffer.hh"
#include "trace/trace_io.hh"

namespace bpsim
{

namespace
{

/** Build the dynamic component a config describes, with its history
 * lengths when it sets them. */
std::unique_ptr<BranchPredictor>
buildDynamicPredictor(const ExperimentConfig &config)
{
    const std::string name = predictorNameOf(config);
    const PredictorInfo *info = PredictorRegistry::instance().find(name);
    // validate() rejects unregistered names and history lengths the
    // predictor does not take before any phase runs.
    bpsim_assert(info != nullptr, "unregistered predictor '", name,
                 "' reached construction");
    if (config.historyLengths.empty())
        return info->make(config.sizeBytes);
    return info->makeWithHistory(config.sizeBytes, config.historyLengths);
}

/** Options of the selection phase's profiling simulation. */
SimOptions
profileOptions(const ExperimentConfig &config, ProfileDb &profile)
{
    SimOptions options;
    options.maxBranches = config.profileBranches;
    options.profile = &profile;
    return options;
}

/**
 * The selection phase downstream of profiling: the §5.1 merge filter,
 * when configured, and the static scheme. @p collect_eval_profile
 * gathers the filter's bias-only profile of the evaluation input. Adds
 * the branches consumed to @p simulated.
 */
template <typename CollectEvalProfile>
HintDb
selectHints(const ExperimentConfig &config,
            const ProfilePhase *profile_phase,
            CollectEvalProfile &&collect_eval_profile, Count &simulated)
{
    if (config.scheme == StaticScheme::None)
        return {};
    bpsim_assert(profile_phase != nullptr,
                 "selection scheme needs a profiling phase");
    simulated += profile_phase->simulatedBranches;

    const ProfileDb *selection_profile = &profile_phase->profile;
    ProfileDb filtered;
    if (config.filterUnstable && config.profileInput != config.evalInput) {
        // The Spike-style merge filter: gather a bias-only profile
        // under the evaluation input and drop branches whose
        // behaviour is input-dependent.
        const ProfileDb eval_profile = collect_eval_profile();
        simulated += eval_profile.totalExecuted();
        filtered = stableSubset(*selection_profile, eval_profile,
                                config.stabilityThreshold);
        selection_profile = &filtered;
    }
    return selectStatic(config.scheme, *selection_profile,
                        config.selection);
}

} // namespace

SimOptions
evalSimOptions(const ExperimentConfig &config)
{
    SimOptions options;
    options.maxBranches = config.evalBranches;
    options.warmupBranches = config.evalWarmupBranches;
    return options;
}

SimOptions
evalSimOptions(const ExperimentConfig &config,
               const PreparedEvaluation &prepared)
{
    SimOptions options = evalSimOptions(config);
    if (prepared.evalProfile != nullptr)
        options.profile = prepared.evalProfile.get();
    return options;
}

std::string
predictorNameOf(const ExperimentConfig &config)
{
    return config.predictor.empty() ? predictorKindName(config.kind)
                                    : config.predictor;
}

std::string
predictorIdentityOf(const ExperimentConfig &config)
{
    std::string identity =
        predictorNameOf(config) + ":" + std::to_string(config.sizeBytes);
    for (std::size_t i = 0; i < config.historyLengths.size(); ++i)
        identity += (i == 0 ? ":h" : ",") +
                    std::to_string(config.historyLengths[i]);
    return identity;
}

Result<void>
ExperimentConfig::validate() const
{
    // The table factory carves sizeBytes into power-of-two entry
    // counts (halved or quartered by the multi-table schemes), so
    // the budget itself must be a power of two with room for the
    // smallest split.
    if (sizeBytes < 16 || (sizeBytes & (sizeBytes - 1)) != 0) {
        return Error(ErrorCode::ConfigInvalid,
                     "predictor sizeBytes must be a power of two "
                     ">= 16, got " +
                         std::to_string(sizeBytes));
    }
    const std::string name = predictorNameOf(*this);
    const PredictorInfo *info = PredictorRegistry::instance().find(name);
    if (info == nullptr) {
        return Error(ErrorCode::ConfigInvalid,
                     "unknown predictor '" + name + "' (registered: " +
                         PredictorRegistry::instance().namesJoined() +
                         ")");
    }
    if (!historyLengths.empty()) {
        if (!info->makeWithHistory) {
            return Error(ErrorCode::ConfigInvalid,
                         "predictor '" + name +
                             "' takes no history lengths");
        }
        if (historyLengths.size() != info->historyLengthCount) {
            return Error(ErrorCode::ConfigInvalid,
                         "predictor '" + name + "' takes " +
                             std::to_string(info->historyLengthCount) +
                             " history lengths, got " +
                             std::to_string(historyLengths.size()));
        }
        for (const BitCount length : historyLengths) {
            if (length < 1 || length > 64) {
                return Error(ErrorCode::ConfigInvalid,
                             "history lengths must be in [1, 64], got " +
                                 std::to_string(length));
            }
        }
    }
    if (evalBranches == 0) {
        return Error(ErrorCode::ConfigInvalid,
                     "evalBranches must be positive (zero-length "
                     "evaluation stream)");
    }
    if (scheme != StaticScheme::None && profileBranches == 0) {
        return Error(ErrorCode::ConfigInvalid,
                     "profileBranches must be positive when a static "
                     "scheme needs a profiling phase");
    }
    if (filterUnstable &&
        (stabilityThreshold < 0.0 || stabilityThreshold > 1.0)) {
        return Error(ErrorCode::ConfigInvalid,
                     "stabilityThreshold must be in [0, 1], got " +
                         std::to_string(stabilityThreshold));
    }
    if (selection.cutoffBias < 0.5 || selection.cutoffBias > 1.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "selection.cutoffBias must be in [0.5, 1], got " +
                         std::to_string(selection.cutoffBias));
    }
    if (selection.aliasCutoffBias < 0.5 ||
        selection.aliasCutoffBias > 1.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "selection.aliasCutoffBias must be in [0.5, 1], "
                     "got " +
                         std::to_string(selection.aliasCutoffBias));
    }
    if (selection.factor <= 0.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "selection.factor must be positive, got " +
                         std::to_string(selection.factor));
    }
    if (selection.aliasMinCollisionRate < 0.0 ||
        selection.aliasMinCollisionRate > 1.0) {
        return Error(ErrorCode::ConfigInvalid,
                     "selection.aliasMinCollisionRate must be in "
                     "[0, 1], got " +
                         std::to_string(
                             selection.aliasMinCollisionRate));
    }
    return okResult();
}

ProfilePhase
runProfilePhase(BranchStream &profile_stream,
                const ExperimentConfig &config)
{
    // Profile the program, simulating the target dynamic predictor
    // so the profile carries per-branch accuracy (only
    // Static_Acc/Static_Fac read it; Static_95 just uses bias).
    auto profiling_predictor = buildDynamicPredictor(config);
    ProfilePhase phase;
    const SimStats stats =
        simulate(*profiling_predictor, profile_stream,
                 profileOptions(config, phase.profile));
    phase.simulatedBranches = stats.branches;
    return phase;
}

ExperimentResult
runEvaluationStreams(BranchStream &eval_stream,
                     const ExperimentConfig &config,
                     const ProfilePhase *profile_phase)
{
    Count simulated = 0;
    HintDb hints = selectHints(
        config, profile_phase,
        [&] {
            eval_stream.reset();
            BoundedStream bounded(eval_stream, config.profileBranches);
            return ProfileDb::collect(bounded, config.profileBranches);
        },
        simulated);

    // Phase 2: evaluate the combined predictor from a cold start.
    ExperimentResult result;
    result.hintCount = hints.size();
    CombinedPredictor combined(buildDynamicPredictor(config),
                               std::move(hints), config.shift);
    result.stats = simulate(combined, eval_stream, evalSimOptions(config));
    // Warmup branches are simulated work even though they are outside
    // the measured window; count them exactly once (streams shorter
    // than the warmup are the caller's misconfiguration — the matrix
    // runner sizes its buffers to cover warmup + eval).
    result.simulatedBranches =
        simulated + config.evalWarmupBranches + result.stats.branches;
    return result;
}

PreparedEvaluation
prepareEvaluationReplay(const ReplayBuffer *profile_buffer,
                        const ReplayBuffer &eval_buffer,
                        const ExperimentConfig &config,
                        const ProfilePhase *cached_profile)
{
    PreparedEvaluation prepared;
    ProfilePhase local;
    const ProfilePhase *phase = cached_profile;
    if (config.scheme != StaticScheme::None && phase == nullptr) {
        bpsim_assert(profile_buffer != nullptr,
                     "selection scheme needs a profile trace");
        FusedProfileOutcome outcome = std::move(
            runProfilePhasesFusedReplay(*profile_buffer, {&config})
                .front());
        prepared.preEvalFastPath = outcome.usedFastPath;
        prepared.preEvalSimd = outcome.usedSimd;
        local = std::move(outcome.phase);
        phase = &local;
    }
    HintDb hints = selectHints(
        config, phase,
        [&] {
            auto cursor = eval_buffer.cursor();
            BoundedStream bounded(cursor, config.profileBranches);
            return ProfileDb::collect(bounded, config.profileBranches);
        },
        prepared.preEvalBranches);

    prepared.hintCount = hints.size();
    prepared.combined = std::make_unique<CombinedPredictor>(
        buildDynamicPredictor(config), std::move(hints), config.shift);

    if (config.scenarioContexts > 0) {
        prepared.evalProfile = std::make_unique<ProfileDb>();
        prepared.aliasSink =
            std::make_unique<ContextAliasSink>(config.scenarioContexts);
        prepared.combined->attachAliasSink(prepared.aliasSink.get());
    }
    return prepared;
}

std::vector<ContextStats>
contextSplitOf(const ReplayBuffer &buffer, Count begin, Count end,
               std::size_t contexts)
{
    std::vector<ContextStats> split(contexts);
    BranchRecord record;
    for (Count i = begin; i < end; ++i) {
        buffer.get(i, record);
        const std::size_t ctx = contextOfPc(record.pc);
        if (ctx >= contexts)
            continue;
        ++split[ctx].branches;
        split[ctx].instructions += record.instGap;
    }
    return split;
}

ExperimentResult
finishPreparedEvaluation(const PreparedEvaluation &prepared,
                         const ExperimentConfig &config,
                         const SimStats &eval_stats,
                         const ReplayBuffer *eval_buffer)
{
    std::vector<ContextStats> split;
    if (config.scenarioContexts > 0 && eval_buffer != nullptr) {
        const Count begin = config.evalWarmupBranches;
        split = contextSplitOf(*eval_buffer, begin,
                               begin + eval_stats.branches,
                               config.scenarioContexts);
    }
    return finishPreparedEvaluation(prepared, config, eval_stats, split);
}

ExperimentResult
finishPreparedEvaluation(const PreparedEvaluation &prepared,
                         const ExperimentConfig &config,
                         const SimStats &eval_stats,
                         const std::vector<ContextStats> &context_split)
{
    ExperimentResult result;
    result.stats = eval_stats;
    result.hintCount = prepared.hintCount;
    // Warmup branches are simulated work even though they are outside
    // the measured window; count them exactly once (streams shorter
    // than the warmup are the caller's misconfiguration — the matrix
    // runner sizes its buffers to cover warmup + eval).
    result.simulatedBranches = prepared.preEvalBranches +
                               config.evalWarmupBranches +
                               eval_stats.branches;

    if (config.scenarioContexts > 0 &&
        prepared.evalProfile != nullptr) {
        const std::size_t n = config.scenarioContexts;
        result.contextStats = context_split;
        if (result.contextStats.empty())
            result.contextStats.assign(n, ContextStats{});
        bpsim_assert(result.contextStats.size() == n,
                     "context split does not match the cell's contexts");

        // Misprediction/collision ownership from the per-branch
        // profile: hinted branches mispredict exactly when the
        // outcome opposes the hint (the engine records only their
        // outcomes); dynamic branches carry prediction and collision
        // counts directly.
        for (const auto &[pc, prof] :
             prepared.evalProfile->entries()) {
            const std::size_t ctx = contextOfPc(pc);
            if (ctx >= n)
                continue;
            ContextStats &stats = result.contextStats[ctx];
            bool hint_taken = false;
            if (prepared.combined->hintDb().lookup(pc, hint_taken)) {
                stats.staticPredicted += prof.executed;
                stats.mispredictions += hint_taken
                                            ? prof.executed - prof.taken
                                            : prof.taken;
            } else {
                stats.mispredictions += prof.predicted - prof.correct;
                stats.collisions += prof.collisions;
            }
        }

        if (prepared.aliasSink != nullptr)
            result.aliasMatrix = prepared.aliasSink->cells();
    }
    return result;
}

ExperimentResult
runExperimentStreams(BranchStream &profile_stream,
                     BranchStream &eval_stream,
                     const ExperimentConfig &config)
{
    if (Result<void> valid = config.validate(); !valid.ok())
        raise(std::move(valid.error()));
    ProfilePhase phase;
    const ProfilePhase *phase_ptr = nullptr;
    if (config.scheme != StaticScheme::None) {
        phase = runProfilePhase(profile_stream, config);
        phase_ptr = &phase;
    }
    return runEvaluationStreams(eval_stream, config, phase_ptr);
}

std::vector<FusedProfileOutcome>
runProfilePhasesFusedReplay(
    const ReplayBuffer &profile_buffer,
    const std::vector<const ExperimentConfig *> &configs,
    const SiteIndex *sites, const std::vector<FusedSim *> &carriers)
{
    bpsim_assert(carriers.empty() || carriers.size() == configs.size(),
                 "one carrier entry per profiling phase");
    const auto carrierOf = [&](std::size_t i) {
        return carriers.empty() ? nullptr : carriers[i];
    };
    std::vector<FusedProfileOutcome> outcomes(configs.size());
    std::vector<std::unique_ptr<BranchPredictor>> predictors;
    predictors.reserve(configs.size());
    std::vector<FusedSim> sims(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (const FusedSim *carrier = carrierOf(i)) {
            bpsim_assert(carrier->options.warmupBranches == 0,
                         "a carrier measures from its first record");
            sims[i] = *carrier;
            sims[i].prefixProfile = &outcomes[i].phase.profile;
            sims[i].prefixBranches = configs[i]->profileBranches;
            continue;
        }
        predictors.push_back(buildDynamicPredictor(*configs[i]));
        sims[i].predictor = predictors.back().get();
        sims[i].options =
            profileOptions(*configs[i], outcomes[i].phase.profile);
    }

    simulateReplayFused(sims, profile_buffer, sites);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        FusedSim *carrier = carrierOf(i);
        outcomes[i].phase.simulatedBranches =
            std::min(configs[i]->profileBranches, sims[i].stats.branches);
        outcomes[i].usedFastPath = sims[i].usedFastPath;
        outcomes[i].usedSimd = sims[i].usedSimd;
        outcomes[i].seconds =
            carrier != nullptr ? sims[i].prefixSeconds : sims[i].seconds;
        if (carrier != nullptr) {
            sims[i].prefixProfile = nullptr;
            *carrier = sims[i];
        }
    }
    return outcomes;
}

} // namespace bpsim
