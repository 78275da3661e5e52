/**
 * @file
 * Two-phase experiment driver reproducing the paper's methodology
 * (§4): a selection phase that profiles the program (simulating the
 * dynamic predictor when the scheme needs per-branch accuracy),
 * followed by an evaluation phase that simulates the combined
 * static/dynamic predictor.
 */

#ifndef BPSIM_CORE_EXPERIMENT_HH
#define BPSIM_CORE_EXPERIMENT_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/combined_predictor.hh"
#include "core/engine.hh"
#include "core/sim_stats.hh"
#include "predictor/context_alias.hh"
#include "predictor/factory.hh"
#include "profile/profile_db.hh"
#include "staticsel/selection.hh"
#include "support/error.hh"
#include "workload/behavior.hh"

namespace bpsim
{

class ReplayBuffer;
class SiteIndex;

/** Full description of one experiment. */
struct ExperimentConfig
{
    /** Dynamic prediction scheme. */
    PredictorKind kind = PredictorKind::Gshare;

    /**
     * Registered predictor name (predictor/registry.hh). When
     * non-empty it overrides kind: the dynamic component is built as
     * registry.find(predictor)->make(sizeBytes), which is how cells
     * address the predictors outside the paper's five-kind enum
     * (tage, perceptron, the extensions). The name joins sizeBytes in
     * the cell's identity (profile-cache key, checkpoint fingerprint,
     * default label) exactly like a kind does.
     */
    std::string predictor;

    /**
     * Per-bank history lengths of the dynamic predictor, in the order
     * its PredictorInfo::makeWithHistory takes them (2bcgskew: G0, G1,
     * meta). Empty means the predictor's own defaults for its size.
     * Only a predictor with makeWithHistory accepts them, and they
     * join its identity ("2bcgskew:8192:h3,8,6").
     */
    std::vector<BitCount> historyLengths;

    /** Dynamic predictor budget in bytes. */
    std::size_t sizeBytes = 8192;

    /** Static selection scheme (None = pure dynamic baseline). */
    StaticScheme scheme = StaticScheme::None;

    /** History treatment of statically predicted branches. */
    ShiftPolicy shift = ShiftPolicy::NoShift;

    /** Selection tunables (cutoff bias, factor, noise floor). */
    SelectionParams selection;

    /** Branches simulated in the selection (profiling) phase. */
    Count profileBranches = 2'000'000;

    /** Branches simulated in the evaluation phase. */
    Count evalBranches = 4'000'000;

    /**
     * Unmeasured warmup branches run before the evaluation window
     * (the profiling phase never warms up: it wants cold-start
     * behaviour, like the paper's phase 1). Warmup work is counted
     * exactly once in ExperimentResult::simulatedBranches, whether
     * the run took the kernel or the virtual path.
     */
    Count evalWarmupBranches = 0;

    /** Input used for profiling ("self-trained" = same as eval). */
    InputSet profileInput = InputSet::Ref;

    /** Input used for the measured run. */
    InputSet evalInput = InputSet::Ref;

    /**
     * Apply the §5.1 merge filter: drop profile entries whose bias
     * shifts more than stabilityThreshold between the profiling input
     * and the evaluation input (requires an extra bias-only profiling
     * pass over the evaluation input).
     */
    bool filterUnstable = false;

    /** Bias-change tolerance of the merge filter. */
    double stabilityThreshold = 0.05;

    /**
     * Number of contexts in the cell's workload when it is a
     * multi-context scenario (scenario/scenario.hh), 0 for ordinary
     * single-program cells. When positive, the evaluation attaches a
     * per-branch profile and a ContextAliasSink so the result carries
     * per-context statistics and the NxN interference matrix. With
     * the sink attached the evaluation still runs the batch kernels,
     * alone, with sink reporting compiled in; aggregate stats stay
     * bit-identical.
     */
    std::size_t scenarioContexts = 0;

    /**
     * Fail-fast validation: returns a config_invalid Error naming the
     * offending field when the config cannot run (non-power-of-two
     * table budget, unknown predictor, history lengths the predictor
     * does not take, zero-length streams, out-of-range tunables).
     * Experiment entry points raise() it; the matrix runner turns it
     * into a failed cell instead of simulating garbage.
     */
    Result<void> validate() const;
};

/** The registered name of a config's predictor: config.predictor
 * when set, the paper kind's name otherwise. */
std::string predictorNameOf(const ExperimentConfig &config);

/**
 * The predictor-identity component shared by the runner's
 * profile-cache key, the profile artifact key, the checkpoint
 * fingerprint and the default cell label: "<name>:<sizeBytes>" (the
 * registered name when config.predictor is set, the paper kind name
 * when not), followed by ":h<l0>,<l1>,..." only when historyLengths
 * is set. Centralized here so a new predictor needs zero
 * identity-site edits.
 */
std::string predictorIdentityOf(const ExperimentConfig &config);

/**
 * Result of the selection phase's profiling run: the pre-filter
 * profile of config.profileInput under the config's dynamic
 * predictor, and the branches simulated to get it. Immutable once
 * built, so one phase can be shared by every cell whose profiling
 * work is identical (the runner's profile cache); the §5.1 merge
 * filter is applied per cell downstream of this.
 */
struct ProfilePhase
{
    ProfileDb profile;
    Count simulatedBranches = 0;
};

/**
 * Run the selection phase's profiling simulation: the config's
 * dynamic predictor over config.profileBranches records of
 * @p profile_stream (reset first), recording per-branch outcome and
 * accuracy counts.
 */
ProfilePhase runProfilePhase(BranchStream &profile_stream,
                             const ExperimentConfig &config);

/** One profiling phase of a fused pass (runProfilePhasesFusedReplay). */
struct FusedProfileOutcome
{
    ProfilePhase phase;

    /** Whether this phase's sim ran a devirtualized kernel. */
    bool usedFastPath = false;

    /** Whether this phase's sim ran the batch kernels (always false
     * when usedFastPath is false). */
    bool usedSimd = false;

    /** Measured seconds this phase's sim stepped (FusedSim::seconds). */
    double seconds = 0.0;
};

/**
 * Run the profiling phases of several configs over one shared buffer
 * in a single fused pass (simulateReplayFused). Each outcome is
 * bit-identical to runProfilePhase() of the matching config over a
 * cursor of @p profile_buffer; @p sites is the buffer's site index
 * (built by the pass when null).
 *
 * @p carriers, when given, holds one entry per config. A non-null
 * entry is that phase's carrier: an evaluation sim of a cold, unhinted
 * predictor of the phase's identity over the same buffer, with no
 * warmup and a window at least profileBranches long. It runs in place
 * of the phase's own sim, and its first profileBranches measured
 * records make the phase's profile (FusedSim::prefixProfile), so the
 * pass steps those records once for both. The carrier's stats, path
 * flags and seconds are written back to it; the phase's seconds is the
 * part stepped up to the prefix boundary.
 */
std::vector<FusedProfileOutcome> runProfilePhasesFusedReplay(
    const ReplayBuffer &profile_buffer,
    const std::vector<const ExperimentConfig *> &configs,
    const SiteIndex *sites = nullptr,
    const std::vector<FusedSim *> &carriers = {});

/**
 * Evaluation-window statistics of one context of a multi-context
 * scenario. Sums over all contexts reproduce the corresponding
 * SimStats totals exactly (pinned by test_scenario.cc).
 */
struct ContextStats
{
    /** Measured branches owned by the context. */
    Count branches = 0;

    /** Instructions represented by those branches. */
    Count instructions = 0;

    /** Mispredictions (static- and dynamic-predicted). */
    Count mispredictions = 0;

    /** Branches resolved by a static hint. */
    Count staticPredicted = 0;

    /** Table collisions at the context's dynamic lookups. */
    Count collisions = 0;

    /** Mispredictions per thousand instructions. */
    double mispKi() const { return perKilo(mispredictions, instructions); }
};

/** Outcome of one experiment. */
struct ExperimentResult
{
    /** Evaluation-phase statistics of the combined predictor. */
    SimStats stats;

    /** Number of branches given static hints. */
    std::size_t hintCount = 0;

    /** Branches simulated across all phases (profiling, stability
     * filtering, evaluation) — the experiment's total work. */
    Count simulatedBranches = 0;

    /** Per-context statistics; config.scenarioContexts entries for
     * scenario cells, empty otherwise. */
    std::vector<ContextStats> contextStats;

    /** Row-major scenarioContexts^2 interference matrix: cell
     * [victim * n + aggressor] counts the victim context's lookups
     * that collided with state last touched by the aggressor, split
     * constructive/destructive. Empty for non-scenario cells. */
    std::vector<ContextAliasCell> aliasMatrix;
};

/**
 * Run the two-phase experiment on the virtual simulate() loop, one
 * phase after the other: the reference oracle every runner path must
 * reproduce. @p profile_stream must replay config.profileInput and
 * @p eval_stream config.evalInput; both are reset before each use, so
 * replay-buffer cursors and live programs work alike (one program may
 * serve as both when the inputs agree). The streams must hold at least
 * profileBranches / evalBranches records respectively (and the eval
 * stream at least profileBranches when filterUnstable applies).
 */
ExperimentResult runExperimentStreams(BranchStream &profile_stream,
                                      BranchStream &eval_stream,
                                      const ExperimentConfig &config);

/**
 * Selection + evaluation given an already-run profiling phase.
 * @p profile_phase may be null only when config.scheme is None (the
 * baseline needs no profile); it is read, never modified, so a
 * cached phase can serve any number of concurrent callers. Applies
 * the §5.1 merge filter (which re-reads @p eval_stream) and the
 * selection scheme, then evaluates the combined predictor from a
 * cold start. simulatedBranches includes the phase's count, so the
 * result is identical to runExperimentStreams() whether the phase
 * was cached or run fresh.
 */
ExperimentResult runEvaluationStreams(BranchStream &eval_stream,
                                      const ExperimentConfig &config,
                                      const ProfilePhase *profile_phase);

/**
 * An experiment's evaluation, ready to run: everything up to (but not
 * including) the evaluation simulation — profiling, the §5.1 merge
 * filter, static selection, and construction of the combined
 * predictor. Splitting here lets the fused executor batch the
 * expensive evaluation sims of many prepared cells into one pass.
 */
struct PreparedEvaluation
{
    /** The combined predictor to evaluate. */
    std::unique_ptr<CombinedPredictor> combined;

    /** Number of branches given static hints. */
    std::size_t hintCount = 0;

    /** Branches simulated before evaluation (profiling + filtering). */
    Count preEvalBranches = 0;

    /** Whether pre-evaluation simulation work (a profiling phase run
     * here, if any) took the devirtualized path. */
    bool preEvalFastPath = true;

    /** Whether pre-evaluation simulation work ran the batch kernels
     * (vacuously true when no profiling simulation ran here). */
    bool preEvalSimd = true;

    /**
     * Scenario instrumentation (config.scenarioContexts > 0 only):
     * the evaluation run records its per-branch profile here, and the
     * sink — already attached to the combined predictor's tables —
     * gathers the per-context-pair collision matrix. Both feed
     * finishPreparedEvaluation()'s per-context derivation.
     */
    std::unique_ptr<ProfileDb> evalProfile;
    std::unique_ptr<ContextAliasSink> aliasSink;
};

/**
 * Run everything of an experiment over materialized traces up to the
 * evaluation simulation. Uses @p cached_profile when given; otherwise
 * runs the profiling phase from @p profile_buffer (a one-config
 * runProfilePhasesFusedReplay; the buffer may be null only when the
 * config needs no profile). Does not validate the config — the
 * experiment entry points and the matrix runner validate upstream.
 */
PreparedEvaluation prepareEvaluationReplay(
    const ReplayBuffer *profile_buffer, const ReplayBuffer &eval_buffer,
    const ExperimentConfig &config, const ProfilePhase *cached_profile);

/** Evaluation-phase SimOptions of @p config (for executing a
 * PreparedEvaluation, fused or otherwise). */
SimOptions evalSimOptions(const ExperimentConfig &config);

/**
 * Evaluation-phase SimOptions of a specific PreparedEvaluation:
 * evalSimOptions(config) plus the scenario instrumentation —
 * attaches @p prepared's eval profile for scenario cells. Use this
 * form whenever the prepared evaluation is at hand (the fused
 * executor does).
 */
SimOptions evalSimOptions(const ExperimentConfig &config,
                          const PreparedEvaluation &prepared);

/**
 * Assemble the ExperimentResult of an executed evaluation:
 * @p eval_stats from simulating prepared.combined under
 * evalSimOptions(config, prepared) over the evaluation buffer.
 * @p eval_buffer is only read for scenario cells (per-context
 * branch/instruction attribution scans the measured window); it may
 * be null otherwise.
 */
ExperimentResult finishPreparedEvaluation(
    const PreparedEvaluation &prepared, const ExperimentConfig &config,
    const SimStats &eval_stats, const ReplayBuffer *eval_buffer = nullptr);

/**
 * finishPreparedEvaluation() with the measured window's context split
 * already computed: @p context_split is contextSplitOf() the
 * evaluation buffer over [evalWarmupBranches, evalWarmupBranches +
 * eval_stats.branches). Read only for scenario cells; empty leaves
 * their branch and instruction counts at zero.
 */
ExperimentResult finishPreparedEvaluation(
    const PreparedEvaluation &prepared, const ExperimentConfig &config,
    const SimStats &eval_stats,
    const std::vector<ContextStats> &context_split);

/**
 * The branches and instructions each of @p contexts contexts owns in
 * records [@p begin, @p end) of @p buffer (the context id rides in the
 * PC's high bits; records of other contexts are skipped), every other
 * field zero. It depends on the buffer window alone, so scenario cells
 * measuring the same window can share one split.
 */
std::vector<ContextStats> contextSplitOf(const ReplayBuffer &buffer,
                                         Count begin, Count end,
                                         std::size_t contexts);

} // namespace bpsim

#endif // BPSIM_CORE_EXPERIMENT_HH
