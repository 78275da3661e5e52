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
#include <functional>
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
#include "support/observe.hh"
#include "workload/synthetic_program.hh"

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
     * (tage, perceptron, the extensions). makeDynamic still takes
     * precedence over both. The name joins sizeBytes in the cell's
     * identity (profile-cache key, checkpoint fingerprint, default
     * label) exactly like a kind does.
     */
    std::string predictor;

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
     * Optional factory for the dynamic component. When set it
     * overrides kind/sizeBytes, letting matrix cells carry custom
     * predictor constructions (e.g. history-length sweeps) that the
     * kind enum cannot express. Called once per phase.
     */
    std::function<std::unique_ptr<BranchPredictor>()> makeDynamic;

    /**
     * Cache identity of a makeDynamic factory. The runner's
     * profile-phase cache cannot see through a std::function, so
     * cells carrying one are uncacheable unless they also set a key
     * that uniquely names the constructed predictor (e.g.
     * "gshare:h12:8192"). Cells with equal keys must construct
     * behaviourally identical predictors. Ignored when makeDynamic
     * is empty; kind/sizeBytes identify the predictor then.
     */
    std::string dynamicKey;

    /**
     * Optional counter registry the engine reports run-level counters
     * into (see SimOptions::counters). Pure observability: not part
     * of the experiment's identity, ignored by the runner's
     * profile-cache key, and never read on the per-branch path.
     */
    CounterRegistry *counters = nullptr;

    /**
     * Number of contexts in the cell's workload when it is a
     * multi-context scenario (scenario/scenario.hh), 0 for ordinary
     * single-program cells. When positive, the evaluation attaches a
     * per-branch profile and a ContextAliasSink so the result carries
     * per-context statistics and the NxN interference matrix. With
     * the sink attached the engine runs the record kernels (the
     * batch kernels bypass the tag path the sink observes); aggregate
     * stats stay bit-identical.
     */
    std::size_t scenarioContexts = 0;

    /**
     * Fail-fast validation: returns a config_invalid Error naming the
     * offending field when the config cannot run (non-power-of-two
     * table budget, zero-length streams, out-of-range tunables).
     * Experiment entry points raise() it; the matrix runner turns it
     * into a failed cell instead of simulating garbage.
     */
    Result<void> validate() const;
};

/**
 * The predictor-identity component shared by the runner's
 * profile-cache key, the profile artifact key, the checkpoint
 * fingerprint and the default cell label: "custom:<dynamicKey>" for
 * keyed makeDynamic cells, "<name>:<sizeBytes>" otherwise (the
 * registered name when config.predictor is set, the paper kind name
 * when not). Empty for keyless makeDynamic cells — such cells are
 * uncacheable and unfingerprintable. Centralized here so a new
 * predictor needs zero identity-site edits.
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
};

/**
 * Run the profiling phases of several configs over one shared buffer
 * in a single fused pass (simulateReplayFused). Each outcome is
 * bit-identical to runProfilePhase() of the matching config over a
 * cursor of @p profile_buffer; @p sites is the buffer's site index
 * (built by the pass when null).
 */
std::vector<FusedProfileOutcome> runProfilePhasesFusedReplay(
    const ReplayBuffer &profile_buffer,
    const std::vector<const ExperimentConfig *> &configs,
    const SiteIndex *sites = nullptr);

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
 * Run the two-phase experiment on @p program. The program's input
 * set is switched as the config requires; it is left on
 * config.evalInput afterwards.
 */
ExperimentResult runExperiment(SyntheticProgram &program,
                               const ExperimentConfig &config);

/**
 * Stream-based experiment core: @p profile_stream must replay
 * config.profileInput and @p eval_stream config.evalInput; both are
 * reset before each use, so replay-buffer cursors and live programs
 * work alike. The streams must hold at least profileBranches /
 * evalBranches records respectively (and the eval stream at least
 * profileBranches when filterUnstable applies) for results to be
 * identical to the regenerating path.
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
 * Convenience: pure dynamic baseline of @p kind / @p size_bytes over
 * @p eval_branches branches of @p program under @p input.
 */
SimStats runBaseline(SyntheticProgram &program, PredictorKind kind,
                     std::size_t size_bytes, Count eval_branches,
                     InputSet input = InputSet::Ref);

} // namespace bpsim

#endif // BPSIM_CORE_EXPERIMENT_HH
