/**
 * @file
 * Trace-driven simulation engine.
 *
 * Drives a predictor over a branch stream with the strict
 * predict/update/updateHistory protocol, gathers SimStats, and can
 * simultaneously populate a ProfileDb with per-branch outcome and
 * accuracy counts — which is exactly what the paper's phase-1
 * (selection) runs need.
 */

#ifndef BPSIM_CORE_ENGINE_HH
#define BPSIM_CORE_ENGINE_HH

#include <vector>

#include "core/sim_stats.hh"
#include "predictor/predictor.hh"
#include "profile/profile_db.hh"
#include "support/observe.hh"
#include "trace/branch_stream.hh"

namespace bpsim
{

class ReplayBuffer;

/** Options for one simulation run. */
struct SimOptions
{
    /** Stop after this many branches (0 = run the stream dry). */
    Count maxBranches = 0;

    /**
     * Branches simulated before statistics collection starts. The
     * predictor trains during warmup but mispredictions, collisions
     * and profile data are not recorded; maxBranches counts only the
     * measured window. Warmup removes cold-start noise when
     * comparing small measurement windows.
     */
    Count warmupBranches = 0;

    /**
     * Optional per-branch profile collector. Receives every outcome
     * and, for dynamically predicted branches, every prediction
     * result.
     */
    ProfileDb *profile = nullptr;

    /** Reset the predictor (tables + stats) before starting. */
    bool resetPredictor = true;

    /** Reset the stream before starting. */
    bool resetStream = true;

    /**
     * Optional run-level counter registry (observability). The
     * engine bumps engine.kernel_runs / engine.virtual_runs,
     * engine.branches and engine.warmup_branches once per simulation
     * run — never inside the per-branch loop — so attaching a
     * registry costs nothing on the hot path.
     */
    CounterRegistry *counters = nullptr;
};

/**
 * Run @p predictor over @p stream.
 *
 * Works for plain dynamic predictors and for CombinedPredictor; in
 * the latter case static/dynamic attribution in the stats is taken
 * from the combined predictor.
 */
SimStats simulate(BranchPredictor &predictor, BranchStream &stream,
                  const SimOptions &options = {});

/**
 * Run @p predictor over a materialized trace: simulateReplayFused()
 * over a pass of one sim.
 *
 * Semantically identical to simulate() over @p buffer.cursor() —
 * same stats, same profile contents, same final predictor state.
 * options.resetStream is meaningless here (the buffer is immutable)
 * and ignored.
 *
 * @param used_fast_path optionally receives whether a devirtualized
 *                       kernel ran (false = the virtual loop)
 * @param used_simd      optionally receives whether the batch
 *                       kernels ran (false = the record kernels or
 *                       the virtual loop)
 */
SimStats simulateReplay(BranchPredictor &predictor,
                        const ReplayBuffer &buffer,
                        const SimOptions &options = {},
                        bool *used_fast_path = nullptr,
                        bool *used_simd = nullptr);

class SiteIndex;

/**
 * One simulation of a fused replay pass: the predictor (with any
 * static-hint database and shift policy wrapped inside a
 * CombinedPredictor), its options, and the result slots
 * simulateReplayFused() fills.
 */
struct FusedSim
{
    /** The predictor to drive (not owned). */
    BranchPredictor *predictor = nullptr;

    /** Per-sim options; resetStream is ignored (the buffer is
     * immutable). */
    SimOptions options;

    /** Output: the run's statistics. */
    SimStats stats;

    /** Output: whether this sim ran a devirtualized kernel. */
    bool usedFastPath = false;

    /** Output: whether this sim ran the batch kernels (always false
     * when usedFastPath is false). */
    bool usedSimd = false;
};

/**
 * Run every sim of @p sims over @p buffer in one fused pass: the
 * buffer's records are visited block by block, and every sim steps
 * through each block before the pass moves on, so N predictor
 * configurations share one trace walk instead of N. This is the
 * engine's only replay entry; simulate() is its oracle.
 *
 * Each sim's results are bit-identical to simulate() over
 * @p buffer.cursor(): each sim advances its own predictor, history
 * and statistics through the same record sequence, and warmup and
 * maxBranches windows are honoured per sim. Which loop steps a sim
 * follows from two facts the engine observes, never from an option:
 *
 *  - a predictor (or a CombinedPredictor's dynamic component) whose
 *    concrete type the kernels visit (visitPredictor) runs
 *    devirtualized; anything else runs the virtual loop;
 *  - a visited type with batch kernels (hasBatchKernels) runs them,
 *    unless a ContextAliasSink is attached: the batch kernels do not
 *    report lookups to the sink, so such sims — and the types
 *    without batch kernels — run the record kernels.
 *
 * @p sites optionally carries the buffer's site enumeration, onto
 * whose dense site-indexed arrays the pass flattens static hints and
 * per-branch profile counts. When it is null and a sim has hints or
 * a profile, the pass builds one. When given it must have been built
 * from @p buffer.
 */
void simulateReplayFused(std::vector<FusedSim> &sims,
                         const ReplayBuffer &buffer,
                         const SiteIndex *sites = nullptr);

} // namespace bpsim

#endif // BPSIM_CORE_ENGINE_HH
