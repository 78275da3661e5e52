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
};

/**
 * Run @p predictor over @p stream, both reset first.
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
 *
 * @param used_fast_path optionally receives whether the batch
 *                       kernels ran (false = simulate() itself)
 * @param used_simd      optionally receives the same flag; kept for
 *                       the callers and records that report it
 *                       separately
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

    /** Per-sim options. */
    SimOptions options;

    /**
     * Optional profile of the sim's first prefixBranches measured
     * records (all of them when it measures fewer), recorded beside
     * options.profile, which covers the whole measured window. An
     * input like options.profile: the contents equal a profiling run
     * of the same predictor over that prefix alone, which is how a
     * cold evaluation sim can stand in for its profiling phase. Only a
     * sim of a kernel type may carry one, and it runs alone.
     */
    ProfileDb *prefixProfile = nullptr;

    /** Measured records prefixProfile covers. */
    Count prefixBranches = 0;

    /** Output: the run's statistics. */
    SimStats stats;

    /** Output: wall seconds spent stepping this sim through the pass,
     * timed per exec and block (or around its simulate() call); a
     * gang's time is apportioned by the records each member applied,
     * since each steps only the records its predictor sees. The pass's
     * setup and finish are not included. */
    double seconds = 0.0;

    /** Output: the part of seconds stepped up to the prefix boundary
     * (0 without a prefixProfile). */
    double prefixSeconds = 0.0;

    /** Output: whether this sim ran the batch kernels. */
    bool usedFastPath = false;

    /** Output: equal to usedFastPath, the batch kernels being the
     * only devirtualized path; runner records and checkpoints still
     * report it as their own field. */
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
 * follows from facts the engine observes, never from an option:
 *
 *  - a predictor (or a CombinedPredictor's dynamic component) whose
 *    concrete type the kernels visit (visitPredictor) runs the batch
 *    kernels; any other sim runs simulate() over @p buffer.cursor()
 *    after the walk, timed into its seconds, and must have no prefix
 *    profile;
 *  - a visited sim with a profile, a prefix profile or a
 *    ContextAliasSink runs alone (the solo shape, with its hints if it
 *    has any); other visited sims sharing a type, replay window and
 *    shift policy run as one gang when the pass has a site index, else
 *    each alone;
 *  - each member of a kernel exec steps its own stream of the records
 *    its predictor sees: under NoShift a hinted record touches neither
 *    the dynamic tables nor the history, so it never reaches the
 *    kernels, and gang members apply their streams in lockstep. The
 *    hinted records' statistics and profile outcomes are settled when
 *    the pass finishes, from the window's per-site outcome totals
 *    (SiteIndex::outcomesOver, counted once per window and index);
 *  - a sim's segments split at its prefix boundary as they split at
 *    the warmup boundary: the prefix profile is complete there, and a
 *    sim with no profile or sink of its own steps the rest without
 *    profile counts (the plain shape, or a one-member gang for a type
 *    with per-site state).
 *
 * @p sites optionally carries the buffer's site enumeration, onto
 * whose dense site-indexed arrays the pass flattens static hints,
 * per-branch profile counts and per-site predictor state (agree's
 * bias bits). When it is null and a visited sim has hints, a profile,
 * a sink or per-site state, the pass builds one. When given it must
 * have been built from @p buffer.
 */
void simulateReplayFused(std::vector<FusedSim> &sims,
                         const ReplayBuffer &buffer,
                         const SiteIndex *sites = nullptr);

} // namespace bpsim

#endif // BPSIM_CORE_ENGINE_HH
