/**
 * @file
 * The traced decomposition: the work of ExperimentRunner::run(), done
 * again through the simulator's public per-layer calls with a span
 * around each, plus the per-layer probes of the traced run.
 *
 * The decomposition follows the runner's one-thread fused plan: one
 * fused profiling pass per buffer over the unique profiling phases,
 * then per buffer a prepare per cell, one fused evaluation pass and a
 * finish per cell. Its results must equal run()'s exactly; the caller
 * checks that.
 */

#ifndef PERFBENCH_DECOMPOSE_HH
#define PERFBENCH_DECOMPOSE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "trace/replay_buffer.hh"
#include "workload/workload_source.hh"

namespace perfbench
{

/** A matrix: workload sources and cells over them (Ref input only). */
struct Plan
{
    struct Source
    {
        std::function<std::unique_ptr<bpsim::WorkloadSource>()> make;
        bool scenario = false;
    };

    struct Cell
    {
        std::size_t source = 0;
        bpsim::ExperimentConfig config;
    };

    std::vector<Source> sources;
    std::vector<Cell> cells;

    /** Branch window of the per-predictor engine probes. */
    bpsim::Count probeBranches = 0;
};

/** A runner holding @p plan's sources and cells (one thread, the
 * runner's defaults). */
std::unique_ptr<bpsim::ExperimentRunner> buildRunner(const Plan &plan);

/** Samples of every per-layer metric, gathered across repetitions. */
struct LayerSamples
{
    std::vector<double> materializeS;
    std::vector<double> materializeNsPerBranch;
    std::vector<double> scenarioMaterializeNsPerBranch;
    double replayBytes = 0.0;

    std::vector<double> profilePhaseS;
    bpsim::Count cacheHits = 0;
    bpsim::Count cacheMisses = 0;

    std::vector<double> selectS;
    bpsim::Count hints = 0; ///< summed over selectCalls
    bpsim::Count selectCalls = 0;

    std::map<std::string, std::vector<double>> plainNsPerBranch;
    std::vector<double> fusedNsPerBranch;
    bpsim::Count sims = 0;
    bpsim::Count fastSims = 0;
    bpsim::Count simdSims = 0;

    std::vector<double> scenarioAttributionNsPerBranch;
    bpsim::Count scenarioEvals = 0;
    bpsim::Count scenarioSimdEvals = 0;

    std::vector<double> overheadS;
    std::vector<double> recordMs;
    std::vector<double> loadMs;

    /** Summed spans of the decomposition's run() work, per rep. */
    std::vector<double> tracedWallS;
    /** run() of the same work, untraced, per rep. */
    std::vector<double> untracedWallS;
};

/** What one decomposition produced. */
struct Decomposition
{
    std::vector<std::unique_ptr<bpsim::WorkloadSource>> sources;
    std::vector<bpsim::ReplayBuffer> buffers;
    std::vector<bpsim::ExperimentResult> results;
    std::vector<char> usedKernel;
    std::vector<char> usedSimd;
    bpsim::Count profileCacheHits = 0;
    bpsim::Count profileCacheMisses = 0;

    /** Summed spans of materialization. */
    double materializeSeconds = 0.0;

    /** Summed spans of the work run() does after materializing. */
    double executeSeconds = 0.0;
};

/**
 * Run @p plan through the per-layer calls, spanning each one and
 * adding its samples to @p samples. Also runs selectStatic on every
 * cell's profile and, for scenario cells, the attribution probe.
 */
Decomposition decompose(const Plan &plan, LayerSamples &samples);

/**
 * Does @p decomposition reproduce @p run exactly: every cell result,
 * the kernel and SIMD cell counts, the profile cache accounting and
 * the branch total? Describes the first difference in @p why.
 */
bool matchesRun(const Decomposition &decomposition,
                const bpsim::MatrixResult &run, std::string &why);

/**
 * Time simulateReplay of one plain member of every probed predictor
 * over every buffer of @p decomposition.
 */
void probeEngines(const Plan &plan, const Decomposition &decomposition,
                  LayerSamples &samples);

/**
 * Record every cell of @p decomposition into a scratch checkpoint at
 * @p path, one SweepCheckpoint::record per cell, then load it back;
 * both spanned (the load sampled only when @p measure_load). Returns
 * false when the reloaded file lacks a record.
 */
bool probeCheckpoint(const Plan &plan,
                     const Decomposition &decomposition,
                     const std::string &path, LayerSamples &samples,
                     bool measure_load = true);

/** Add every per-layer metric of @p samples to @p report. */
void reportLayers(const LayerSamples &samples, Report &report);

/** Predictors the engine probe covers, in report order. */
const std::vector<std::string> &probedPredictors();

} // namespace perfbench

#endif // PERFBENCH_DECOMPOSE_HH
