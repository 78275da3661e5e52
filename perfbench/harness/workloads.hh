/**
 * @file
 * The four perfbench workloads and what they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "core.hh"
#include "core/experiment.hh"

namespace perfbench
{

/** Command-line settings of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch directory for sockets, state and span files. */
    std::string workDir;
};

/** Is @p name one of the matrix workloads? */
bool isMatrixWorkload(const std::string &name);

/** Run a matrix workload; returns the process exit code. */
int runMatrixWorkload(const RunArgs &args);

/** Run service_mix; returns the process exit code. */
int runServiceWorkload(const RunArgs &args);

/**
 * Do two results agree in every deterministic field: statistics,
 * hint count, simulated branches, per-context statistics and the
 * interference matrix?
 */
bool sameResult(const bpsim::ExperimentResult &a,
                const bpsim::ExperimentResult &b);

/** Do two results agree on mispredictions, the collision split and
 * the hint count (what the virtual oracle is checked on)? */
bool sameOracleFields(const bpsim::ExperimentResult &a,
                      const bpsim::ExperimentResult &b);

/**
 * The summary statistic of a run's repeated timed regions: their mean,
 * i.e. the run's total timed host time per repetition. The host
 * alternates between a fast state and one about 1.5x slower, per CPU
 * and over episodes of seconds to minutes; the mean moves smoothly with
 * the share of the run each state covered, where the median and lower
 * quantiles jump between the two states. Set-up times use the median.
 */
double center(const std::vector<double> &samples);

/** "a b c" rendering of samples for the report's raw lines. */
std::string joinSamples(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
