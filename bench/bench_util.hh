/**
 * @file
 * Small shared helpers for the table/figure reproduction benches.
 */

#ifndef BPSIM_BENCH_BENCH_UTIL_HH
#define BPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/simd.hh"
#include "obs/run_journal.hh"
#include "support/args.hh"
#include "workload/specint.hh"

namespace bpsim::bench
{

/** Branches simulated per evaluation run in the benches. */
constexpr Count evalBranches = 2'000'000;

/** Branches simulated per profiling (selection-phase) run. */
constexpr Count profileBranches = 1'000'000;

/**
 * One-thread wall time of the fig7_12 matrix on the current code,
 * measured on the reference container (kept in sync with the
 * committed BENCH_runner.json). The default --baseline-seconds, so
 * speedup_vs_baseline honestly tracks "vs a current serial run"
 * rather than a long-retired regenerating path, unless a run
 * overrides it with a freshly measured value.
 */
constexpr double seedBaselineSeconds = 3.5;

/**
 * One-thread wall time of the fig_multicontext matrix on the
 * reference container. Scenario cells run the record kernels with
 * per-branch attribution attached (the batch kernels bypass the tag
 * path the attribution reads), so this baseline is measured on that
 * path, not the batch kernels.
 */
constexpr double multicontextBaselineSeconds = 13.5;

/** Shared experiment defaults. */
inline ExperimentConfig
baseConfig(PredictorKind kind, std::size_t size_bytes,
           StaticScheme scheme)
{
    ExperimentConfig config;
    config.kind = kind;
    config.sizeBytes = size_bytes;
    config.scheme = scheme;
    config.profileBranches = profileBranches;
    config.evalBranches = evalBranches;
    return config;
}

/** Options shared by the runner-based benches. */
struct BenchOptions
{
    /** Worker threads (already resolved; never 0). */
    unsigned threads = 1;

    /** Per-cell timing JSON output path; empty = disabled. */
    std::string jsonPath;

    /** Externally measured serial-path wall time (0 = unknown). */
    double baselineSeconds = 0.0;

    /** Run-journal JSONL output path; empty = journaling disabled.
     * The metrics summary lands next to it (see
     * obs::RunJournal::metricsPathFor()). */
    std::string journalPath;

    /**
     * Evaluation warmup branches simulated ahead of the measured
     * window. Counted exactly once in each cell's simulatedBranches
     * (the experiment core owns that accounting), so the wall-time
     * and throughput reporting never double-counts warmup — and like
     * every option, a repeated --warmup keeps only the last value.
     */
    Count warmupBranches = 0;

    /** Sweep checkpoint path (--checkpoint; empty = off). */
    std::string checkpointPath;

    /** Restore finished cells from the checkpoint (--resume). */
    bool resume = false;

    /** Extra attempts for transient cell failures (--retries). */
    unsigned retries = 0;

    /** Abort the sweep at the first failed cell (--fail-fast). */
    bool failFast = false;

    /** Content-addressed artifact cache directory (--cache-dir;
     * empty = off). Shared safely by concurrent shard processes. */
    std::string cacheDir;

    /** 1-based shard index (--shard i/N; 1/1 = whole matrix). */
    unsigned shardIndex = 1;

    /** Total shards the matrix is split across. */
    unsigned shardCount = 1;
};

/**
 * Parse the shared bench options (--threads / --json /
 * --baseline-seconds). @p default_json names the JSON file written
 * when --json is not given; pass "" to disable by default.
 * @p default_baseline seeds --baseline-seconds (benches tracking the
 * committed baseline pass seedBaselineSeconds; 0 leaves the JSON's
 * speedup_vs_baseline off unless the flag is given).
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv, const char *tool,
                  const char *default_json = "",
                  double default_baseline = 0.0)
{
    char default_baseline_str[32];
    std::snprintf(default_baseline_str, sizeof(default_baseline_str),
                  "%g", default_baseline);

    ArgParser args(tool);
    addThreadsOption(args);
    args.addOption("json", default_json,
                   "write per-cell timing JSON to this path "
                   "(empty = disabled)");
    args.addOption("baseline-seconds", default_baseline_str,
                   "serial-path wall time measured externally; "
                   "recorded in the JSON for speedup tracking");
    args.addOption("journal", "",
                   "write the structured run journal (JSONL) to this "
                   "path; its metrics summary lands next to it "
                   "(empty = disabled)");
    args.addOption("warmup", "0",
                   "evaluation warmup branches before the measured "
                   "window (repeating the option keeps the last "
                   "value)");
    args.addOption("checkpoint", "",
                   "persist each finished cell to this JSONL "
                   "checkpoint (empty = disabled)");
    args.addFlag("resume",
                 "restore finished cells from --checkpoint instead "
                 "of re-running them");
    args.addOption("retries", "0",
                   "extra attempts for transient "
                   "(resource_exhausted) cell failures");
    args.addFlag("fail-fast",
                 "abort the sweep at the first failed cell");
    args.addOption("shard", "",
                   "execute only shard i of N (1-based \"i/N\"); "
                   "cells are partitioned by fingerprint hash");
    args.addOption("cache-dir", "",
                   "content-addressed artifact cache directory "
                   "shared across processes (empty = disabled)");
    args.parse(argc, argv);

    BenchOptions options;
    options.threads = threadsFromArgs(args);
    options.jsonPath = args.get("json");
    options.baselineSeconds = args.getDouble("baseline-seconds");
    options.journalPath = args.get("journal");
    options.warmupBranches = args.getUint("warmup");
    options.checkpointPath = args.get("checkpoint");
    options.resume = args.getFlag("resume");
    options.retries = static_cast<unsigned>(args.getUint("retries"));
    options.failFast = args.getFlag("fail-fast");
    options.cacheDir = args.get("cache-dir");
    if (!args.get("shard").empty()) {
        const Result<std::pair<unsigned, unsigned>> shard =
            parseShardSpec(args.get("shard"));
        if (!shard.ok()) {
            std::fprintf(stderr, "%s: error %s\n", tool,
                         shard.error().describe().c_str());
            std::exit(usageExitCode);
        }
        options.shardIndex = shard.value().first;
        options.shardCount = shard.value().second;
    }
    if (options.resume && options.checkpointPath.empty()) {
        std::fprintf(stderr,
                     "%s: error [config_invalid] --resume needs "
                     "--checkpoint\n",
                     tool);
        std::exit(usageExitCode);
    }
    return options;
}

/**
 * Journal for a bench run: constructed only when --journal was given
 * (the runner and the write helpers all accept null). The runner
 * records run_begin/run_end itself; manual benches use BenchJournal
 * below instead.
 */
inline std::unique_ptr<obs::RunJournal>
makeJournal(const BenchOptions &options, std::string label)
{
    if (options.journalPath.empty())
        return nullptr;
    return std::make_unique<obs::RunJournal>(std::move(label));
}

/** RunnerOptions carrying the bench's thread count, journal and
 * fault-tolerance knobs (checkpoint/resume/retries/fail-fast). */
inline RunnerOptions
runnerOptions(const BenchOptions &options,
              obs::RunJournal *journal = nullptr)
{
    RunnerOptions runner;
    runner.threads = options.threads;
    runner.journal = journal;
    runner.retries = options.retries;
    runner.failFast = options.failFast;
    runner.checkpointPath = options.checkpointPath;
    runner.resume = options.resume;
    runner.cacheDir = options.cacheDir;
    runner.shardIndex = options.shardIndex;
    runner.shardCount = options.shardCount;
    return runner;
}

/** Write the journal JSONL + metrics files (no-op when off). */
inline void
writeJournal(const BenchOptions &options,
             const obs::RunJournal *journal)
{
    if (journal == nullptr || options.journalPath.empty())
        return;
    journal->writeJsonl(options.journalPath);
    const std::string metrics =
        obs::RunJournal::metricsPathFor(options.journalPath);
    journal->writeMetrics(metrics);
    std::printf("journal: %s\nmetrics: %s\n",
                options.journalPath.c_str(), metrics.c_str());
}

/**
 * Journal wiring for the manual (non-runner) benches: opens the
 * journal when --journal was given, records run_begin immediately and
 * run_end from finish(), and brackets named sections of the bench
 * body as phase events so the table passes show up in the timeline.
 */
class BenchJournal
{
  public:
    BenchJournal(const BenchOptions &options, std::string label)
        : journalPath(options.journalPath)
    {
        if (journalPath.empty())
            return;
        journal =
            std::make_unique<obs::RunJournal>(std::move(label));
        const SimdLevel level = resolveSimdLevel();
        journal->record(
            obs::EventKind::RunBegin, 0, journal->runLabel(),
            {obs::Field::u64("threads", options.threads),
             obs::Field::str("dispatch", simdLevelName(level)),
             obs::Field::u64("simd_width", simdWidth(level))});
    }

    /** The journal, null when --journal was not given. */
    obs::RunJournal *get() { return journal.get(); }

    /** Counter registry for SimOptions/ExperimentConfig wiring
     * (null when journaling is off). */
    CounterRegistry *
    counters()
    {
        return journal ? &journal->counters() : nullptr;
    }

    /** RAII phase bracket: phase_begin now, phase_end (with the
     * elapsed seconds) when the section leaves scope. */
    class Section
    {
      public:
        Section(BenchJournal &parent, std::string name)
            : journal(parent.journal.get()), name(std::move(name)),
              timer(journal ? &journal->timers() : nullptr,
                    "bench." + this->name)
        {
            if (journal != nullptr)
                journal->record(obs::EventKind::PhaseBegin, 0,
                                this->name);
        }

        Section(const Section &) = delete;
        Section &operator=(const Section &) = delete;

        ~Section()
        {
            if (journal != nullptr) {
                journal->record(
                    obs::EventKind::PhaseEnd, 0, name,
                    {obs::Field::f64("seconds", timer.stop())});
            }
        }

      private:
        obs::RunJournal *journal;
        std::string name;
        ScopedTimer timer;
    };

    Section section(std::string name) { return {*this, std::move(name)}; }

    /** Record run_end and write the JSONL + metrics files. */
    void
    finish()
    {
        if (journal == nullptr)
            return;
        journal->record(
            obs::EventKind::RunEnd, 0, journal->runLabel(),
            {obs::Field::f64("seconds",
                             journal->secondsSinceStart())});
        journal->writeJsonl(journalPath);
        const std::string metrics =
            obs::RunJournal::metricsPathFor(journalPath);
        journal->writeMetrics(metrics);
        std::printf("journal: %s\nmetrics: %s\n", journalPath.c_str(),
                    metrics.c_str());
    }

  private:
    std::string journalPath;
    std::unique_ptr<obs::RunJournal> journal;
};

/** Percentage improvement (positive = better) formatted as "+x.x%". */
inline std::string
formatImprovement(double base_misp_ki, double with_misp_ki)
{
    if (base_misp_ki == 0.0)
        return "  n/a";
    const double pct =
        100.0 * (base_misp_ki - with_misp_ki) / base_misp_ki;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+5.1f%%", pct);
    return buf;
}

} // namespace bpsim::bench

#endif // BPSIM_BENCH_BENCH_UTIL_HH
