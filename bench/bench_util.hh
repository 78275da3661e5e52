/**
 * @file
 * Small shared helpers for the table/figure reproduction benches.
 */

#ifndef BPSIM_BENCH_BENCH_UTIL_HH
#define BPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "obs/run_journal.hh"
#include "support/args.hh"
#include "workload/specint.hh"

namespace bpsim::bench
{

/** Branches simulated per evaluation run in the benches. */
constexpr Count evalBranches = 2'000'000;

/** Branches simulated per profiling (selection-phase) run. */
constexpr Count profileBranches = 1'000'000;

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
 * Parse the shared bench options (--threads, --json, --journal and
 * the sweep controls). @p default_json names the JSON file written
 * when --json is not given; pass "" to disable by default.
 */
inline BenchOptions
parseBenchOptions(int argc, char **argv, const char *tool,
                  const char *default_json = "")
{
    ArgParser args(tool);
    addThreadsOption(args);
    args.addOption("json", default_json,
                   "write per-cell timing JSON to this path "
                   "(empty = disabled)");
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
 * (the runner and writeJournal() accept null). The runner records the
 * run and its phases.
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
    if (journal == nullptr)
        return;
    const std::string metrics = journal->writeFiles(options.journalPath);
    std::printf("journal: %s\nmetrics: %s\n",
                options.journalPath.c_str(), metrics.c_str());
}

/** Has @p cell a result in this process? Not when another shard owns
 * it (--shard) and not when it failed. */
inline bool
hasResult(const CellResult &cell)
{
    return !cell.shardSkipped && cell.ok();
}

/**
 * One table entry: @p value printed with the printf @p format when
 * every cell in @p from has a result here, "-" otherwise. Print it
 * with "%Ns" where the table used "%N<conversion>": the padding is
 * the same.
 */
template <typename Value>
std::string
formatEntry(std::initializer_list<std::reference_wrapper<const CellResult>>
                from,
            const char *format, Value value)
{
    for (const CellResult &cell : from) {
        if (!hasResult(cell))
            return "-";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/** A cell's MISP/KI as "%.2f", or "-" without a result here. */
inline std::string
formatMispKi(const CellResult &cell)
{
    return formatEntry({cell}, "%.2f", cell.result.stats.mispKi());
}

/** MISP/KI improvement of @p with over @p base (positive = better) as
 * "+x.x%", "n/a" when @p base has none to improve, or "-" when either
 * cell has no result here. */
inline std::string
formatImprovement(const CellResult &base, const CellResult &with)
{
    if (!hasResult(base) || !hasResult(with))
        return "-";
    const double base_misp_ki = base.result.stats.mispKi();
    if (base_misp_ki == 0.0)
        return "  n/a";
    const double pct =
        100.0 * (base_misp_ki - with.result.stats.mispKi()) / base_misp_ki;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+5.1f%%", pct);
    return buf;
}

/**
 * Finish a runner bench once its tables are printed: write the runner
 * JSON (--json) and the journal (--journal), then name each failed
 * cell and its error on stderr. Returns the exit status: 1 when a cell
 * failed, as `bpsim_cli sweep` does, 0 otherwise.
 */
inline int
finishBench(const BenchOptions &options, const char *bench,
            const ExperimentRunner &runner, const MatrixResult &result,
            const obs::RunJournal *journal)
{
    if (!options.jsonPath.empty())
        writeRunnerJson(options.jsonPath, bench, runner, result);
    writeJournal(options, journal);
    int status = 0;
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CellResult &cell = result.cells[i];
        if (cell.ok())
            continue;
        std::fprintf(stderr, "%s: cell '%s' failed: %s\n", bench,
                     runner.cell(i).label.c_str(),
                     cell.error->describe().c_str());
        status = 1;
    }
    return status;
}

} // namespace bpsim::bench

#endif // BPSIM_BENCH_BENCH_UTIL_HH
