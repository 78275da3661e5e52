/**
 * @file
 * Parallel experiment-matrix runner over materialized replay buffers.
 *
 * The benches walk a program × predictor × scheme × size matrix whose
 * cells are independent: each owns its predictor, profile and replay
 * cursors, so the matrix is embarrassingly parallel. The runner
 *
 *  1. materializes each program's branch stream once per input set
 *     into a ReplayBuffer (instead of re-running CFG/behaviour
 *     generation for every cell),
 *  2. runs each unique profiling phase once and shares it read-only
 *     with every cell that needs it; a phase whose unhinted twin cell
 *     evaluates the same records from a cold start rides in that
 *     cell's sim, which the profile stage runs to the end,
 *  3. steps the cells sharing an evaluation buffer — and the
 *     profiling phases sharing a profile buffer — through one fused
 *     pass per group (simulateReplayFused); a lone cell is a
 *     one-member group, and groups are chunked across a work-stealing
 *     thread pool, and
 *  4. records per-cell wall time and branches/sec, emitted as JSON so
 *     the perf trajectory is tracked across PRs. A cell's share of its
 *     group's pass is the time its own exec measured stepping
 *     (FusedSim::seconds).
 *
 * run() is a fixed sequence of stages: plan (checkpoint, shards,
 * validation, restored cells, the profile-phase plan), materialize,
 * profile, execute and aggregate. The run is one obs::Span and each
 * working stage one phase span inside it.
 *
 * Determinism contract: a cell's result is a pure function of its
 * replay buffers and its config — workers share only immutable
 * buffers and write to disjoint result slots — so results are
 * bit-identical to the serial path at any thread count.
 *
 * Fault tolerance: a failing cell no longer takes down the sweep.
 * Worker exceptions are captured per task (never std::terminate), a
 * failed cell becomes a CellResult carrying its Error, transient
 * (resource_exhausted) failures retry up to RunnerOptions::retries
 * times, and an optional JSONL checkpoint persists each finished cell
 * under a deterministic config fingerprint so an interrupted sweep
 * resumes where it died with bit-identical deterministic results.
 */

#ifndef BPSIM_CORE_RUNNER_HH
#define BPSIM_CORE_RUNNER_HH

#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "obs/run_journal.hh"
#include "support/args.hh"
#include "support/error.hh"
#include "trace/replay_buffer.hh"
#include "workload/synthetic_program.hh"
#include "workload/workload_source.hh"

namespace bpsim
{

/**
 * Resolve a worker-thread count: an explicit @p requested value wins,
 * then the BPSIM_THREADS environment variable, then the hardware
 * concurrency (minimum 1). Hardened against garbage: an unparseable
 * or zero BPSIM_THREADS falls back to the hardware count with a
 * stderr warning, and absurd values (> maxResolvedThreads) from
 * either source are clamped with a warning — never fatal, never
 * silently wrong.
 */
unsigned resolveThreadCount(unsigned requested = 0);

/** Upper clamp of resolveThreadCount() (oversubscription guard). */
inline constexpr unsigned maxResolvedThreads = 512;

/** Declare the shared --threads option on @p args. */
void addThreadsOption(ArgParser &args);

/** Read the --threads option declared by addThreadsOption(). */
unsigned threadsFromArgs(const ArgParser &args);

/**
 * A pool for coarse independent tasks. Each worker claims the next
 * unclaimed task in index order until none is left, so a straggler
 * holds up only its own worker.
 */
class TaskPool
{
  public:
    /** @param threads worker count (0 = resolveThreadCount()). */
    explicit TaskPool(unsigned threads = 0);

    unsigned threadCount() const { return workers; }

    /**
     * Run every task to completion; tasks must be independent. Each
     * worker sets its obs::workerIndex(), so journal events name the
     * worker that recorded them. A throwing task never terminates the
     * process: its exception is captured, the pool drains every
     * remaining task, and the first captured exception (in task
     * order, so deterministic at any thread count) is rethrown once
     * all workers have joined.
     */
    void run(std::vector<std::function<void()>> tasks);

    /**
     * Exception-safe run(): per-task exception capture into result
     * slots. Slot i holds the exception task i threw (null when it
     * completed); the pool always drains every task and never
     * rethrows.
     */
    std::vector<std::exception_ptr>
    runCollect(std::vector<std::function<void()>> tasks);

    /** Run fn(0) .. fn(n-1) across the pool; rethrows the first
     * failure (by index) after every iteration ran. */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn)
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            tasks.push_back([i, &fn] { fn(i); });
        run(std::move(tasks));
    }

  private:
    unsigned workers;
};

struct CellResult;

/** Runner construction options. */
struct RunnerOptions
{
    /** Worker threads (0 = resolveThreadCount()). */
    unsigned threads = 0;

    /**
     * Optional run journal. When set, run() records the structured
     * event stream (run/phase spans, per-profile-phase and per-cell
     * events with timing, path-taken flags and stat snapshots), feeds
     * the journal's timer registry, and attaches its counter registry
     * to every cell's engine runs. Purely additive: results are
     * identical with or without a journal.
     */
    obs::RunJournal *journal = nullptr;

    /**
     * Extra attempts granted to a cell (or shared profiling phase)
     * whose failure is transient (resource_exhausted). Non-transient
     * failures — bad config, internal errors — never retry.
     */
    unsigned retries = 0;

    /**
     * Abort the sweep at the first failed cell: cells not yet started
     * are marked failed ("skipped: fail-fast") without executing.
     * Off, the default, runs every cell and reports all failures.
     */
    bool failFast = false;

    /**
     * JSONL checkpoint path (empty = no checkpointing). Every
     * successfully finished cell is persisted under its deterministic
     * config fingerprint via an atomic rewrite, so a killed sweep
     * loses at most the cells in flight.
     */
    std::string checkpointPath;

    /**
     * Load the checkpoint before running and restore finished cells
     * from it instead of re-executing them. The merged MatrixResult
     * is bit-identical to an uninterrupted run in every deterministic
     * field (stats, hints, branch totals, cache accounting); only
     * wall-time fields differ. Requires checkpointPath.
     */
    bool resume = false;

    /**
     * Directory of the content-addressed artifact cache (empty = no
     * cache). Materialized replay buffers and executed profiling
     * phases are persisted under fingerprint-derived names and mapped
     * back read-only (mmap MAP_SHARED), so concurrent shard processes
     * share one physical copy of each buffer and a warm run
     * materializes and profiles nothing. Results are bit-identical
     * with the cache cold, warm or absent; a corrupt artifact is
     * journalled and regenerated, never fatal.
     */
    std::string cacheDir;

    /**
     * 1-based shard to execute out of shardCount. Cells are
     * partitioned by the FNV-1a hash of their deterministic config
     * fingerprint (shardOfFingerprint), so N cooperating processes
     * given the same matrix and i/N specs execute disjoint,
     * deterministic, roughly balanced slices. Out-of-shard cells are
     * marked CellResult::shardSkipped and consume no work.
     */
    unsigned shardIndex = 1;

    /** Total shards the matrix is split across (1 = no sharding). */
    unsigned shardCount = 1;

    /**
     * Cooperative cancellation token, polled before each cell (and
     * each shared profiling phase) starts. Once it returns true,
     * work not yet started is marked failed with a Cancelled error
     * instead of executing; work already in flight runs to
     * completion and is checkpointed normally, so a cancelled sweep
     * leaves a resumable checkpoint covering everything it finished.
     * Must be thread-safe (workers poll it concurrently) and
     * monotonic (once true, stays true). Null = never cancelled.
     */
    std::function<bool()> cancel;

    /**
     * Progress hook, invoked once per in-shard cell when its outcome
     * is known — executed, restored or failed — with the cell index
     * and its final CellResult. Called from worker threads, possibly
     * concurrently; the callee synchronizes. Null = no hook. Purely
     * observational: results are identical with or without it.
     */
    std::function<void(std::size_t, const CellResult &)>
        onCellFinished;
};

/**
 * Parse a 1-based "i/N" shard spec ("2/4") into {shardIndex,
 * shardCount}. config_invalid on malformed input, zero values, or
 * index > count.
 */
Result<std::pair<unsigned, unsigned>>
parseShardSpec(const std::string &spec);

/** One cell of the experiment matrix. */
struct MatrixCell
{
    /** Index of the program the cell runs on. */
    std::size_t programIndex = 0;

    /** Full experiment description. */
    ExperimentConfig config;

    /** Display label ("program/predictor:bytes/scheme" by default). */
    std::string label;
};

/** Result and timing of one cell. */
struct CellResult
{
    /** The cell's experiment outcome. */
    ExperimentResult result;

    /** Wall time of the cell's own simulation work: its preparation
     * plus the measured time its sim stepped in the fused pass
     * (excludes any shared profiling phase the cell consumed, a
     * carrier's steps up to its phase's prefix boundary, and the
     * pass's shared setup). */
    double wallSeconds = 0.0;

    /** Every simulation of the cell ran the devirtualized kernels. */
    bool usedKernel = false;

    /** Every simulation of the cell ran the batch kernels (always
     * false when usedKernel is false). */
    bool usedSimd = false;

    /** The cell consumed a shared profiling phase instead of running
     * its own. */
    bool profileCached = false;

    /** The cell was restored from a checkpoint, not executed. */
    bool restored = false;

    /** The cell belongs to another shard and was not executed here
     * (result slot kept so cell indices stay matrix-stable). */
    bool shardSkipped = false;

    /** Execution attempts made (0 for restored/skipped cells, > 1
     * when transient failures were retried). */
    unsigned attempts = 0;

    /** The failure that ended the cell; empty on success. */
    std::optional<Error> error;

    /** Did the cell produce a usable result? */
    bool ok() const { return !error.has_value(); }

    /** Simulated branch throughput of the cell. */
    double
    branchesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(result.simulatedBranches) /
                         wallSeconds
                   : 0.0;
    }
};

/** Aggregate outcome of a matrix run. */
struct MatrixResult
{
    /** Per-cell results, in the order cells were added. */
    std::vector<CellResult> cells;

    /** Worker threads used. */
    unsigned threads = 1;

    /** Wall time spent materializing replay buffers. */
    double materializeSeconds = 0.0;

    /** Sum of the individual shared profiling runs' wall times (what
     * they would cost serially). */
    double profileSeconds = 0.0;

    /** Cells served by an already-run profiling phase. */
    Count profileCacheHits = 0;

    /** Unique profiling phases executed for the cache. */
    Count profileCacheMisses = 0;

    /** Cells whose simulations all ran the devirtualized kernels. */
    Count kernelCells = 0;

    /** Cells whose simulations all ran the batch kernels. */
    Count simdCells = 0;

    /** Cells that ended in an Error (including fail-fast skips). */
    Count failedCells = 0;

    /** Cells restored from the checkpoint instead of executed. */
    Count restoredCells = 0;

    /** Resolved batch-kernel dispatch level of the run —
     * simdLevelName(resolveSimdLevel()) at run() time: "scalar",
     * "avx2" or "neon". */
    std::string dispatch = "scalar";

    /** Nominal vector width of the dispatch level in 32-bit lanes
     * (1 for scalar). */
    unsigned simdLanes = 1;

    /** Fused passes executed (profiling-phase and cell groups). */
    Count fusedGroups = 0;

    /**
     * Branches actually simulated, counting each shared profiling
     * phase once. totalBranches keeps PR-stable per-cell accounting
     * (a cached phase is counted by every consumer); the difference
     * between the two is the work the profile cache removed.
     */
    Count actualBranches = 0;

    /** Wall time of the parallel section (profiling phases + cells). */
    double runSeconds = 0.0;

    /** End-to-end wall time (materialize + run). */
    double wallSeconds = 0.0;

    /** Branches simulated across all cells. */
    Count totalBranches = 0;

    /** Bytes held by the replay buffers during the run. */
    std::size_t replayBytes = 0;

    /** Replay buffers served from the artifact cache (mmap). */
    Count cacheReplayHits = 0;

    /** Replay buffers generated because the artifact cache had no
     * valid entry (0 on a warm run — the perf contract). */
    Count cacheReplayMisses = 0;

    /** Profiling phases served from the artifact cache. */
    Count cacheProfileHits = 0;

    /** Profiling phases executed because the artifact cache had no
     * valid entry. */
    Count cacheProfileMisses = 0;

    /** Corrupt artifacts detected (and regenerated). */
    Count cacheCorrupt = 0;

    /** Bytes mapped read-only from the artifact cache. */
    std::size_t mappedBytes = 0;

    /** 1-based shard this run executed (1/1 = unsharded). */
    unsigned shardIndex = 1;

    /** Total shards the matrix was split across. */
    unsigned shardCount = 1;

    /** Cells owned (executed, restored or failed) by this shard. */
    Count shardCells = 0;

    /** Cells skipped because they belong to another shard. */
    Count shardSkippedCells = 0;

    /** Sum of per-cell wall times, the shared profiling runs and
     * materialization: what the same work would cost on one thread. */
    double serialEstimateSeconds() const;

    /** Actual branch throughput of the simulation work (excludes
     * materialization). */
    double kernelBranchesPerSecond() const;

    /** Parallel speedup against the one-thread estimate. */
    double speedupVsSerialEstimate() const;
};

/**
 * The experiment-matrix runner. Add programs, then cells referencing
 * them, then run(); buffers demanded by the cells (and by explicit
 * requireBuffer() calls from benches with custom passes) are
 * materialized once and shared read-only by all workers.
 */
class ArtifactCache;

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});
    ~ExperimentRunner();

    /** Register @p program; returns its index. */
    std::size_t addProgram(SyntheticProgram program);

    /**
     * Register any workload (a ScenarioWorkload, a custom stream);
     * returns its index. A multi-context scenario registers exactly
     * like a program — one workload, one stream, one buffer per
     * input — so fused grouping, the artifact cache, checkpointing
     * and sharding compose with scenarios structurally.
     */
    std::size_t addWorkload(std::unique_ptr<WorkloadSource> workload);

    /** Registered workload (valid between cells/buffer queries). */
    const WorkloadSource &program(std::size_t index) const;

    std::size_t programCount() const { return programs.size(); }

    /**
     * Add one experiment cell; returns its index (results come back
     * in the same order). An empty label gets the default
     * "program/predictor:bytes/scheme" form.
     */
    std::size_t addCell(std::size_t program_index,
                        const ExperimentConfig &config,
                        std::string label = {});

    const MatrixCell &cell(std::size_t index) const;

    std::size_t cellCount() const { return cells.size(); }

    /**
     * Demand a replay buffer of at least @p branches records of
     * @p program_index under @p input, independent of any cell — for
     * benches that run custom passes (profile comparisons, iterative
     * selection) over the shared buffers.
     */
    void requireBuffer(std::size_t program_index, InputSet input,
                       Count branches);

    /**
     * Materialize every demanded buffer (parallel across programs;
     * idempotent — only missing lengths are regenerated). Called by
     * run(); benches using only requireBuffer() call it directly.
     */
    void materialize();

    /** The materialized buffer (materialize() must have run). */
    const ReplayBuffer &buffer(std::size_t program_index,
                               InputSet input) const;

    /**
     * Run all cells across the pool and collect results + timing.
     * Cell failures (invalid configs, exceptions, injected faults)
     * are isolated into their CellResult::error slots — run() itself
     * throws ErrorException only when nothing can proceed at all: a
     * materialization failure or an unreadable resume checkpoint.
     */
    MatrixResult run();

    /** The pool, for benches adding custom parallel passes. */
    TaskPool &pool() { return taskPool; }

    unsigned threadCount() const { return taskPool.threadCount(); }

  private:
    /** One run()'s state and its stages (runner.cc). */
    class Sweep;

    /** Fold one cell's stream demands into @p plan. */
    void noteCellDemand(
        const MatrixCell &cell,
        std::vector<std::array<Count, numInputSets>> &plan) const;

    /** Reject malformed shard options (config_invalid). */
    void validateShardOptions() const;

    /** Memoized cellFingerprint() of cell @p index. */
    const std::string &fingerprintOf(std::size_t index);

    /** Does cell @p index belong to this process's shard? */
    bool cellInShard(std::size_t index);

    RunnerOptions options;
    TaskPool taskPool;
    std::vector<std::unique_ptr<WorkloadSource>> programs;
    std::vector<MatrixCell> cells;

    /** Explicit requireBuffer() demands; cell demands are folded in
     * at materialize() time so out-of-shard cells cost nothing. */
    std::vector<std::array<Count, numInputSets>> demand;
    std::vector<std::array<std::unique_ptr<ReplayBuffer>,
                           numInputSets>> buffers;
    std::vector<std::optional<std::string>> fingerprintMemo;
    std::unique_ptr<ArtifactCache> cache;
    double materializeSeconds = 0.0;
};

/** run_begin's fields for a run on @p threads: the thread count and
 * the resolved dispatch level with its SIMD width. */
std::vector<obs::Field> runBeginFields(unsigned threads);

/** cell_end's stat snapshot of cell @p cell (neutral is the
 * unclassified remainder of the collisions). */
std::vector<obs::Field> cellEndFields(Count cell, double seconds,
                                      const SimStats &stats,
                                      std::size_t hints);

/**
 * Write a matrix result as the BENCH_runner.json format (see
 * tools/check_bench_json.py for the schema).
 */
void writeRunnerJson(const std::string &path, const std::string &bench,
                     const ExperimentRunner &runner,
                     const MatrixResult &result);

} // namespace bpsim

#endif // BPSIM_CORE_RUNNER_HH
