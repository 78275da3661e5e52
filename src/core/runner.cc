#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "cache/artifact_cache.hh"
#include "core/checkpoint.hh"
#include "core/simd.hh"
#include "predictor/registry.hh"
#include "support/atomic_file.hh"
#include "support/fault.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "trace/replay_buffer.hh"

namespace bpsim
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Sentinel for "cell has no shared profiling phase". */
constexpr std::size_t noPhase = std::numeric_limits<std::size_t>::max();

/** Sentinel for "no cell carries the profiling phase". */
constexpr std::size_t noCell = std::numeric_limits<std::size_t>::max();

/**
 * Cache identity of a cell's profiling run: everything that affects
 * the ProfilePhase and nothing that doesn't (the selection scheme and
 * its tunables apply downstream, which is what makes the phase
 * shareable across scheme cells).
 */
std::string
profileCacheKey(const MatrixCell &cell)
{
    const ExperimentConfig &config = cell.config;
    return std::to_string(cell.programIndex) + "|" +
           std::to_string(
               static_cast<unsigned>(config.profileInput)) +
           "|" + std::to_string(config.profileBranches) + "|" +
           predictorIdentityOf(config);
}

/**
 * Run @p fn up to 1 + @p retries times, retrying only transient
 * failures. Returns the final Error (std::nullopt on success) and
 * reports the attempts made through @p attempts. Non-ErrorException
 * exceptions become internal errors and never retry.
 */
std::optional<Error>
attemptWithRetries(unsigned retries, unsigned &attempts,
                   const std::function<void()> &fn)
{
    for (attempts = 1;; ++attempts) {
        try {
            fn();
            return std::nullopt;
        } catch (const ErrorException &failure) {
            if (!failure.error().transient() || attempts > retries)
                return failure.error();
        } catch (const std::exception &failure) {
            return Error(ErrorCode::Internal,
                         std::string("unexpected exception: ") +
                             failure.what());
        }
    }
}

/** Comma-joined index list ("3,4,7") for journal payloads. */
template <typename Index>
std::string
joinIndexList(const std::vector<Index> &values)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(values[i]);
    }
    return out;
}

/**
 * One planned fused pass: work items (cell or profile-phase indices)
 * that share a replay buffer, stepped together by one worker.
 */
struct FusedGroupPlan
{
    std::size_t programIndex = 0;
    InputSet input = InputSet::Ref;
    std::vector<std::size_t> members;
};

/**
 * Group @p items by their shared buffer, in first-seen item order so
 * the plan — and with it every result — is independent of the thread
 * count. @p key maps an item to its (program index, input) pair. The
 * group count is small (programs × inputs), so the linear scan beats
 * a map.
 */
template <typename Key>
std::vector<FusedGroupPlan>
groupForFusion(const std::vector<std::size_t> &items, const Key &key)
{
    std::vector<FusedGroupPlan> groups;
    for (const std::size_t item : items) {
        const auto [program, input] = key(item);
        FusedGroupPlan *group = nullptr;
        for (FusedGroupPlan &candidate : groups) {
            if (candidate.programIndex == program &&
                candidate.input == input) {
                group = &candidate;
                break;
            }
        }
        if (group == nullptr) {
            groups.push_back({program, input, {}});
            group = &groups.back();
        }
        group->members.push_back(item);
    }
    return groups;
}

/**
 * Split each group's member list into near-equal contiguous chunks so
 * a sweep with fewer groups than workers still spreads across the
 * pool. Chunking never changes results — each member still steps
 * through its own records — only which worker steps it.
 */
std::vector<FusedGroupPlan>
chunkGroups(std::vector<FusedGroupPlan> groups, unsigned threads)
{
    const std::size_t per_group =
        groups.empty() ? 1
                       : (threads + groups.size() - 1) / groups.size();
    std::vector<FusedGroupPlan> chunks;
    for (FusedGroupPlan &group : groups) {
        const std::size_t parts = std::clamp<std::size_t>(
            per_group, 1, group.members.size());
        const std::size_t base = group.members.size() / parts;
        const std::size_t extra = group.members.size() % parts;
        std::size_t at = 0;
        for (std::size_t c = 0; c < parts; ++c) {
            const std::size_t len = base + (c < extra ? 1 : 0);
            FusedGroupPlan chunk;
            chunk.programIndex = group.programIndex;
            chunk.input = group.input;
            chunk.members.assign(group.members.begin() + at,
                                 group.members.begin() + at + len);
            at += len;
            chunks.push_back(std::move(chunk));
        }
    }
    return chunks;
}

} // namespace

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0) {
        if (requested > maxResolvedThreads) {
            std::fprintf(stderr,
                         "bpsim: warning: %u threads requested; "
                         "clamping to %u\n",
                         requested, maxResolvedThreads);
            return maxResolvedThreads;
        }
        return requested;
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    const unsigned fallback = hardware > 0 ? hardware : 1;
    if (const char *env = std::getenv("BPSIM_THREADS")) {
        char *end = nullptr;
        const unsigned long value = std::strtoul(env, &end, 10);
        // strtoul wraps negative input to a huge value; treat it as
        // garbage like any other unparseable token.
        if (end == env || *end != '\0' || value == 0 ||
            env[0] == '-') {
            // Garbage in the environment degrades to the hardware
            // default with a warning: a bad shell export should not
            // kill a sweep that would otherwise run fine.
            std::fprintf(stderr,
                         "bpsim: warning: BPSIM_THREADS expects a "
                         "positive integer, got '%s'; using %u\n",
                         env, fallback);
            return fallback;
        }
        if (value > maxResolvedThreads) {
            std::fprintf(stderr,
                         "bpsim: warning: BPSIM_THREADS=%lu; "
                         "clamping to %u\n",
                         value, maxResolvedThreads);
            return maxResolvedThreads;
        }
        return static_cast<unsigned>(value);
    }
    return fallback;
}

void
addThreadsOption(ArgParser &args)
{
    args.addOption("threads", "0",
                   "worker threads (0 = $BPSIM_THREADS, else hardware "
                   "concurrency)");
}

unsigned
threadsFromArgs(const ArgParser &args)
{
    return resolveThreadCount(
        static_cast<unsigned>(args.getUint("threads")));
}

TaskPool::TaskPool(unsigned threads)
    : workers(resolveThreadCount(threads))
{
}

void
TaskPool::run(std::vector<std::function<void()>> tasks)
{
    const std::vector<std::exception_ptr> errors =
        runCollect(std::move(tasks));
    // Every task ran (or captured); rethrow the first failure by task
    // index so the escaping exception is thread-count independent.
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::vector<std::exception_ptr>
TaskPool::runCollect(std::vector<std::function<void()>> tasks)
{
    std::vector<std::exception_ptr> errors(tasks.size());
    if (tasks.empty())
        return errors;
    const auto guarded = [&](std::size_t task_index) {
        try {
            tasks[task_index]();
        } catch (...) {
            errors[task_index] = std::current_exception();
        }
    };
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(workers, tasks.size()));
    if (n <= 1) {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            guarded(i);
        return errors;
    }

    // Each worker claims the next unclaimed task until none is left.
    std::atomic<std::size_t> next{0};
    const auto worker = [&](unsigned self) {
        obs::setWorkerIndex(self);
        for (std::size_t task_index = next.fetch_add(1);
             task_index < tasks.size(); task_index = next.fetch_add(1))
            guarded(task_index);
    };

    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (unsigned t = 1; t < n; ++t)
        threads.emplace_back(worker, t);
    worker(0);
    for (auto &thread : threads)
        thread.join();
    return errors;
}

double
MatrixResult::serialEstimateSeconds() const
{
    double total = materializeSeconds + profileSeconds;
    for (const auto &cell : cells)
        total += cell.wallSeconds;
    return total;
}

double
MatrixResult::kernelBranchesPerSecond() const
{
    double sim_seconds = profileSeconds;
    for (const auto &cell : cells)
        sim_seconds += cell.wallSeconds;
    return sim_seconds > 0.0
               ? static_cast<double>(actualBranches) / sim_seconds
               : 0.0;
}

double
MatrixResult::speedupVsSerialEstimate() const
{
    return wallSeconds > 0.0 ? serialEstimateSeconds() / wallSeconds
                             : 0.0;
}

Result<std::pair<unsigned, unsigned>>
parseShardSpec(const std::string &spec)
{
    const auto invalid = [&spec] {
        return Result<std::pair<unsigned, unsigned>>(
            Error(ErrorCode::ConfigInvalid,
                  "shard spec must be 1-based i/N with 1 <= i <= N")
                .withContext("got '" + spec + "'"));
    };
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size())
        return invalid();
    const std::string index_text = spec.substr(0, slash);
    const std::string count_text = spec.substr(slash + 1);
    const auto is_digits = [](const std::string &text) {
        return !text.empty() &&
               text.find_first_not_of("0123456789") ==
                   std::string::npos;
    };
    if (!is_digits(index_text) || !is_digits(count_text) ||
        index_text.size() > 9 || count_text.size() > 9)
        return invalid();
    const unsigned long index = std::strtoul(index_text.c_str(),
                                             nullptr, 10);
    const unsigned long count = std::strtoul(count_text.c_str(),
                                             nullptr, 10);
    if (index == 0 || count == 0 || index > count)
        return invalid();
    return Result<std::pair<unsigned, unsigned>>(
        std::pair<unsigned, unsigned>(
            static_cast<unsigned>(index),
            static_cast<unsigned>(count)));
}

std::vector<obs::Field>
runBeginFields(unsigned threads)
{
    const SimdLevel level = resolveSimdLevel();
    return {obs::Field::u64("threads", threads),
            obs::Field::str("dispatch", simdLevelName(level)),
            obs::Field::u64("simd_width", simdWidth(level))};
}

std::vector<obs::Field>
cellEndFields(Count cell, double seconds, const SimStats &stats,
              std::size_t hints)
{
    const Count classified =
        stats.collisions.constructive + stats.collisions.destructive;
    const Count neutral = stats.collisions.collisions > classified
                              ? stats.collisions.collisions - classified
                              : 0;
    return {obs::Field::u64("cell", cell),
            obs::Field::f64("seconds", seconds),
            obs::Field::u64("branches", stats.branches),
            obs::Field::u64("instructions", stats.instructions),
            obs::Field::u64("mispredictions", stats.mispredictions),
            obs::Field::f64("misp_ki", stats.mispKi()),
            obs::Field::u64("hints", hints),
            obs::Field::u64("static_predicted", stats.staticPredicted),
            obs::Field::u64("lookups", stats.collisions.lookups),
            obs::Field::u64("collisions", stats.collisions.collisions),
            obs::Field::u64("constructive",
                            stats.collisions.constructive),
            obs::Field::u64("destructive", stats.collisions.destructive),
            obs::Field::u64("neutral", neutral)};
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options(options), taskPool(options.threads)
{
    if (!this->options.cacheDir.empty())
        cache = std::make_unique<ArtifactCache>(this->options.cacheDir);
}

ExperimentRunner::~ExperimentRunner() = default;

void
ExperimentRunner::validateShardOptions() const
{
    if (options.shardCount == 0 || options.shardIndex == 0 ||
        options.shardIndex > options.shardCount) {
        raise(Error(ErrorCode::ConfigInvalid,
                    "shard index/count must satisfy 1 <= index <= "
                    "count")
                  .withContext("got shard " +
                               std::to_string(options.shardIndex) +
                               "/" +
                               std::to_string(options.shardCount)));
    }
}

const std::string &
ExperimentRunner::fingerprintOf(std::size_t index)
{
    bpsim_assert(index < cells.size(), "fingerprint index out of range");
    if (fingerprintMemo.size() < cells.size())
        fingerprintMemo.resize(cells.size());
    if (!fingerprintMemo[index].has_value()) {
        fingerprintMemo[index] = cellFingerprint(
            *programs[cells[index].programIndex], cells[index].config);
    }
    return *fingerprintMemo[index];
}

bool
ExperimentRunner::cellInShard(std::size_t index)
{
    if (options.shardCount <= 1)
        return true;
    return shardOfFingerprint(fingerprintOf(index), options.shardCount) ==
           options.shardIndex - 1;
}

std::size_t
ExperimentRunner::addProgram(SyntheticProgram program)
{
    return addWorkload(
        std::make_unique<SyntheticProgram>(std::move(program)));
}

std::size_t
ExperimentRunner::addWorkload(std::unique_ptr<WorkloadSource> workload)
{
    bpsim_assert(workload != nullptr, "null workload registered");
    programs.push_back(std::move(workload));
    demand.push_back({});
    buffers.emplace_back();
    return programs.size() - 1;
}

const WorkloadSource &
ExperimentRunner::program(std::size_t index) const
{
    bpsim_assert(index < programs.size(), "program index out of range");
    return *programs[index];
}

std::size_t
ExperimentRunner::addCell(std::size_t program_index,
                          const ExperimentConfig &config,
                          std::string label)
{
    bpsim_assert(program_index < programs.size(),
                 "cell references unknown program");
    MatrixCell cell;
    cell.programIndex = program_index;
    cell.config = config;
    if (label.empty()) {
        label = programs[program_index]->name() + "/" +
                predictorIdentityOf(config) + "/" +
                staticSchemeName(config.scheme);
    }
    cell.label = std::move(label);
    // Demands are folded in at materialize() time (not here) so a
    // sharded run only materializes the buffers its own cells touch.
    cells.push_back(std::move(cell));
    return cells.size() - 1;
}

const MatrixCell &
ExperimentRunner::cell(std::size_t index) const
{
    bpsim_assert(index < cells.size(), "cell index out of range");
    return cells[index];
}

void
ExperimentRunner::requireBuffer(std::size_t program_index,
                                InputSet input, Count branches)
{
    bpsim_assert(program_index < programs.size(),
                 "buffer demand for unknown program");
    Count &needed =
        demand[program_index][static_cast<unsigned>(input)];
    needed = std::max(needed, branches);
}

void
ExperimentRunner::noteCellDemand(
    const MatrixCell &cell,
    std::vector<std::array<Count, numInputSets>> &plan) const
{
    const ExperimentConfig &config = cell.config;
    const auto require = [&plan, &cell](InputSet input,
                                        Count branches) {
        Count &needed =
            plan[cell.programIndex][static_cast<unsigned>(input)];
        needed = std::max(needed, branches);
    };
    // Warmup branches come out of the same stream ahead of the
    // measured window, so the buffer must cover both.
    Count eval_needed = config.evalBranches + config.evalWarmupBranches;
    if (config.scheme != StaticScheme::None) {
        require(config.profileInput, config.profileBranches);
        if (config.filterUnstable &&
            config.profileInput != config.evalInput) {
            eval_needed =
                std::max(eval_needed, config.profileBranches);
        }
    }
    require(config.evalInput, eval_needed);
}

void
ExperimentRunner::materialize()
{
    validateShardOptions();
    // The buffer plan: explicit requireBuffer() demands plus the
    // demands of every cell this shard owns. Folding cell demands in
    // here (not at addCell time) is what makes sharding a real
    // materialization win — a shard never generates or maps a buffer
    // only other shards' cells touch.
    auto plan = demand;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cellInShard(i))
            noteCellDemand(cells[i], plan);
    }

    // Collect programs with outstanding demand. One task per program
    // (not per buffer): materialization mutates the program's input
    // state, so a program's buffers must be filled sequentially.
    std::vector<std::size_t> pending;
    for (std::size_t p = 0; p < programs.size(); ++p) {
        for (unsigned input = 0; input < numInputSets; ++input) {
            const Count needed = plan[p][input];
            const ReplayBuffer *existing = buffers[p][input].get();
            if (needed > 0 &&
                (existing == nullptr || existing->size() < needed)) {
                pending.push_back(p);
                break;
            }
        }
    }
    if (pending.empty())
        return;

    const auto noteReplay = [&](std::size_t p, unsigned input,
                                const char *op) {
        obs::note(options.journal, obs::EventKind::Cache,
                  programs[p]->name(),
                  {obs::Field::str("artifact", "replay"),
                   obs::Field::str("op", op),
                   obs::Field::u64("bytes",
                                   buffers[p][input]->memoryBytes())});
    };
    const auto start = std::chrono::steady_clock::now();
    taskPool.parallelFor(pending.size(), [&](std::size_t i) {
        const std::size_t p = pending[i];
        faultPoint(fault_points::materialize, programs[p]->name());
        for (unsigned input = 0; input < numInputSets; ++input) {
            const Count needed = plan[p][input];
            const ReplayBuffer *existing = buffers[p][input].get();
            if (needed == 0 ||
                (existing != nullptr && existing->size() >= needed))
                continue;
            std::string key;
            if (cache != nullptr) {
                key = replayArtifactKey(programs[p]->name(),
                                        programs[p]->seedValue(),
                                        input, needed);
                auto lookup = cache->loadReplay(key);
                if (!lookup.ok()) {
                    // Corrupt artifact: journal it, then regenerate
                    // below — the store overwrites the bad file.
                    std::fprintf(stderr,
                                 "bpsim: warning: corrupt replay "
                                 "artifact: %s\n",
                                 lookup.error().describe().c_str());
                    obs::note(options.journal,
                              obs::EventKind::CacheCorrupt,
                              programs[p]->name(),
                              {obs::Field::str("artifact", "replay"),
                               obs::Field::str("key", key)});
                } else if (lookup.value().hit) {
                    buffers[p][input] = std::make_unique<ReplayBuffer>(
                        std::move(lookup.value().buffer));
                    noteReplay(p, input, "hit");
                    continue;
                }
            }
            programs[p]->setInput(static_cast<InputSet>(input));
            buffers[p][input] = std::make_unique<ReplayBuffer>(
                ReplayBuffer::materialize(*programs[p], needed));
            if (cache != nullptr) {
                auto stored =
                    cache->storeReplay(key, *buffers[p][input]);
                if (!stored.ok()) {
                    // A write failure only costs the next process a
                    // regeneration; never fail the run for it.
                    std::fprintf(stderr,
                                 "bpsim: warning: replay artifact "
                                 "store failed: %s\n",
                                 stored.error().describe().c_str());
                } else {
                    noteReplay(p, input, "store");
                }
            }
        }
    });
    materializeSeconds += secondsSince(start);
}

const ReplayBuffer &
ExperimentRunner::buffer(std::size_t program_index,
                         InputSet input) const
{
    bpsim_assert(program_index < programs.size(),
                 "buffer query for unknown program");
    const auto &held =
        buffers[program_index][static_cast<unsigned>(input)];
    bpsim_assert(held != nullptr,
                 "buffer not materialized (call materialize())");
    return *held;
}

/**
 * One run() of the matrix: the state its stages share, from the plan
 * to the aggregated result. The materialize, profile and execute
 * stages are each one journal phase span.
 */
class ExperimentRunner::Sweep
{
    /** One cell's plan, fixed before any work starts. */
    struct CellPlan
    {
        std::string fingerprint; // when checkpointing or sharding
        bool inShard = true;
        std::optional<Error> invalid;
        std::optional<CheckpointRecord> restored;
        std::size_t phase = noPhase;

        /** The cell ran in its profiling twin's pass, which left its
         * result or its failure in the cell's result slot. */
        bool carried = false;
    };

    /** One unique shared profiling phase and its outcome, written by
     * exactly one worker. */
    struct PhaseSlot
    {
        std::size_t programIndex = 0;
        InputSet input = InputSet::Ref;
        const ExperimentConfig *config = nullptr;
        std::string diskKey;
        ProfilePhase phase;
        Count branches = 0;
        double wall = 0.0;
        bool kernel = false;
        bool simd = false;
        std::optional<Error> error;

        /** The cell chosen to carry the phase, then the cell that rode
         * its pass (noCell when none did). */
        std::size_t carrier = noCell;
    };

    /** A fused-chunk member that passed its gates and was prepared. */
    struct LiveCell
    {
        std::size_t index = 0;
        PreparedEvaluation prepared;
        unsigned attempts = 0;
        double prepareSeconds = 0.0;
    };

    /** A lazily built SiteIndex, shared read-only by every fused pass
     * over its buffer. */
    struct SiteSlot
    {
        std::once_flag once;
        std::unique_ptr<SiteIndex> index;
    };

    /** A lazily computed context split of one buffer window, shared
     * read-only by every scenario cell measuring that window. */
    struct SplitSlot
    {
        std::once_flag once;
        std::vector<ContextStats> split;
    };

    /** (program, input, window begin, window end, contexts). */
    using SplitKey =
        std::tuple<std::size_t, unsigned, Count, Count, std::size_t>;

  public:
    explicit Sweep(ExperimentRunner &runner)
        : runner(runner), options(runner.options), cells(runner.cells),
          journal(options.journal), timers(obs::timersOf(journal)),
          plans(cells.size()), siteSlots(runner.programs.size())
    {
        const SimdLevel level = resolveSimdLevel();
        result.cells.resize(cells.size());
        result.threads = runner.taskPool.threadCount();
        result.dispatch = simdLevelName(level);
        result.simdLanes = simdWidth(level);
        result.shardIndex = options.shardIndex;
        result.shardCount = options.shardCount;
    }

    MatrixResult result;

    /**
     * Checkpoint load and shard stamp, shard membership, per-cell
     * validation, restored cells and the profile-phase plan. Records
     * no events, so an unreadable checkpoint fails the run before any
     * journal output.
     */
    void
    plan()
    {
        runner.validateShardOptions();
        if (!options.checkpointPath.empty()) {
            checkpoint =
                std::make_unique<SweepCheckpoint>(options.checkpointPath);
        }
        if (options.resume && checkpoint != nullptr) {
            Result<void> loaded = checkpoint->load();
            if (!loaded.ok()) {
                raise(std::move(loaded.error())
                          .withContext("while resuming sweep"));
            }
        }
        // Out-of-shard cells keep their (empty) result slots, so
        // indices stay matrix-stable, and nothing else.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (checkpoint != nullptr || options.shardCount > 1)
                plans[i].fingerprint = runner.fingerprintOf(i);
            plans[i].inShard = runner.cellInShard(i);
        }
        if (checkpoint != nullptr)
            stampCheckpoint();

        // An invalid cell fails without executing anything and stays
        // out of the profile-phase plan. Out-of-shard cells are
        // another process's to validate (failing them here would
        // double-count across shards). Restored cells are copied out:
        // the checkpoint grows once workers record new cells.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            CellPlan &plan = plans[i];
            if (!plan.inShard)
                continue;
            Result<void> valid = cells[i].config.validate();
            if (!valid.ok()) {
                plan.invalid = std::move(valid.error());
                continue;
            }
            if (options.resume && checkpoint != nullptr) {
                if (const CheckpointRecord *record =
                        checkpoint->find(plan.fingerprint))
                    plan.restored = *record;
            }
        }
        planProfilePhases();
    }

    /** run_begin's fields. */
    std::vector<obs::Field>
    runBegin() const
    {
        std::vector<obs::Field> fields = runBeginFields(result.threads);
        fields.push_back(obs::Field::u64("cells", cells.size()));
        fields.push_back(
            obs::Field::u64("shard_index", options.shardIndex));
        fields.push_back(
            obs::Field::u64("shard_count", options.shardCount));
        return fields;
    }

    /** Build (or map) every replay buffer the plan demands. */
    void
    materialize()
    {
        obs::Span span = obs::Span::phase(journal, "materialize",
                                          "runner.materialize");
        runner.materialize();
        for (const auto &per_program : runner.buffers) {
            for (const auto &held : per_program) {
                if (held != nullptr)
                    result.replayBytes += held->memoryBytes();
            }
        }
        std::vector<obs::Field> fields = {
            obs::Field::f64("seconds", span.seconds()),
            obs::Field::u64("bytes", result.replayBytes)};
        if (runner.cache != nullptr) {
            const ArtifactCacheStats stats = runner.cache->stats();
            fields.push_back(
                obs::Field::u64("cache_replay_hits", stats.replayHits));
            fields.push_back(obs::Field::u64("cache_replay_misses",
                                             stats.replayMisses));
            fields.push_back(
                obs::Field::u64("mmap_bytes", stats.mappedBytes));
        }
        obs::note(journal, obs::EventKind::Materialize, "materialize",
                  std::move(fields));
    }

    /** Run the needed profiling phases: artifact-cache hits, then
     * one fused pass per chunk of phases sharing a buffer, each
     * phase's carrier riding along. */
    void
    profile()
    {
        runStart = std::chrono::steady_clock::now();
        if (phaseExec.empty())
            return;
        obs::Span span = obs::Span::phase(journal, "profile");
        loadCachedPhases();
        pickCarriers();
        const std::vector<FusedGroupPlan> chunks = chunkGroups(
            groupForFusion(phaseExec,
                           [&](std::size_t j) {
                               return std::pair(phases[j].programIndex,
                                                phases[j].input);
                           }),
            result.threads);
        runner.taskPool.parallelFor(chunks.size(), [&](std::size_t c) {
            runProfileChunk(chunks[c]);
        });
        storePhases();
    }

    /** Settle the cells that need no simulation, then run the rest
     * in fused passes over their evaluation buffers (read-only here,
     * like the shared phases, so the hot path takes no locks). */
    void
    execute()
    {
        obs::Span span = obs::Span::phase(journal, "cells");
        std::vector<std::size_t> pending;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellPlan &plan = plans[i];
            if (!plan.inShard)
                result.cells[i].shardSkipped = true; // no events
            else if (plan.invalid.has_value() ||
                     plan.restored.has_value() || plan.carried)
                openCell(i);
            else
                pending.push_back(i);
        }
        const std::vector<FusedGroupPlan> chunks = chunkGroups(
            groupForFusion(pending,
                           [&](std::size_t i) {
                               return std::pair(
                                   cells[i].programIndex,
                                   cells[i].config.evalInput);
                           }),
            result.threads);
        runner.taskPool.parallelFor(chunks.size(), [&](std::size_t c) {
            runCellChunk(chunks[c]);
        });
        result.fusedGroups =
            fusedGroupCount.load(std::memory_order_relaxed);
        span.close();
        result.runSeconds = secondsSince(runStart);
    }

    /** Fold the cells into the matrix totals; returns run_end's
     * fields. */
    std::vector<obs::Field>
    aggregate()
    {
        // A phase whose every consumer was restored never ran; take
        // its branch count from a restored consumer.
        for (const CellPlan &plan : plans) {
            if (plan.restored.has_value() && plan.phase != noPhase &&
                phases[plan.phase].branches == 0)
                phases[plan.phase].branches =
                    plan.restored->phaseBranches;
        }
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
            const CellResult &cell = result.cells[i];
            if (cell.shardSkipped) {
                ++result.shardSkippedCells;
                continue;
            }
            if (!cell.ok()) {
                ++result.failedCells;
                continue;
            }
            if (cell.restored)
                ++result.restoredCells;
            result.totalBranches += cell.result.simulatedBranches;
            // A shared phase's branches count once (below) in the
            // actual work done.
            result.actualBranches += cell.result.simulatedBranches;
            if (cell.profileCached)
                result.actualBranches -= phases[plans[i].phase].branches;
            if (cell.usedKernel)
                ++result.kernelCells;
            if (cell.usedSimd)
                ++result.simdCells;
        }
        for (const PhaseSlot &slot : phases) {
            result.actualBranches += slot.branches;
            result.profileSeconds += slot.wall;
        }
        result.shardCells = cells.size() - result.shardSkippedCells;
        result.materializeSeconds = runner.materializeSeconds;
        if (runner.cache != nullptr) {
            const ArtifactCacheStats stats = runner.cache->stats();
            result.cacheReplayHits = stats.replayHits;
            result.cacheReplayMisses = stats.replayMisses;
            result.cacheProfileHits = stats.profileHits;
            result.cacheProfileMisses = stats.profileMisses;
            result.cacheCorrupt = stats.corrupt;
            result.mappedBytes = stats.mappedBytes;
        }
        const auto count = [](const char *key, Count value) {
            return obs::Field::u64(key, value);
        };
        return {obs::Field::f64("run_seconds", result.runSeconds),
                count("cells", result.shardCells),
                count("total_branches", result.totalBranches),
                count("actual_branches", result.actualBranches),
                count("profile_cache_hits", result.profileCacheHits),
                count("profile_cache_misses", result.profileCacheMisses),
                count("kernel_cells", result.kernelCells),
                count("simd_cells", result.simdCells),
                count("failed_cells", result.failedCells),
                count("restored_cells", result.restoredCells),
                count("fused_groups", result.fusedGroups),
                count("shard_index", result.shardIndex),
                count("shard_count", result.shardCount),
                count("shard_cells", result.shardCells),
                count("shard_skipped", result.shardSkippedCells),
                count("cache_replay_hits", result.cacheReplayHits),
                count("cache_replay_misses", result.cacheReplayMisses),
                count("cache_profile_hits", result.cacheProfileHits),
                count("cache_profile_misses", result.cacheProfileMisses),
                count("cache_corrupt", result.cacheCorrupt),
                count("mmap_bytes", result.mappedBytes)};
    }

  private:
    /** Stamp the checkpoint with this run's shard identity (a file
     * from another partition would mix slices) and flush, so even a
     * zero-cell shard leaves a stamped file for `merge`. */
    void
    stampCheckpoint()
    {
        ShardStamp stamp;
        stamp.shardIndex = options.shardIndex;
        stamp.shardCount = options.shardCount;
        stamp.matrixCells = cells.size();
        for (const CellPlan &plan : plans) {
            if (plan.inShard)
                ++stamp.shardCells;
        }
        const std::optional<ShardStamp> existing = checkpoint->shard();
        if (existing.has_value() &&
            (existing->shardIndex != stamp.shardIndex ||
             existing->shardCount != stamp.shardCount ||
             existing->matrixCells != stamp.matrixCells)) {
            raise(Error(ErrorCode::ConfigInvalid,
                        "checkpoint was written by a different "
                        "shard or matrix")
                      .withContext(
                          "file '" + options.checkpointPath +
                          "' is shard " +
                          std::to_string(existing->shardIndex) + "/" +
                          std::to_string(existing->shardCount) + " of " +
                          std::to_string(existing->matrixCells) +
                          " cells; this run is shard " +
                          std::to_string(stamp.shardIndex) + "/" +
                          std::to_string(stamp.shardCount) + " of " +
                          std::to_string(stamp.matrixCells)));
        }
        checkpoint->setShard(stamp);
        const Result<void> flushed = checkpoint->flush();
        if (!flushed.ok()) {
            std::fprintf(stderr,
                         "bpsim: warning: checkpoint header write "
                         "failed: %s\n",
                         flushed.error().describe().c_str());
        }
    }

    /**
     * Plan each unique profiling simulation once (every scheme cell of
     * one program × predictor shares one), in first-seen cell order so
     * the plan is independent of the thread count. Restored cells are
     * planned too, so a resumed run reports an uninterrupted run's
     * hit/miss counts; only phases with a consumer to run execute.
     */
    void
    planProfilePhases()
    {
        std::unordered_map<std::string, std::size_t> phase_of_key;
        std::vector<char> needed;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const ExperimentConfig &config = cells[i].config;
            CellPlan &plan = plans[i];
            if (!plan.inShard || plan.invalid.has_value() ||
                config.scheme == StaticScheme::None)
                continue;
            const auto [it, inserted] = phase_of_key.try_emplace(
                profileCacheKey(cells[i]), phases.size());
            if (inserted) {
                phases.emplace_back();
                phases.back().programIndex = cells[i].programIndex;
                phases.back().input = config.profileInput;
                phases.back().config = &config;
                needed.push_back(0);
            } else {
                ++result.profileCacheHits;
            }
            plan.phase = it->second;
            if (!plan.restored.has_value())
                needed[plan.phase] = 1;
        }
        result.profileCacheMisses = phases.size();
        for (std::size_t j = 0; j < phases.size(); ++j) {
            if (needed[j])
                phaseExec.push_back(j);
        }
    }

    /**
     * Satisfy phases from valid on-disk profiles. A disk hit still
     * journals a profile_phase (cache="disk"), so the validator's
     * events-vs-misses invariant holds on warm runs; kernel/simd are
     * vacuously true for a phase nothing simulated. The disk hit/miss
     * split goes to the cache counters, not profileCacheMisses.
     */
    void
    loadCachedPhases()
    {
        if (runner.cache == nullptr)
            return;
        std::vector<std::size_t> still_exec;
        for (const std::size_t j : phaseExec) {
            PhaseSlot &slot = phases[j];
            const WorkloadSource &program =
                *runner.programs[slot.programIndex];
            slot.diskKey = profileArtifactKey(
                program.name(), program.seedValue(),
                static_cast<unsigned>(slot.input),
                slot.config->profileBranches,
                predictorIdentityOf(*slot.config));
            ScopedTimer timer(timers, "runner.profile_cache_load");
            auto lookup = runner.cache->loadProfile(slot.diskKey);
            if (!lookup.ok()) {
                std::fprintf(stderr,
                             "bpsim: warning: corrupt profile "
                             "artifact: %s\n",
                             lookup.error().describe().c_str());
                obs::note(journal, obs::EventKind::CacheCorrupt,
                          program.name(),
                          {obs::Field::str("artifact", "profile"),
                           obs::Field::str("key", slot.diskKey)});
            }
            if (!lookup.ok() || !lookup.value().hit) {
                still_exec.push_back(j);
                continue;
            }
            slot.phase.profile = std::move(lookup.value().profile);
            slot.phase.simulatedBranches =
                lookup.value().simulatedBranches;
            slot.branches = slot.phase.simulatedBranches;
            slot.kernel = true;
            slot.simd = true;
            slot.wall = timer.stop();
            obs::note(journal, obs::EventKind::Cache, program.name(),
                      {obs::Field::str("artifact", "profile"),
                       obs::Field::str("op", "hit"),
                       obs::Field::u64("branches", slot.branches)});
            notePhase(j, true);
        }
        phaseExec = std::move(still_exec);
    }

    /**
     * Give each phase left to run at most one carrier: a cell whose
     * evaluation repeats the phase's profiling run over its first
     * profileBranches records, so one sim steps them for both. That is
     * an unhinted cell of the phase's program, input and predictor
     * identity, measured from a cold start (no warmup) over at least
     * the phase's window, that this process runs, of a predictor the
     * kernels run (simulate() keeps no prefix profile). The first such
     * cell in plan order not carrying another phase yet is chosen, so
     * the choice is independent of the thread count. A phase served
     * from the artifact cache runs nothing and gets none.
     */
    void
    pickCarriers()
    {
        std::vector<std::pair<std::size_t, std::string>> candidates;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellPlan &plan = plans[i];
            const ExperimentConfig &config = cells[i].config;
            if (!plan.inShard || plan.invalid.has_value() ||
                plan.restored.has_value() ||
                config.scheme != StaticScheme::None ||
                config.evalWarmupBranches != 0 ||
                !PredictorRegistry::instance()
                     .find(predictorNameOf(config))
                     ->kernelCapable)
                continue;
            candidates.emplace_back(i, predictorIdentityOf(config));
        }
        std::vector<char> taken(cells.size(), 0);
        for (const std::size_t j : phaseExec) {
            PhaseSlot &slot = phases[j];
            const std::string identity = predictorIdentityOf(*slot.config);
            for (const auto &[i, cell_identity] : candidates) {
                const ExperimentConfig &config = cells[i].config;
                if (taken[i] ||
                    cells[i].programIndex != slot.programIndex ||
                    config.evalInput != slot.input ||
                    config.evalBranches < slot.config->profileBranches ||
                    cell_identity != identity)
                    continue;
                slot.carrier = i;
                taken[i] = 1;
                break;
            }
        }
    }

    /** Persist fresh phases for the next process or shard; a store
     * failure only costs a future regeneration. */
    void
    storePhases()
    {
        if (runner.cache == nullptr)
            return;
        for (const std::size_t j : phaseExec) {
            const PhaseSlot &slot = phases[j];
            if (slot.error.has_value() || slot.diskKey.empty())
                continue;
            const Result<void> stored = runner.cache->storeProfile(
                slot.diskKey, slot.phase.profile,
                slot.phase.simulatedBranches);
            if (!stored.ok()) {
                std::fprintf(stderr,
                             "bpsim: warning: profile artifact store "
                             "failed: %s\n",
                             stored.error().describe().c_str());
                continue;
            }
            obs::note(journal, obs::EventKind::Cache,
                      programName(slot.programIndex),
                      {obs::Field::str("artifact", "profile"),
                       obs::Field::str("op", "store"),
                       obs::Field::u64("branches", slot.branches)});
        }
    }

    /** Gate each member on its own (a fault fails exactly that
     * member) and then its carrier, then profile the survivors in one
     * pass that also runs the carriers to the end of their windows. */
    void
    runProfileChunk(const FusedGroupPlan &chunk)
    {
        std::vector<std::size_t> live;
        std::vector<std::optional<LiveCell>> riders;
        for (const std::size_t j : chunk.members) {
            PhaseSlot &slot = phases[j];
            const std::size_t carrier = std::exchange(slot.carrier, noCell);
            if (std::optional<Error> skipped =
                    gate("the profiling phase")) {
                slot.error = std::move(skipped);
                continue;
            }
            unsigned attempts = 0;
            if (std::optional<Error> failure = attemptWithRetries(
                    options.retries, attempts, [&] {
                        faultPoint(fault_points::profilePhase,
                                   programName(chunk.programIndex));
                    })) {
                failPhase(j, std::move(*failure));
                continue;
            }
            live.push_back(j);
            riders.emplace_back();
            if (carrier == noCell)
                continue;
            // Past its phase's gate the carrier is this pass's to
            // settle: it rides, or it fails here and its phase runs
            // alone.
            plans[carrier].carried = true;
            LiveCell entry;
            std::optional<Error> failure = gate("the cell");
            if (!failure.has_value())
                failure = prepare(carrier, entry);
            if (failure.has_value()) {
                result.cells[carrier].wallSeconds = entry.prepareSeconds;
                recordFailure(carrier, std::move(*failure),
                              entry.attempts);
                continue;
            }
            slot.carrier = carrier;
            riders.back() = std::move(entry);
        }
        if (live.empty())
            return;

        const ReplayBuffer &buffer =
            runner.buffer(chunk.programIndex, chunk.input);
        std::vector<const ExperimentConfig *> configs;
        std::vector<FusedSim> rider_sims(live.size());
        std::vector<FusedSim *> carriers(live.size(), nullptr);
        for (std::size_t k = 0; k < live.size(); ++k) {
            configs.push_back(phases[live[k]].config);
            if (!riders[k].has_value())
                continue;
            const LiveCell &entry = *riders[k];
            rider_sims[k].predictor = entry.prepared.combined.get();
            rider_sims[k].options = evalSimOptions(
                cells[entry.index].config, entry.prepared);
            carriers[k] = &rider_sims[k];
        }
        ScopedTimer timer(timers, "runner.profile_phase");
        std::vector<FusedProfileOutcome> outcomes;
        unsigned pass_attempts = 0;
        std::optional<Error> pass_failure = attemptWithRetries(
            options.retries, pass_attempts, [&] {
                outcomes = runProfilePhasesFusedReplay(
                    buffer, configs,
                    siteFor(chunk.programIndex, chunk.input), carriers);
            });
        const double wall = timer.stop();
        if (pass_failure.has_value()) {
            for (std::size_t k = 0; k < live.size(); ++k) {
                failPhase(live[k], *pass_failure);
                if (!riders[k].has_value())
                    continue;
                const LiveCell &entry = *riders[k];
                result.cells[entry.index].wallSeconds =
                    entry.prepareSeconds;
                recordFailure(entry.index,
                              Error(*pass_failure)
                                  .withContext("while running cell " +
                                               cells[entry.index].label),
                              entry.attempts + pass_attempts - 1);
            }
            return;
        }

        // The pass stepped each carrier's whole window, its phase's
        // records among them.
        Count stepped = 0;
        for (std::size_t k = 0; k < live.size(); ++k) {
            PhaseSlot &slot = phases[live[k]];
            slot.phase = std::move(outcomes[k].phase);
            slot.branches = slot.phase.simulatedBranches;
            slot.kernel = outcomes[k].usedFastPath;
            slot.simd = outcomes[k].usedSimd;
            slot.wall = outcomes[k].seconds;
            notePhase(live[k], false);
            if (!riders[k].has_value()) {
                stepped += slot.branches;
                continue;
            }
            // Settle the carrier's result now and free its predictor;
            // the cells stage journals it.
            const FusedSim &sim = rider_sims[k];
            const LiveCell &entry = *riders[k];
            CellResult &out = result.cells[entry.index];
            out.result = evaluationResult(entry.index, entry.prepared,
                                          sim.stats);
            out.attempts = entry.attempts + pass_attempts - 1;
            out.usedKernel = sim.usedFastPath;
            out.usedSimd = sim.usedSimd;
            out.wallSeconds = entry.prepareSeconds +
                              (sim.seconds - sim.prefixSeconds);
            stepped += sim.stats.branches;
            riders[k].reset();
        }
        noteFusedGroup(chunk, "profile", live, wall, stepped);
    }

    void
    failPhase(std::size_t j, Error error)
    {
        phases[j].error = std::move(error).withContext(
            "in shared profiling phase (" +
            programName(phases[j].programIndex) + ")");
        if (options.failFast)
            abortRun.store(true, std::memory_order_relaxed);
    }

    /** profile_phase for a simulated or (@p disk) cache-served phase. */
    void
    notePhase(std::size_t j, bool disk)
    {
        const PhaseSlot &slot = phases[j];
        std::vector<obs::Field> fields = {
            obs::Field::u64("phase", j),
            obs::Field::f64("seconds", slot.wall),
            obs::Field::boolean("kernel", slot.kernel),
            obs::Field::boolean("simd", slot.simd),
            obs::Field::u64("branches", slot.branches)};
        if (disk)
            fields.push_back(obs::Field::str("cache", "disk"));
        if (slot.carrier != noCell)
            fields.push_back(obs::Field::u64("carrier", slot.carrier));
        obs::note(journal, obs::EventKind::ProfilePhase,
                  programName(slot.programIndex), std::move(fields));
    }

    /** Cancellation and fail-fast, polled before each profiling
     * phase and cell starts; work in flight finishes normally. */
    std::optional<Error>
    gate(const char *subject) const
    {
        if (options.cancel && options.cancel()) {
            return Error(ErrorCode::Cancelled,
                         std::string("skipped: run cancelled before ") +
                             subject + " started");
        }
        if (abortRun.load(std::memory_order_relaxed)) {
            return Error(ErrorCode::CellFailed,
                         "skipped: fail-fast after an earlier failure");
        }
        return std::nullopt;
    }

    /** Open cell @p i's journal bracket and settle it when it needs
     * no simulation: invalid, restored, carried by its profiling twin,
     * gated off, or left without its shared phase. Returns whether it
     * still has to run. */
    bool
    openCell(std::size_t i)
    {
        const CellPlan &plan = plans[i];
        obs::note(journal, obs::EventKind::CellBegin, cells[i].label,
                  {obs::Field::u64("cell", i)});
        if (plan.invalid.has_value()) {
            failCell(i, *plan.invalid, 0);
            return false;
        }
        if (plan.carried) {
            // The profile stage ran it (or failed it); its events
            // follow here, inside the cells span, like every cell's.
            if (!result.cells[i].ok()) {
                noteCellError(i);
                return false;
            }
            writeCheckpoint(i);
            noteCellEnd(i);
            finishCell(i);
            return false;
        }
        if (plan.restored.has_value()) {
            // profileCached follows the plan, as in an uninterrupted
            // run; wallSeconds stays 0.
            CellResult &out = result.cells[i];
            out.result = plan.restored->result;
            out.usedKernel = plan.restored->usedKernel;
            out.usedSimd = plan.restored->usedSimd;
            out.profileCached = plan.phase != noPhase;
            out.restored = true;
            noteCellEnd(i);
            finishCell(i);
            return false;
        }
        if (std::optional<Error> skipped = gate("the cell")) {
            failCell(i, std::move(*skipped), 0);
            return false;
        }
        if (plan.phase != noPhase &&
            phases[plan.phase].error.has_value()) {
            const Error &phase_error = *phases[plan.phase].error;
            failCell(i,
                     Error(phase_error.code() == ErrorCode::Cancelled
                               ? ErrorCode::Cancelled
                               : ErrorCode::CellFailed,
                           "shared profiling phase failed")
                         .withContext(phase_error.describe()),
                     0);
            return false;
        }
        return true;
    }

    /** Open cell @p i and run its pre-evaluation work; nullopt when
     * it was settled instead. */
    std::optional<LiveCell>
    prepareCell(std::size_t i)
    {
        if (!openCell(i))
            return std::nullopt;
        LiveCell entry;
        if (std::optional<Error> failure = prepare(i, entry)) {
            result.cells[i].wallSeconds = entry.prepareSeconds;
            failCell(i, std::move(*failure), entry.attempts);
            return std::nullopt;
        }
        return entry;
    }

    /** Run cell @p i's pre-evaluation work into @p entry (filter,
     * selection over its shared phase, predictor) behind the cell
     * fault point, with retries; the failure that ended it, if any. */
    std::optional<Error>
    prepare(std::size_t i, LiveCell &entry)
    {
        const MatrixCell &cell = cells[i];
        const ExperimentConfig &config = cell.config;
        // Every scheme cell consumes its program's shared phase.
        const ProfilePhase *shared =
            plans[i].phase != noPhase ? &phases[plans[i].phase].phase
                                      : nullptr;

        ScopedTimer timer(timers, "runner.cell");
        entry.index = i;
        std::optional<Error> failure = attemptWithRetries(
            options.retries, entry.attempts, [&] {
                faultPoint(fault_points::cell, cell.label);
                entry.prepared = prepareEvaluationReplay(
                    nullptr,
                    runner.buffer(cell.programIndex, config.evalInput),
                    config, shared);
            });
        entry.prepareSeconds = timer.stop();
        if (failure.has_value())
            return std::move(*failure).withContext("while running cell " +
                                                   cell.label);
        return std::nullopt;
    }

    /** Prepare each member, then step every prepared predictor
     * through the shared eval buffer in one pass. A member's failure
     * takes down only that member. */
    void
    runCellChunk(const FusedGroupPlan &chunk)
    {
        std::vector<LiveCell> live;
        for (const std::size_t i : chunk.members) {
            if (std::optional<LiveCell> entry = prepareCell(i))
                live.push_back(std::move(*entry));
        }
        if (live.empty())
            return;

        const ReplayBuffer &eval_buffer =
            runner.buffer(chunk.programIndex, chunk.input);
        std::vector<FusedSim> sims(live.size());
        for (std::size_t k = 0; k < live.size(); ++k) {
            sims[k].predictor = live[k].prepared.combined.get();
            sims[k].options = evalSimOptions(
                cells[live[k].index].config, live[k].prepared);
        }
        ScopedTimer pass_timer(timers, "runner.fused_pass");
        unsigned pass_attempts = 0;
        std::optional<Error> pass_failure = attemptWithRetries(
            options.retries, pass_attempts, [&] {
                simulateReplayFused(
                    sims, eval_buffer,
                    siteFor(chunk.programIndex, chunk.input));
            });
        const double pass_wall = pass_timer.stop();
        if (pass_failure.has_value()) {
            for (const LiveCell &entry : live) {
                result.cells[entry.index].wallSeconds =
                    entry.prepareSeconds;
                failCell(entry.index,
                         Error(*pass_failure)
                             .withContext("while running cell " +
                                          cells[entry.index].label),
                         entry.attempts + pass_attempts - 1);
            }
            return;
        }

        std::vector<std::size_t> member_cells;
        std::vector<Count> member_branches;
        std::vector<Count> member_misps;
        Count group_branches = 0;
        for (std::size_t k = 0; k < live.size(); ++k) {
            const std::size_t i = live[k].index;
            const PhaseSlot *shared =
                plans[i].phase != noPhase ? &phases[plans[i].phase]
                                          : nullptr;
            CellResult &out = result.cells[i];
            out.result =
                evaluationResult(i, live[k].prepared, sims[k].stats);
            out.attempts = live[k].attempts + pass_attempts - 1;
            out.profileCached = shared != nullptr;
            out.usedKernel = sims[k].usedFastPath &&
                             (shared == nullptr || shared->kernel);
            out.usedSimd =
                sims[k].usedSimd && (shared == nullptr || shared->simd);
            out.wallSeconds = live[k].prepareSeconds + sims[k].seconds;
            writeCheckpoint(i);
            noteCellEnd(i);
            finishCell(i);
            member_cells.push_back(i);
            member_branches.push_back(sims[k].stats.branches);
            member_misps.push_back(sims[k].stats.mispredictions);
            group_branches += sims[k].stats.branches;
        }
        noteFusedGroup(
            chunk, "cells", member_cells, pass_wall, group_branches,
            {obs::Field::str("branches_per_cell",
                             joinIndexList(member_branches)),
             obs::Field::str("mispredictions_per_cell",
                             joinIndexList(member_misps))});
    }

    /** Fail cell @p i and close its bracket. */
    void
    failCell(std::size_t i, Error error, unsigned attempts)
    {
        recordFailure(i, std::move(error), attempts);
        noteCellError(i);
    }

    /** Record cell @p i's failure; with failFast, wave the rest of the
     * sweep off (not on cancellation, which would repaint the
     * remaining cells' errors as cell_failed). */
    void
    recordFailure(std::size_t i, Error error, unsigned attempts)
    {
        CellResult &out = result.cells[i];
        out.error = std::move(error);
        out.attempts = attempts;
        if (options.failFast &&
            out.error->code() != ErrorCode::Cancelled)
            abortRun.store(true, std::memory_order_relaxed);
    }

    /** Close cell @p i's bracket with its recorded failure. */
    void
    noteCellError(std::size_t i)
    {
        const CellResult &out = result.cells[i];
        obs::note(
            journal, obs::EventKind::CellError, cells[i].label,
            {obs::Field::u64("cell", i),
             obs::Field::str("code", errorCodeName(out.error->code())),
             obs::Field::str("message", out.error->message()),
             obs::Field::u64("attempts", out.attempts)});
        finishCell(i);
    }

    /** The progress hook, once per in-shard cell outcome. */
    void
    finishCell(std::size_t i)
    {
        if (options.onCellFinished)
            options.onCellFinished(i, result.cells[i]);
    }

    /** cell_end, plus scenario_cell's cross- vs self-context split
     * for a multi-context cell (the full NxN matrix is runner/bench
     * JSON payload, not a journal event). */
    void
    noteCellEnd(std::size_t i)
    {
        const CellResult &out = result.cells[i];
        std::vector<obs::Field> fields =
            cellEndFields(i, out.wallSeconds, out.result.stats,
                          out.result.hintCount);
        fields.insert(fields.end(),
                      {obs::Field::boolean("kernel", out.usedKernel),
                       obs::Field::boolean("simd", out.usedSimd),
                       obs::Field::boolean("profile_cached",
                                           out.profileCached),
                       obs::Field::boolean("restored", out.restored),
                       obs::Field::u64("simulated_branches",
                                       out.result.simulatedBranches)});
        obs::note(journal, obs::EventKind::CellEnd, cells[i].label,
                  std::move(fields));

        const std::vector<ContextAliasCell> &matrix =
            out.result.aliasMatrix;
        const std::size_t contexts = cells[i].config.scenarioContexts;
        if (contexts == 0 || matrix.size() != contexts * contexts)
            return;
        Count cross_collisions = 0;
        Count cross_destructive = 0;
        Count self_collisions = 0;
        Count self_destructive = 0;
        for (std::size_t victim = 0; victim < contexts; ++victim) {
            for (std::size_t aggr = 0; aggr < contexts; ++aggr) {
                const ContextAliasCell &entry =
                    matrix[victim * contexts + aggr];
                if (victim == aggr) {
                    self_collisions += entry.collisions;
                    self_destructive += entry.destructive;
                } else {
                    cross_collisions += entry.collisions;
                    cross_destructive += entry.destructive;
                }
            }
        }
        obs::note(
            journal, obs::EventKind::ScenarioCell, cells[i].label,
            {obs::Field::u64("cell", i),
             obs::Field::u64("contexts", contexts),
             obs::Field::u64("collisions_cross", cross_collisions),
             obs::Field::u64("destructive_cross", cross_destructive),
             obs::Field::u64("collisions_self", self_collisions),
             obs::Field::u64("destructive_self", self_destructive)});
    }

    /** Persist cell @p i before its journal event (a kill between
     * the two can only lose the cell, never record it twice); a
     * failed write warns instead of failing the cell. */
    void
    writeCheckpoint(std::size_t i)
    {
        if (checkpoint == nullptr)
            return;
        const CellResult &out = result.cells[i];
        try {
            faultPoint(fault_points::checkpointWrite, cells[i].label);
            CheckpointRecord record;
            record.fingerprint = plans[i].fingerprint;
            record.label = cells[i].label;
            record.result = out.result;
            record.usedKernel = out.usedKernel;
            record.usedSimd = out.usedSimd;
            record.phaseBranches =
                out.profileCached ? phases[plans[i].phase].branches : 0;
            const Result<void> recorded =
                checkpoint->record(std::move(record));
            if (!recorded.ok()) {
                std::fprintf(stderr,
                             "bpsim: warning: checkpoint write failed "
                             "for '%s': %s\n",
                             cells[i].label.c_str(),
                             recorded.error().describe().c_str());
            }
        } catch (const ErrorException &write_failure) {
            std::fprintf(stderr,
                         "bpsim: warning: checkpoint write failed for "
                         "'%s': %s\n",
                         cells[i].label.c_str(), write_failure.what());
        }
    }

    /** fused_group for one executed pass, and count it. */
    void
    noteFusedGroup(const FusedGroupPlan &chunk, const char *phase,
                   const std::vector<std::size_t> &members,
                   double seconds, Count branches,
                   std::vector<obs::Field> extra = {})
    {
        std::vector<obs::Field> fields = {
            obs::Field::str("phase", phase),
            obs::Field::u64("members", members.size()),
            obs::Field::str("cells", joinIndexList(members)),
            obs::Field::f64("seconds", seconds),
            obs::Field::u64("branches", branches)};
        fields.insert(fields.end(), extra.begin(), extra.end());
        obs::note(journal, obs::EventKind::FusedGroup,
                  programName(chunk.programIndex) + "/" +
                      inputSetName(chunk.input),
                  std::move(fields));
        fusedGroupCount.fetch_add(1, std::memory_order_relaxed);
    }

    /** The buffer's SiteIndex, built once by whichever chunk needs
     * it first (pure acceleration: results do not depend on it). */
    const SiteIndex *
    siteFor(std::size_t program_index, InputSet input)
    {
        SiteSlot &slot =
            siteSlots[program_index][static_cast<unsigned>(input)];
        std::call_once(slot.once, [&] {
            ScopedTimer timer(timers, "runner.site_index");
            slot.index = std::make_unique<SiteIndex>(
                SiteIndex::build(runner.buffer(program_index, input)));
        });
        return slot.index.get();
    }

    /** The ExperimentResult of cell @p i's executed evaluation, its
     * context split shared with every cell measuring the same
     * window. */
    ExperimentResult
    evaluationResult(std::size_t i, const PreparedEvaluation &prepared,
                     const SimStats &stats)
    {
        const MatrixCell &cell = cells[i];
        const ExperimentConfig &config = cell.config;
        if (config.scenarioContexts == 0)
            return finishPreparedEvaluation(prepared, config, stats);
        const Count begin = config.evalWarmupBranches;
        const SplitKey key{cell.programIndex,
                           static_cast<unsigned>(config.evalInput), begin,
                           begin + stats.branches,
                           config.scenarioContexts};
        SplitSlot *slot = nullptr;
        {
            std::lock_guard<std::mutex> guard(splitLock);
            std::unique_ptr<SplitSlot> &held = splitSlots[key];
            if (held == nullptr)
                held = std::make_unique<SplitSlot>();
            slot = held.get();
        }
        std::call_once(slot->once, [&] {
            ScopedTimer timer(timers, "runner.context_split");
            slot->split = contextSplitOf(
                runner.buffer(cell.programIndex, config.evalInput),
                std::get<2>(key), std::get<3>(key), std::get<4>(key));
        });
        return finishPreparedEvaluation(prepared, config, stats,
                                        slot->split);
    }

    const std::string &
    programName(std::size_t program_index) const
    {
        return runner.programs[program_index]->name();
    }

    ExperimentRunner &runner;
    const RunnerOptions &options;
    const std::vector<MatrixCell> &cells;
    obs::RunJournal *journal;
    TimerRegistry *timers;
    std::unique_ptr<SweepCheckpoint> checkpoint;
    std::vector<CellPlan> plans;
    std::vector<PhaseSlot> phases;

    /** Phases left to run, in plan order. */
    std::vector<std::size_t> phaseExec;
    std::vector<std::array<SiteSlot, numInputSets>> siteSlots;
    std::mutex splitLock;
    std::map<SplitKey, std::unique_ptr<SplitSlot>> splitSlots;
    std::atomic<bool> abortRun{false};
    std::atomic<Count> fusedGroupCount{0};
    std::chrono::steady_clock::time_point runStart;
};

MatrixResult
ExperimentRunner::run()
{
    Sweep sweep(*this);
    sweep.plan();
    obs::Span span = obs::Span::run(options.journal, sweep.runBegin());
    sweep.materialize();
    sweep.profile();
    sweep.execute();
    sweep.result.wallSeconds = span.close(sweep.aggregate());
    return std::move(sweep.result);
}

void
writeRunnerJson(const std::string &path, const std::string &bench,
                const ExperimentRunner &runner,
                const MatrixResult &result)
{
    AtomicFile writer(path);
    if (!writer.ok())
        bpsim_fatal("cannot write '", path, "'");
    std::FILE *file = writer.stream();

    std::fprintf(file, "{\n");
    std::fprintf(file, "  \"bench\": \"%s\",\n", bench.c_str());
    std::fprintf(file, "  \"threads\": %u,\n", result.threads);
    std::fprintf(file, "  \"cells\": [\n");
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CellResult &cell = result.cells[i];
        const MatrixCell &meta = runner.cell(i);
        std::fprintf(
            file,
            "    {\"label\": \"%s\", \"program\": \"%s\", "
            "\"misp_ki\": %.6f, \"hints\": %zu, "
            "\"branches\": %llu, \"wall_seconds\": %.6f, "
            "\"branches_per_second\": %.1f, "
            "\"kernel\": %s, \"simd\": %s, \"profile_cached\": %s",
            meta.label.c_str(),
            runner.program(meta.programIndex).name().c_str(),
            cell.result.stats.mispKi(), cell.result.hintCount,
            static_cast<unsigned long long>(
                cell.result.simulatedBranches),
            cell.wallSeconds, cell.branchesPerSecond(),
            cell.usedKernel ? "true" : "false",
            cell.usedSimd ? "true" : "false",
            cell.profileCached ? "true" : "false");
        if (cell.restored)
            std::fprintf(file, ", \"restored\": true");
        if (cell.shardSkipped)
            std::fprintf(file, ", \"shard_skipped\": true");
        // Scenario cells carry the per-context breakdown and the
        // full NxN interference matrix (victim-major order).
        if (meta.config.scenarioContexts > 0 &&
            !cell.result.contextStats.empty()) {
            const std::size_t contexts =
                cell.result.contextStats.size();
            std::fprintf(file,
                         ", \"scenario\": true, \"contexts\": %zu",
                         contexts);
            std::fprintf(file, ", \"context_stats\": [");
            for (std::size_t c = 0; c < contexts; ++c) {
                const ContextStats &ctx =
                    cell.result.contextStats[c];
                std::fprintf(
                    file,
                    "%s{\"context\": %zu, \"branches\": %llu, "
                    "\"instructions\": %llu, "
                    "\"mispredictions\": %llu, \"misp_ki\": %.6f, "
                    "\"static_predicted\": %llu, "
                    "\"collisions\": %llu}",
                    c == 0 ? "" : ", ", c,
                    static_cast<unsigned long long>(ctx.branches),
                    static_cast<unsigned long long>(
                        ctx.instructions),
                    static_cast<unsigned long long>(
                        ctx.mispredictions),
                    ctx.mispKi(),
                    static_cast<unsigned long long>(
                        ctx.staticPredicted),
                    static_cast<unsigned long long>(
                        ctx.collisions));
            }
            std::fprintf(file, "]");
            if (cell.result.aliasMatrix.size() ==
                contexts * contexts) {
                std::fprintf(file, ", \"interference\": [");
                for (std::size_t v = 0; v < contexts; ++v) {
                    for (std::size_t a = 0; a < contexts; ++a) {
                        const ContextAliasCell &pair =
                            cell.result
                                .aliasMatrix[v * contexts + a];
                        std::fprintf(
                            file,
                            "%s{\"victim\": %zu, "
                            "\"aggressor\": %zu, "
                            "\"collisions\": %llu, "
                            "\"constructive\": %llu, "
                            "\"destructive\": %llu}",
                            v == 0 && a == 0 ? "" : ", ", v, a,
                            static_cast<unsigned long long>(
                                pair.collisions),
                            static_cast<unsigned long long>(
                                pair.constructive),
                            static_cast<unsigned long long>(
                                pair.destructive));
                    }
                }
                std::fprintf(file, "]");
            }
        }
        if (!cell.ok()) {
            std::fprintf(
                file,
                ", \"error\": {\"code\": \"%s\", \"message\": %s, "
                "\"attempts\": %u}",
                errorCodeName(cell.error->code()),
                jsonQuote(cell.error->message()).c_str(),
                cell.attempts);
        }
        std::fprintf(file, "}%s\n",
                     i + 1 < result.cells.size() ? "," : "");
    }
    std::fprintf(file, "  ],\n");
    const auto count = [file](const char *key, unsigned long long value) {
        std::fprintf(file, "  \"%s\": %llu,\n", key, value);
    };
    const auto seconds = [file](const char *key, double value) {
        std::fprintf(file, "  \"%s\": %.6f,\n", key, value);
    };
    seconds("materialize_seconds", result.materializeSeconds);
    seconds("profile_seconds", result.profileSeconds);
    count("profile_cache_hits", result.profileCacheHits);
    count("profile_cache_misses", result.profileCacheMisses);
    count("kernel_cells", result.kernelCells);
    count("simd_cells", result.simdCells);
    std::fprintf(file, "  \"dispatch\": \"%s\",\n",
                 result.dispatch.c_str());
    count("simd_width", result.simdLanes);
    count("fused_groups", result.fusedGroups);
    count("failed_cells", result.failedCells);
    count("restored_cells", result.restoredCells);
    count("shard_index", result.shardIndex);
    count("shard_count", result.shardCount);
    count("shard_cells", result.shardCells);
    count("shard_skipped_cells", result.shardSkippedCells);
    count("cache_replay_hits", result.cacheReplayHits);
    count("cache_replay_misses", result.cacheReplayMisses);
    count("cache_profile_hits", result.cacheProfileHits);
    count("cache_profile_misses", result.cacheProfileMisses);
    count("cache_corrupt", result.cacheCorrupt);
    count("mmap_bytes", result.mappedBytes);
    seconds("run_seconds", result.runSeconds);
    seconds("wall_seconds", result.wallSeconds);
    count("total_branches", result.totalBranches);
    count("actual_branches", result.actualBranches);
    std::fprintf(file, "  \"kernel_branches_per_second\": %.1f,\n",
                 result.kernelBranchesPerSecond());
    std::fprintf(
        file, "  \"branches_per_second\": %.1f,\n",
        result.wallSeconds > 0.0
            ? static_cast<double>(result.totalBranches) /
                  result.wallSeconds
            : 0.0);
    count("replay_buffer_bytes", result.replayBytes);
    seconds("serial_estimate_seconds", result.serialEstimateSeconds());
    std::fprintf(file, "  \"speedup_vs_serial_estimate\": %.3f\n",
                 result.speedupVsSerialEstimate());
    std::fprintf(file, "}\n");
    const Result<void> committed = writer.commit();
    if (!committed.ok())
        bpsim_fatal(committed.error().describe());
}

} // namespace bpsim
