/**
 * @file
 * The bpsim command-line simulator: run any predictor over any
 * workload or trace, with or without profile-directed static
 * prediction, and get either a human-readable report or a CSV row.
 *
 * Subcommands:
 *
 *   bpsim_cli run    [options]  one simulation
 *   bpsim_cli sweep  [options]  size sweep (comma-separated --sizes)
 *   bpsim_cli merge  [options]  combine shard checkpoints into one
 *   bpsim_cli client [options]  submit a request to a bpsim_serve
 *   bpsim_cli list              available programs/predictors/schemes
 *
 * Examples:
 *   bpsim_cli run --program gcc --predictor 2bcgskew:8192 \
 *       --scheme static_acc --shift shift
 *   bpsim_cli run --trace gcc.trace --predictor gshare:4096 --csv
 *   bpsim_cli sweep --program go --predictor gshare \
 *       --sizes 1024,4096,16384 --scheme static_95
 *   bpsim_cli sweep --shard 1/2 --checkpoint s1.jsonl \
 *       --cache-dir /tmp/bpsim-cache ...   # one process per shard
 *   bpsim_cli merge --out merged.jsonl s1.jsonl s2.jsonl
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/cpi_model.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/simd.hh"
#include "obs/run_journal.hh"
#include "predictor/registry.hh"
#include "scenario/scenario.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "support/args.hh"
#include "support/atomic_file.hh"
#include "support/error.hh"
#include "trace/trace_io.hh"
#include "workload/specint.hh"

using namespace bpsim;

namespace
{

/**
 * Journal wiring for one CLI invocation (--journal): opens the
 * journal when requested, brackets each simulation as a
 * cell_begin/cell_end pair carrying the same stat-snapshot fields the
 * matrix runner emits, and writes the JSONL + metrics files from
 * finish().
 */
class CliJournal
{
  public:
    CliJournal(std::string path, std::string label)
        : path(std::move(path))
    {
        if (this->path.empty())
            return;
        const SimdLevel level = resolveSimdLevel();
        journal =
            std::make_unique<obs::RunJournal>(std::move(label));
        journal->record(
            obs::EventKind::RunBegin, 0, journal->runLabel(),
            {obs::Field::u64("threads", 1),
             obs::Field::str("dispatch", simdLevelName(level)),
             obs::Field::u64("simd_width", simdWidth(level))});
    }

    CounterRegistry *
    counters()
    {
        return journal ? &journal->counters() : nullptr;
    }

    TimerRegistry *
    timers()
    {
        return journal ? &journal->timers() : nullptr;
    }

    void
    beginCell(const std::string &label)
    {
        if (journal == nullptr)
            return;
        journal->record(obs::EventKind::CellBegin, 0, label,
                        {obs::Field::u64("cell", cells)});
    }

    void
    endCell(const std::string &label, double seconds,
            std::size_t hints, const SimStats &stats)
    {
        if (journal == nullptr)
            return;
        const Count classified = stats.collisions.constructive +
                                 stats.collisions.destructive;
        const Count neutral = stats.collisions.collisions > classified
                                  ? stats.collisions.collisions -
                                        classified
                                  : 0;
        journal->record(
            obs::EventKind::CellEnd, 0, label,
            {obs::Field::u64("cell", cells),
             obs::Field::f64("seconds", seconds),
             obs::Field::u64("branches", stats.branches),
             obs::Field::u64("instructions", stats.instructions),
             obs::Field::u64("mispredictions", stats.mispredictions),
             obs::Field::f64("misp_ki", stats.mispKi()),
             obs::Field::u64("hints", hints),
             obs::Field::u64("static_predicted",
                             stats.staticPredicted),
             obs::Field::u64("lookups", stats.collisions.lookups),
             obs::Field::u64("collisions",
                             stats.collisions.collisions),
             obs::Field::u64("constructive",
                             stats.collisions.constructive),
             obs::Field::u64("destructive",
                             stats.collisions.destructive),
             obs::Field::u64("neutral", neutral)});
        ++cells;
    }

    void
    finish()
    {
        if (journal == nullptr)
            return;
        journal->record(
            obs::EventKind::RunEnd, 0, journal->runLabel(),
            {obs::Field::f64("seconds",
                             journal->secondsSinceStart()),
             obs::Field::u64("cells", cells)});
        journal->writeJsonl(path);
        const std::string metrics =
            obs::RunJournal::metricsPathFor(path);
        journal->writeMetrics(metrics);
        std::printf("journal: %s\nmetrics: %s\n", path.c_str(),
                    metrics.c_str());
    }

  private:
    std::string path;
    std::unique_ptr<obs::RunJournal> journal;
    Count cells = 0;
};

ShiftPolicy
shiftFromName(const std::string &name)
{
    if (name == "noshift")
        return ShiftPolicy::NoShift;
    if (name == "shift")
        return ShiftPolicy::ShiftOutcome;
    if (name == "shiftpred")
        return ShiftPolicy::ShiftPrediction;
    bpsim_fatal("unknown shift policy '", name,
                "' (expected noshift/shift/shiftpred)");
}

void
addCommonOptions(ArgParser &args)
{
    args.addOption("program", "gcc",
                   "synthetic workload to run "
                   "(go/gcc/perl/m88ksim/compress/ijpeg)");
    args.addOption("trace", "",
                   "binary trace file to replay instead of a "
                   "synthetic program (run only)");
    args.addOption("input", "ref", "input set: train or ref");
    args.addOption("branches", "2000000",
                   "branches in the measured window");
    args.addOption("warmup", "0", "unmeasured warmup branches");
    args.addOption("seed", "2000", "workload seed");
    args.addOption("scheme", "none",
                   "static selection scheme: none/static_95/"
                   "static_acc/static_fac/static_alias");
    args.addOption("shift", "noshift",
                   "history policy for static branches: "
                   "noshift/shift/shiftpred");
    args.addOption("profile-input", "",
                   "input profiled in phase 1 (default: same as "
                   "--input, i.e. self-trained)");
    args.addOption("profile-branches", "1000000",
                   "branches simulated in the profiling phase");
    args.addOption("cutoff", "0.95", "Static_95 bias cutoff");
    args.addFlag("filter-unstable",
                 "apply the cross-training merge filter (5% rule)");
    args.addFlag("csv", "emit one machine-readable CSV row per run");
    args.addOption("journal", "",
                   "write the structured run journal (JSONL) to this "
                   "path; the metrics summary lands next to it "
                   "(empty = disabled)");
}

/** Split a comma-separated name list ("go,gcc,perl"). */
std::vector<std::string>
splitNames(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const auto comma = list.find(',', pos);
        names.push_back(list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return names;
}

SyntheticProgram
makeProgram(const ArgParser &args)
{
    const InputSet input = args.get("input") == "train"
                               ? InputSet::Train
                               : InputSet::Ref;
    return makeSpecProgram(specProgramFromName(args.get("program")),
                           input, args.getUint("seed"));
}

void
printCsvHeaderOnce(bool &done)
{
    if (done)
        return;
    std::printf("workload,predictor,size_bytes,scheme,shift,hints,"
                "branches,instructions,mispredictions,misp_ki,"
                "accuracy_pct,static_share_pct,collisions,"
                "destructive,cpi\n");
    done = true;
}

void
report(const ArgParser &args, const std::string &workload,
       const std::string &predictor_name, std::size_t size_bytes,
       const std::string &scheme, const std::string &shift,
       std::size_t hints, const SimStats &stats, bool &csv_header)
{
    if (args.getFlag("csv")) {
        printCsvHeaderOnce(csv_header);
        std::printf("%s,%s,%zu,%s,%s,%zu,%llu,%llu,%llu,%.4f,%.4f,"
                    "%.4f,%llu,%llu,%.4f\n",
                    workload.c_str(), predictor_name.c_str(),
                    size_bytes, scheme.c_str(), shift.c_str(), hints,
                    static_cast<unsigned long long>(stats.branches),
                    static_cast<unsigned long long>(
                        stats.instructions),
                    static_cast<unsigned long long>(
                        stats.mispredictions),
                    stats.mispKi(), stats.accuracyPercent(),
                    stats.staticShare(),
                    static_cast<unsigned long long>(
                        stats.collisions.collisions),
                    static_cast<unsigned long long>(
                        stats.collisions.destructive),
                    estimateCpi(stats));
        return;
    }
    std::printf("%-10s %-16s %8zuB %-12s %-8s hints=%-6zu "
                "MISP/KI=%7.2f acc=%6.2f%% static=%5.1f%% "
                "coll=%llu cpi=%.3f\n",
                workload.c_str(), predictor_name.c_str(), size_bytes,
                scheme.c_str(), shift.c_str(), hints, stats.mispKi(),
                stats.accuracyPercent(), stats.staticShare(),
                static_cast<unsigned long long>(
                    stats.collisions.collisions),
                estimateCpi(stats));
}

int
cmdRun(int argc, char **argv)
{
    ArgParser args("bpsim_cli run");
    addCommonOptions(args);
    args.addOption("predictor", "gshare:8192",
                   "predictor spec name[:bytes]");
    args.parse(argc, argv, 2);

    const StaticScheme scheme =
        staticSchemeFromName(args.get("scheme"));
    bool csv_header = false;
    CliJournal journal(args.get("journal"), "bpsim_cli run");

    if (!args.get("trace").empty()) {
        // Trace replay: static schemes need a workload to re-run for
        // phase 1, so only plain dynamic prediction is offered here.
        if (scheme != StaticScheme::None)
            bpsim_fatal("--trace replay supports --scheme none only");
        TraceReader reader(args.get("trace"));
        auto predictor = makePredictor(args.get("predictor"));
        SimOptions options;
        options.maxBranches = args.getUint("branches");
        options.warmupBranches = args.getUint("warmup");
        options.counters = journal.counters();
        const std::string label =
            args.get("trace") + "/" + predictor->name();
        journal.beginCell(label);
        ScopedTimer timer(journal.timers(), "cli.run");
        const SimStats stats = simulate(*predictor, reader, options);
        journal.endCell(label, timer.stop(), 0, stats);
        report(args, args.get("trace"), predictor->name(),
               predictor->sizeBytes(), "none", "noshift", 0, stats,
               csv_header);
        journal.finish();
        return 0;
    }

    SyntheticProgram program = makeProgram(args);
    auto probe = makePredictor(args.get("predictor"));
    const std::string spec = args.get("predictor");
    const std::string kind_name = spec.substr(0, spec.find(':'));

    if (scheme == StaticScheme::None) {
        SimOptions options;
        options.maxBranches = args.getUint("branches");
        options.warmupBranches = args.getUint("warmup");
        options.counters = journal.counters();
        auto predictor = makePredictor(spec);
        const std::string label =
            program.name() + "/" + predictor->name() + "/none";
        journal.beginCell(label);
        ScopedTimer timer(journal.timers(), "cli.run");
        const SimStats stats = simulate(*predictor, program, options);
        journal.endCell(label, timer.stop(), 0, stats);
        report(args, program.name(), predictor->name(),
               predictor->sizeBytes(), "none", "noshift", 0, stats,
               csv_header);
        journal.finish();
        return 0;
    }

    // Two-phase experiment path (paper methodology) over the live
    // program's streams; any registered predictor works.
    Result<ParsedPredictorSpec> parsed = parsePredictorSpec(spec);
    if (!parsed.ok())
        raise(std::move(parsed.error()));
    ExperimentConfig config;
    config.predictor = parsed.value().info->name;
    config.sizeBytes = parsed.value().bytes;
    config.scheme = scheme;
    config.shift = shiftFromName(args.get("shift"));
    config.evalBranches = args.getUint("branches");
    config.profileBranches = args.getUint("profile-branches");
    config.selection.cutoffBias = args.getDouble("cutoff");
    config.evalInput = args.get("input") == "train" ? InputSet::Train
                                                    : InputSet::Ref;
    config.profileInput =
        args.get("profile-input").empty()
            ? config.evalInput
            : (args.get("profile-input") == "train" ? InputSet::Train
                                                    : InputSet::Ref);
    config.filterUnstable = args.getFlag("filter-unstable");
    config.evalWarmupBranches = args.getUint("warmup");
    config.counters = journal.counters();

    const std::string label = program.name() + "/" + kind_name + ":" +
                              std::to_string(config.sizeBytes) + "/" +
                              args.get("scheme");
    journal.beginCell(label);
    ScopedTimer timer(journal.timers(), "cli.run");
    const ExperimentResult result = runExperiment(program, config);
    journal.endCell(label, timer.stop(), result.hintCount,
                    result.stats);
    report(args, program.name(), kind_name, config.sizeBytes,
           args.get("scheme"), args.get("shift"), result.hintCount,
           result.stats, csv_header);
    journal.finish();
    return 0;
}

/**
 * Parse the comma-separated --sizes list. Rejects empty, non-numeric
 * and zero tokens with a structured config_invalid error instead of
 * the unhandled std::stoul exception the original parser threw.
 */
std::vector<std::size_t>
parseSizes(const std::string &list)
{
    std::vector<std::size_t> sizes;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const auto comma = list.find(',', pos);
        const std::string token =
            list.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        errno = 0;
        char *end = nullptr;
        const unsigned long long value =
            std::strtoull(token.c_str(), &end, 10);
        if (token.empty() || end != token.c_str() + token.size() ||
            errno == ERANGE || value == 0) {
            raise(Error(ErrorCode::ConfigInvalid,
                        "--sizes expects comma-separated positive "
                        "byte counts, got '" +
                            token + "'")
                      .withContext("see --help for usage"));
        }
        sizes.push_back(static_cast<std::size_t>(value));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return sizes;
}

int
cmdSweep(int argc, char **argv)
{
    ArgParser args("bpsim_cli sweep");
    addCommonOptions(args);
    args.addOption("predictor", "gshare",
                   "predictor kind (no size suffix)");
    args.addOption("sizes", "1024,2048,4096,8192,16384,32768,65536",
                   "comma-separated byte sizes");
    addThreadsOption(args);
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
                   "cells are partitioned by fingerprint hash, so N "
                   "processes with the same matrix cover it exactly "
                   "once");
    args.addOption("cache-dir", "",
                   "content-addressed artifact cache directory: "
                   "replay buffers and profiling phases are persisted "
                   "there and mmap'd back on later (or concurrent) "
                   "runs (empty = disabled)");
    args.addOption("scenario", "",
                   "interleave several programs into one shared "
                   "predictor: smt/ctxsw/server (empty = plain "
                   "single-program sweep)");
    args.addOption("programs", "",
                   "comma-separated member programs for --scenario, "
                   "context id = position (default: --program alone)");
    args.addOption("quantum", "20000",
                   "branches per scheduling quantum "
                   "(--scenario ctxsw)");
    args.addOption("zipf", "1.2",
                   "Zipf exponent of the tenant popularity skew "
                   "(--scenario server)");
    args.parse(argc, argv, 2);

    Result<ParsedPredictorSpec> parsed =
        parsePredictorSpec(args.get("predictor"));
    if (!parsed.ok())
        raise(std::move(parsed.error()));
    const std::string predictor_name = parsed.value().info->name;
    const StaticScheme scheme =
        staticSchemeFromName(args.get("scheme"));
    const std::vector<std::size_t> sizes =
        parseSizes(args.get("sizes"));
    if (args.getFlag("resume") && args.get("checkpoint").empty()) {
        raise(Error(ErrorCode::ConfigInvalid,
                    "--resume needs --checkpoint")
                  .withContext("see --help for usage"));
    }

    const std::string journal_path = args.get("journal");
    std::unique_ptr<obs::RunJournal> journal;
    if (!journal_path.empty()) {
        journal =
            std::make_unique<obs::RunJournal>("bpsim_cli sweep");
    }

    RunnerOptions options;
    options.threads = threadsFromArgs(args);
    options.journal = journal.get();
    options.retries = static_cast<unsigned>(args.getUint("retries"));
    options.failFast = args.getFlag("fail-fast");
    options.checkpointPath = args.get("checkpoint");
    options.resume = args.getFlag("resume");
    options.cacheDir = args.get("cache-dir");
    if (!args.get("shard").empty()) {
        Result<std::pair<unsigned, unsigned>> shard =
            parseShardSpec(args.get("shard"));
        if (!shard.ok())
            raise(std::move(shard.error()));
        options.shardIndex = shard.value().first;
        options.shardCount = shard.value().second;
    }

    ExperimentRunner runner(options);
    std::size_t scenario_contexts = 0;
    std::size_t program_index = 0;
    if (!args.get("scenario").empty()) {
        Result<ScenarioKind> kind =
            parseScenarioKind(args.get("scenario"));
        if (!kind.ok())
            raise(std::move(kind.error()));
        const InputSet input = args.get("input") == "train"
                                   ? InputSet::Train
                                   : InputSet::Ref;
        const std::string member_list = args.get("programs").empty()
                                            ? args.get("program")
                                            : args.get("programs");
        std::vector<SyntheticProgram> members;
        for (const std::string &name : splitNames(member_list)) {
            members.push_back(
                makeSpecProgram(specProgramFromName(name), input,
                                args.getUint("seed")));
        }
        ScenarioSpec scenario_spec;
        scenario_spec.kind = kind.value();
        scenario_spec.quantum = args.getUint("quantum");
        scenario_spec.zipfExponent = args.getDouble("zipf");
        scenario_contexts = members.size();
        program_index =
            runner.addWorkload(std::make_unique<ScenarioWorkload>(
                scenario_spec, std::move(members)));
    } else {
        program_index = runner.addProgram(makeProgram(args));
    }
    const std::string program_name =
        runner.program(program_index).name();

    for (const std::size_t bytes : sizes) {
        ExperimentConfig config;
        config.predictor = predictor_name;
        config.sizeBytes = bytes;
        config.scheme = scheme;
        config.shift = shiftFromName(args.get("shift"));
        config.evalBranches = args.getUint("branches");
        config.evalWarmupBranches = args.getUint("warmup");
        config.profileBranches = args.getUint("profile-branches");
        config.selection.cutoffBias = args.getDouble("cutoff");
        config.scenarioContexts = scenario_contexts;
        config.counters =
            journal != nullptr ? &journal->counters() : nullptr;
        runner.addCell(program_index, config,
                       program_name + "/" + args.get("predictor") +
                           ":" + std::to_string(bytes) + "/" +
                           args.get("scheme"));
    }

    const MatrixResult matrix = runner.run();

    bool csv_header = false;
    Count failed = 0;
    for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
        const CellResult &cell = matrix.cells[i];
        if (cell.shardSkipped)
            continue;
        if (!cell.ok()) {
            ++failed;
            std::fprintf(stderr,
                         "bpsim_cli sweep: cell '%s' failed: %s\n",
                         runner.cell(i).label.c_str(),
                         cell.error->describe().c_str());
            continue;
        }
        report(args, program_name, args.get("predictor"), sizes[i],
               args.get("scheme"), args.get("shift"),
               cell.result.hintCount, cell.result.stats, csv_header);
    }

    if (journal != nullptr) {
        journal->writeJsonl(journal_path);
        const std::string metrics =
            obs::RunJournal::metricsPathFor(journal_path);
        journal->writeMetrics(metrics);
        std::printf("journal: %s\nmetrics: %s\n",
                    journal_path.c_str(), metrics.c_str());
    }
    return failed == 0 ? 0 : 1;
}

/**
 * Combine a complete set of shard checkpoints into one plain
 * checkpoint an unsharded --resume run restores in full. Validation
 * (disjointness, completeness, matching matrices) happens in
 * mergeShardCheckpoints; any violation is a config_invalid usage
 * error.
 */
int
cmdMerge(int argc, char **argv)
{
    ArgParser args("bpsim_cli merge");
    args.addOption("out", "merged.jsonl",
                   "write the merged checkpoint here");
    args.addOption("summary", "",
                   "write the bpsim-merge-v1 summary JSON here "
                   "(default: <out>.merge.json)");
    args.parse(argc, argv, 2);

    const std::vector<std::string> &shards = args.positional();
    if (shards.empty()) {
        raise(Error(ErrorCode::ConfigInvalid,
                    "merge needs at least one shard checkpoint path")
                  .withContext("usage: bpsim_cli merge --out "
                               "merged.jsonl shard1.jsonl ..."));
    }
    Result<MergeSummary> merged =
        mergeShardCheckpoints(shards, args.get("out"));
    if (!merged.ok())
        raise(std::move(merged.error()));

    const std::string summary_path = args.get("summary").empty()
                                         ? args.get("out") +
                                               ".merge.json"
                                         : args.get("summary");
    const std::string summary_json =
        renderMergeSummaryJson(merged.value(), args.get("out"));
    Result<void> written =
        writeFileAtomic(summary_path, summary_json);
    if (!written.ok()) {
        raise(std::move(written.error())
                  .withContext("while writing merge summary"));
    }

    std::printf("merged %llu records from %u shards (%llu matrix "
                "cells) into %s\nsummary: %s\n",
                static_cast<unsigned long long>(
                    merged.value().records),
                merged.value().shardCount,
                static_cast<unsigned long long>(
                    merged.value().matrixCells),
                args.get("out").c_str(), summary_path.c_str());
    return 0;
}

/**
 * The label a compiled cell carries is
 * "program/predictor:bytes/scheme"; recover the byte size for
 * reporting (a response cell does not store it as its own field).
 */
std::size_t
bytesFromLabel(const std::string &label)
{
    const std::size_t colon = label.rfind(':');
    if (colon == std::string::npos)
        return 0;
    return static_cast<std::size_t>(
        std::strtoull(label.c_str() + colon + 1, nullptr, 10));
}

/** Append protocol lines to the --save transcript (JSONL). */
void
appendTranscript(const std::string &path,
                 const std::vector<std::string> &lines)
{
    std::FILE *file = std::fopen(path.c_str(), "a");
    if (file == nullptr) {
        raise(Error(ErrorCode::IoFailure,
                    "cannot open transcript '" + path +
                        "': " + std::strerror(errno)));
    }
    for (const std::string &line : lines)
        std::fprintf(file, "%s\n", line.c_str());
    std::fclose(file);
}

/**
 * Submit one request to a running bpsim_serve daemon and report the
 * reply: response cells print through the same report() path as
 * local runs (so daemon and batch output are directly diffable), and
 * --save appends the raw request/response JSONL lines for the
 * `check_bench_json.py --schema service` validator.
 */
int
cmdClient(int argc, char **argv)
{
    ArgParser args("bpsim_cli client");
    args.addOption("socket", "bpsim.sock",
                   "unix socket the daemon listens on");
    args.addOption("op", "sweep",
                   "operation: run/sweep/status/cancel/shutdown");
    args.addOption("id", "",
                   "request id echoed in the response (default: "
                   "derived from the parameters)");
    args.addOption("target", "",
                   "request id to cancel (--op cancel)");
    args.addOption("deadline-ms", "0",
                   "cooperative deadline in ms; an expired request "
                   "keeps its finished cells checkpointed for a "
                   "resubmit (0 = none)");
    args.addOption("fault", "",
                   "fault-injection spec forwarded with the request "
                   "(daemon must run with --allow-fault-inject)");
    args.addOption("save", "",
                   "append the request and response JSONL lines to "
                   "this transcript (empty = disabled)");
    args.addOption("program", "gcc",
                   "synthetic workload to run "
                   "(go/gcc/perl/m88ksim/compress/ijpeg)");
    args.addOption("input", "ref", "input set: train or ref");
    args.addOption("seed", "2000", "workload seed");
    args.addOption("predictor", "gshare",
                   "predictor kind (no size suffix)");
    args.addOption("sizes", "8192", "comma-separated byte sizes");
    args.addOption("scheme", "none",
                   "static selection scheme: none/static_95/"
                   "static_acc/static_fac/static_alias");
    args.addOption("shift", "noshift",
                   "history policy for static branches: "
                   "noshift/shift/shiftpred");
    args.addOption("branches", "2000000",
                   "branches in the measured window");
    args.addOption("warmup", "0", "unmeasured warmup branches");
    args.addOption("profile-branches", "1000000",
                   "branches simulated in the profiling phase");
    args.addOption("profile-input", "",
                   "input profiled in phase 1 (default: same as "
                   "--input, i.e. self-trained)");
    args.addOption("cutoff", "0.95", "Static_95 bias cutoff");
    args.addFlag("filter-unstable",
                 "apply the cross-training merge filter (5% rule)");
    args.addOption("scenario", "",
                   "interleave several programs into one shared "
                   "predictor: smt/ctxsw/server (empty = plain "
                   "single-program sweep)");
    args.addOption("programs", "",
                   "comma-separated member programs for --scenario, "
                   "context id = position (default: --program alone)");
    args.addOption("quantum", "20000",
                   "branches per scheduling quantum "
                   "(--scenario ctxsw)");
    args.addOption("zipf", "1.2",
                   "Zipf exponent of the tenant popularity skew "
                   "(--scenario server)");
    args.addFlag("csv", "emit one machine-readable CSV row per cell");
    args.parse(argc, argv, 2);

    service::ServiceRequest request;
    Result<service::RequestKind> kind =
        service::requestKindFromName(args.get("op"));
    if (!kind.ok())
        raise(std::move(kind.error()));
    request.kind = kind.value();
    request.deadlineMs = args.getUint("deadline-ms");
    request.faultSpec = args.get("fault");
    request.targetId = args.get("target");
    request.sweep.program = args.get("program");
    request.sweep.input = args.get("input");
    request.sweep.seed = args.getUint("seed");
    request.sweep.predictor = args.get("predictor");
    request.sweep.sizes = parseSizes(args.get("sizes"));
    request.sweep.scheme = args.get("scheme");
    request.sweep.shift = args.get("shift");
    request.sweep.evalBranches = args.getUint("branches");
    request.sweep.warmupBranches = args.getUint("warmup");
    request.sweep.profileBranches = args.getUint("profile-branches");
    request.sweep.profileInput = args.get("profile-input");
    request.sweep.cutoff = args.getDouble("cutoff");
    request.sweep.filterUnstable = args.getFlag("filter-unstable");
    request.sweep.scenario = args.get("scenario");
    if (!request.sweep.scenario.empty()) {
        request.sweep.programs =
            splitNames(args.get("programs").empty()
                           ? args.get("program")
                           : args.get("programs"));
        request.sweep.quantum = args.getUint("quantum");
        request.sweep.zipf = args.getDouble("zipf");
    }
    request.id = args.get("id");
    if (request.id.empty()) {
        // Deterministic default so resubmitting the same command
        // line correlates naturally in the daemon's journal.
        request.id = args.get("op") + "-" + request.sweep.program +
                     "-" + request.sweep.predictor + "-" +
                     args.get("sizes") + "-" + request.sweep.scheme;
    }

    Result<service::ServiceClient> client =
        service::ServiceClient::connect(args.get("socket"));
    if (!client.ok())
        raise(std::move(client.error()));
    Result<service::ServiceResponse> reply =
        client.value().call(request);
    if (!reply.ok())
        raise(std::move(reply.error()));
    const service::ServiceResponse &response = reply.value();

    if (!args.get("save").empty()) {
        appendTranscript(args.get("save"),
                         {service::renderRequest(request),
                          service::renderResponse(response)});
    }

    if (!response.ok) {
        const Error &failure = response.failure.has_value()
                                   ? *response.failure
                                   : Error(ErrorCode::Internal,
                                           "daemon reported failure "
                                           "without an error object");
        std::fprintf(stderr,
                     "bpsim_cli client: request '%s' failed: %s\n",
                     response.id.c_str(),
                     failure.describe().c_str());
        if (response.retryAfterMs > 0) {
            std::fprintf(stderr,
                         "bpsim_cli client: retry after %llu ms\n",
                         static_cast<unsigned long long>(
                             response.retryAfterMs));
        }
        return failure.code() == ErrorCode::ConfigInvalid
                   ? usageExitCode
                   : 1;
    }

    if (request.kind == service::RequestKind::Status) {
        std::printf("state=%s queue=%llu/%llu active=%llu "
                    "completed=%llu rejected=%llu quarantined=%llu\n",
                    response.state.c_str(),
                    static_cast<unsigned long long>(
                        response.queueDepth),
                    static_cast<unsigned long long>(
                        response.queueLimit),
                    static_cast<unsigned long long>(response.active),
                    static_cast<unsigned long long>(
                        response.completed),
                    static_cast<unsigned long long>(
                        response.rejected),
                    static_cast<unsigned long long>(
                        response.quarantined));
        return 0;
    }
    if (request.kind == service::RequestKind::Cancel ||
        request.kind == service::RequestKind::Shutdown) {
        std::printf("request '%s': ok\n", response.id.c_str());
        return 0;
    }

    bool csv_header = false;
    for (const CheckpointRecord &cell : response.cells) {
        report(args, request.sweep.program, request.sweep.predictor,
               bytesFromLabel(cell.label), request.sweep.scheme,
               request.sweep.shift, cell.result.hintCount,
               cell.result.stats, csv_header);
    }
    for (const service::CellFailure &failed : response.cellErrors) {
        std::fprintf(stderr,
                     "bpsim_cli client: cell '%s' failed: %s: %s\n",
                     failed.label.c_str(), failed.code.c_str(),
                     failed.message.c_str());
    }
    if (!args.getFlag("csv")) {
        std::printf("request '%s': ok (executed=%llu restored=%llu "
                    "failed=%llu fingerprint=%s)\n",
                    response.id.c_str(),
                    static_cast<unsigned long long>(
                        response.executed),
                    static_cast<unsigned long long>(
                        response.restored),
                    static_cast<unsigned long long>(response.failed),
                    response.fingerprint.c_str());
    }
    return response.cellErrors.empty() ? 0 : 1;
}

int
cmdList()
{
    std::printf("programs:  ");
    for (const auto id : allSpecPrograms())
        std::printf("%s ", specProgramName(id).c_str());
    std::printf("\npredictors:\n");
    for (const PredictorInfo *info :
         PredictorRegistry::instance().all()) {
        std::printf("  %-12s %-6s default=%zuB kernel=%-3s "
                    "batch=%-3s  %s\n",
                    info->name.c_str(),
                    info->paperKind ? "paper" : "ext",
                    info->defaultBytes,
                    info->kernelCapable ? "yes" : "no",
                    info->batchCapable ? "yes" : "no",
                    info->description.c_str());
    }
    std::printf("schemes:   none static_95 static_acc static_fac "
                "static_alias\n");
    std::printf("shifts:    noshift shift shiftpred\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    try {
        if (command == "run")
            return cmdRun(argc, argv);
        if (command == "sweep")
            return cmdSweep(argc, argv);
        if (command == "merge")
            return cmdMerge(argc, argv);
        if (command == "client")
            return cmdClient(argc, argv);
        if (command == "list")
            return cmdList();
    } catch (const ErrorException &failure) {
        std::fprintf(stderr, "bpsim_cli: error %s\n",
                     failure.error().describe().c_str());
        return failure.error().code() == ErrorCode::ConfigInvalid
                   ? usageExitCode
                   : 1;
    }
    std::fprintf(stderr,
                 "usage: bpsim_cli <run|sweep|merge|client|list> "
                 "[options]\n"
                 "       bpsim_cli run --help\n");
    return usageExitCode;
}
