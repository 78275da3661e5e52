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
 * run, sweep and client declare the sweep parameters once and build
 * one service::SweepSpec from them. run and sweep compile it with
 * service::compileSweep(), the daemon's own compiler, and run the
 * cells on an ExperimentRunner, so an unknown name or invalid size
 * fails as config_invalid (exit 2) before any cell runs, exactly as
 * bpsim_serve rejects it. client sends the spec to a daemon and
 * prints the reply through the same rows. Only `run --trace` takes
 * another path: a trace file has no workload source, so it is
 * replayed with simulate().
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

#include <algorithm>
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
#include "obs/run_journal.hh"
#include "predictor/registry.hh"
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

/** Declare --journal (run and sweep). */
void
addJournalOption(ArgParser &args)
{
    args.addOption("journal", "",
                   "write the structured run journal (JSONL) to this "
                   "path; the metrics summary lands next to it "
                   "(empty = disabled)");
}

/** The --journal run journal under @p label; null when the option
 * is empty. */
std::unique_ptr<obs::RunJournal>
openJournal(const ArgParser &args, const char *label)
{
    if (args.get("journal").empty())
        return nullptr;
    return std::make_unique<obs::RunJournal>(label);
}

/** Write the --journal JSONL + metrics files and name them (no-op
 * without a journal). */
void
writeJournal(const ArgParser &args, const obs::RunJournal *journal)
{
    if (journal == nullptr)
        return;
    const std::string metrics = journal->writeFiles(args.get("journal"));
    std::printf("journal: %s\nmetrics: %s\n", args.get("journal").c_str(),
                metrics.c_str());
}

/** Declare the SweepSpec options of one cell (run, sweep and
 * client), plus --csv. */
void
addSpecOptions(ArgParser &args)
{
    args.addOption("program", "gcc",
                   "synthetic workload to run "
                   "(go/gcc/perl/m88ksim/compress/ijpeg)");
    args.addOption("input", "ref", "input set: train or ref");
    args.addOption("seed", "2000", "workload seed");
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
    args.addFlag("csv", "emit one machine-readable CSV row per cell");
}

/** Declare the SweepSpec's matrix axes (sweep and client); @p sizes
 * is the --sizes default. */
void
addMatrixOptions(ArgParser &args, const char *sizes)
{
    args.addOption("predictor", "gshare",
                   "predictor kind (no size suffix)");
    args.addOption("sizes", sizes, "comma-separated byte sizes");
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
}

/** Split a comma-separated name list ("go,gcc,perl"); every comma
 * ends a name, empty ones included. */
std::vector<std::string>
splitNames(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t pos = 0;
    std::size_t comma;
    while ((comma = list.find(',', pos)) != std::string::npos) {
        names.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    names.push_back(list.substr(pos));
    return names;
}

/** Parse the comma-separated --sizes list; config_invalid on an
 * empty, non-numeric or zero token. */
std::vector<std::size_t>
parseSizes(const std::string &list)
{
    std::vector<std::size_t> sizes;
    for (const std::string &token : splitNames(list)) {
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
    }
    return sizes;
}

/**
 * The SweepSpec the declared options describe. With @p matrix, the
 * addMatrixOptions() axes are read too; without (run), the one cell's
 * predictor and size come from the name[:bytes] --predictor spec,
 * the one-size sweep the daemon's `op: run` is. Names are checked by
 * compileSweep(), not here.
 */
service::SweepSpec
specFromArgs(const ArgParser &args, bool matrix)
{
    service::SweepSpec spec;
    spec.program = args.get("program");
    spec.input = args.get("input");
    spec.seed = args.getUint("seed");
    spec.scheme = args.get("scheme");
    spec.shift = args.get("shift");
    spec.evalBranches = args.getUint("branches");
    spec.warmupBranches = args.getUint("warmup");
    spec.profileBranches = args.getUint("profile-branches");
    spec.profileInput = args.get("profile-input");
    spec.cutoff = args.getDouble("cutoff");
    spec.filterUnstable = args.getFlag("filter-unstable");
    if (!matrix) {
        Result<ParsedPredictorSpec> parsed =
            parsePredictorSpec(args.get("predictor"));
        if (!parsed.ok())
            raise(std::move(parsed.error()));
        spec.predictor = parsed.value().info->name;
        spec.sizes = {parsed.value().bytes};
        return spec;
    }
    spec.predictor = args.get("predictor");
    spec.sizes = parseSizes(args.get("sizes"));
    spec.scenario = args.get("scenario");
    if (!spec.scenario.empty()) {
        spec.programs = splitNames(args.get("programs").empty()
                                       ? spec.program
                                       : args.get("programs"));
        spec.quantum = args.getUint("quantum");
        spec.zipf = args.getDouble("zipf");
    }
    return spec;
}

/** Print one cell's row of @p spec: a CSV row (the header before the
 * first) with --csv, else the human-readable line. */
void
report(const ArgParser &args, const service::SweepSpec &spec,
       const std::string &workload, std::size_t size_bytes,
       const ExperimentResult &result)
{
    const SimStats &stats = result.stats;
    if (args.getFlag("csv")) {
        static bool header_printed = false;
        if (!header_printed) {
            std::printf("workload,predictor,size_bytes,scheme,shift,"
                        "hints,branches,instructions,mispredictions,"
                        "misp_ki,accuracy_pct,static_share_pct,"
                        "collisions,destructive,cpi\n");
            header_printed = true;
        }
        std::printf("%s,%s,%zu,%s,%s,%zu,%llu,%llu,%llu,%.4f,%.4f,"
                    "%.4f,%llu,%llu,%.4f\n",
                    workload.c_str(), spec.predictor.c_str(),
                    size_bytes, spec.scheme.c_str(), spec.shift.c_str(),
                    result.hintCount,
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
                workload.c_str(), spec.predictor.c_str(), size_bytes,
                spec.scheme.c_str(), spec.shift.c_str(),
                result.hintCount, stats.mispKi(),
                stats.accuracyPercent(), stats.staticShare(),
                static_cast<unsigned long long>(
                    stats.collisions.collisions),
                estimateCpi(stats));
}

/**
 * Compile @p spec with the daemon's compiler, run its cells on an
 * ExperimentRunner under @p options (journalled as @p command), and
 * print one row per cell. Exit status 1 when a cell failed.
 */
int
runSpec(const ArgParser &args, const service::SweepSpec &spec,
        const char *command, RunnerOptions options)
{
    Result<service::CompiledSweep> compiled = service::compileSweep(spec);
    if (!compiled.ok())
        raise(std::move(compiled.error()));
    service::CompiledSweep &sweep = compiled.value();
    const auto journal = openJournal(args, command);
    options.journal = journal.get();
    ExperimentRunner runner(options);
    const std::size_t workload =
        runner.addWorkload(std::move(sweep.program));
    for (std::size_t i = 0; i < sweep.configs.size(); ++i)
        runner.addCell(workload, sweep.configs[i], sweep.labels[i]);
    const MatrixResult matrix = runner.run();

    Count failed = 0;
    for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
        const CellResult &cell = matrix.cells[i];
        if (cell.shardSkipped)
            continue;
        if (!cell.ok()) {
            ++failed;
            std::fprintf(stderr, "%s: cell '%s' failed: %s\n", command,
                         runner.cell(i).label.c_str(),
                         cell.error->describe().c_str());
            continue;
        }
        report(args, spec, runner.program(workload).name(),
               runner.cell(i).config.sizeBytes, cell.result);
    }
    writeJournal(args, journal.get());
    return failed == 0 ? 0 : 1;
}

/**
 * `run --trace`: replay a binary trace through simulate(). Static
 * schemes need a workload to re-run for phase 1, so only plain
 * dynamic prediction is offered, and the one cell is journalled by
 * hand with the runner's stat snapshot.
 */
int
runTrace(const ArgParser &args)
{
    if (args.get("scheme") != "none") {
        raise(Error(ErrorCode::ConfigInvalid,
                    "--trace replay supports --scheme none only"));
    }
    TraceReader reader(args.get("trace"));
    auto predictor = makePredictor(args.get("predictor"));
    const auto journal = openJournal(args, "bpsim_cli run");
    auto run = obs::Span::run(journal.get(), runBeginFields(1));
    SimOptions options;
    options.maxBranches = args.getUint("branches");
    options.warmupBranches = args.getUint("warmup");

    const std::string label = args.get("trace") + "/" + predictor->name();
    obs::note(journal.get(), obs::EventKind::CellBegin, label,
              {obs::Field::u64("cell", 0)});
    ScopedTimer timer(obs::timersOf(journal.get()), "cli.run");
    ExperimentResult result;
    result.stats = simulate(*predictor, reader, options);
    obs::note(journal.get(), obs::EventKind::CellEnd, label,
              cellEndFields(0, timer.stop(), result.stats, 0));

    service::SweepSpec plain;
    plain.predictor = predictor->name();
    report(args, plain, args.get("trace"), predictor->sizeBytes(),
           result);
    run.close({obs::Field::u64("cells", 1)});
    writeJournal(args, journal.get());
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    ArgParser args("bpsim_cli run");
    addSpecOptions(args);
    args.addOption("predictor", "gshare:8192",
                   "predictor spec name[:bytes]");
    args.addOption("trace", "",
                   "binary trace file to replay instead of a "
                   "synthetic program (--scheme none only)");
    addJournalOption(args);
    args.parse(argc, argv, 2);

    if (!args.get("trace").empty())
        return runTrace(args);
    RunnerOptions options;
    options.threads = 1;
    return runSpec(args, specFromArgs(args, false), "bpsim_cli run",
                   options);
}

int
cmdSweep(int argc, char **argv)
{
    ArgParser args("bpsim_cli sweep");
    addSpecOptions(args);
    addMatrixOptions(args, "1024,2048,4096,8192,16384,32768,65536");
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
    addJournalOption(args);
    args.parse(argc, argv, 2);

    const service::SweepSpec spec = specFromArgs(args, true);
    if (args.getFlag("resume") && args.get("checkpoint").empty()) {
        raise(Error(ErrorCode::ConfigInvalid,
                    "--resume needs --checkpoint")
                  .withContext("see --help for usage"));
    }
    RunnerOptions options;
    options.threads = threadsFromArgs(args);
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
    return runSpec(args, spec, "bpsim_cli sweep", options);
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
    addSpecOptions(args);
    addMatrixOptions(args, "8192");
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
    request.sweep = specFromArgs(args, true);
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

    if (!response.cells.empty()) {
        // Rows come from a local compile of the spec sent, so they
        // name the workload and size exactly as `sweep` does.
        Result<service::CompiledSweep> compiled =
            service::compileSweep(request.sweep);
        if (!compiled.ok())
            raise(std::move(compiled.error()));
        const service::CompiledSweep &sent = compiled.value();
        for (const CheckpointRecord &cell : response.cells) {
            const auto match =
                std::find(sent.fingerprints.begin(),
                          sent.fingerprints.end(), cell.fingerprint);
            if (match == sent.fingerprints.end()) {
                raise(Error(ErrorCode::Internal,
                            "response cell '" + cell.label +
                                "' matches no requested cell"));
            }
            report(args, request.sweep, sent.program->name(),
                   sent.configs[match - sent.fingerprints.begin()]
                       .sizeBytes,
                   cell.result);
        }
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
        std::printf("  %-12s %-6s default=%zuB kernel=%-3s  %s\n",
                    info->name.c_str(),
                    info->paperKind ? "paper" : "ext",
                    info->defaultBytes,
                    info->kernelCapable ? "yes" : "no",
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
