/**
 * @file
 * The three matrix workloads: paper_matrix, tagged_matrix and
 * shared_scenarios.
 *
 * A repetition is what a user run of the matrix costs: build the
 * workloads, ExperimentRunner::materialize() (set-up), then
 * ExperimentRunner::run() (the timed region). A run repeats that
 * until --seconds have passed and reports center() of the run()
 * times and the median of the set-ups.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unistd.h>

#include "core/runner.hh"
#include "decompose.hh"
#include "predictor/factory.hh"
#include "scenario/scenario.hh"
#include "support/random.hh"
#include "workload/specint.hh"
#include "workloads.hh"

using namespace bpsim;

namespace perfbench
{

namespace
{

/** Branch windows of one matrix workload. */
struct Windows
{
    Count profile;
    Count eval;
};

Windows
windowsOf(const std::string &workload)
{
    if (workload == "paper_matrix")
        return {250'000, 500'000};
    if (workload == "tagged_matrix")
        return {100'000, 200'000};
    return {400'000, 800'000}; // shared_scenarios
}

ExperimentConfig
cellConfig(const Windows &windows, StaticScheme scheme)
{
    ExperimentConfig config;
    config.sizeBytes = 8192;
    config.scheme = scheme;
    config.profileBranches = windows.profile;
    config.evalBranches = windows.eval;
    return config;
}

Plan::Source
programSource(SpecProgram id, std::uint64_t seed)
{
    return {[id, seed] {
                return std::make_unique<SyntheticProgram>(
                    makeSpecProgram(id, InputSet::Ref, seed));
            },
            false};
}

Plan::Source
scenarioSource(ScenarioKind kind, std::uint64_t seed)
{
    return {[kind, seed]() -> std::unique_ptr<WorkloadSource> {
                std::vector<SyntheticProgram> members;
                for (const SpecProgram id :
                     {SpecProgram::Go, SpecProgram::Gcc,
                      SpecProgram::Compress})
                    members.push_back(
                        makeSpecProgram(id, InputSet::Ref, seed));
                ScenarioSpec spec;
                spec.kind = kind;
                spec.seed = mix64(seed) & 0xffff'ffffULL;
                return std::make_unique<ScenarioWorkload>(
                    spec, std::move(members));
            },
            true};
}

Plan
planMatrix(const std::string &workload, std::uint64_t seed)
{
    const Windows windows = windowsOf(workload);
    Plan plan;
    plan.probeBranches = windows.eval;
    if (workload == "paper_matrix") {
        for (const SpecProgram id : allSpecPrograms()) {
            plan.sources.push_back(programSource(id, seed));
            for (const PredictorKind kind : allPredictorKinds()) {
                for (const StaticScheme scheme :
                     {StaticScheme::None, StaticScheme::Static95,
                      StaticScheme::StaticAcc}) {
                    ExperimentConfig config = cellConfig(windows, scheme);
                    config.kind = kind;
                    plan.cells.push_back(
                        {plan.sources.size() - 1, config});
                }
            }
        }
    } else if (workload == "tagged_matrix") {
        for (const SpecProgram id : allSpecPrograms()) {
            plan.sources.push_back(programSource(id, seed));
            for (const char *predictor : {"tage", "perceptron", "agree"}) {
                for (const StaticScheme scheme :
                     {StaticScheme::None, StaticScheme::Static95,
                      StaticScheme::StaticAcc, StaticScheme::StaticFac}) {
                    ExperimentConfig config = cellConfig(windows, scheme);
                    config.predictor = predictor;
                    plan.cells.push_back(
                        {plan.sources.size() - 1, config});
                }
            }
        }
    } else {
        for (const ScenarioKind kind :
             {ScenarioKind::Smt, ScenarioKind::ContextSwitch,
              ScenarioKind::Server}) {
            plan.sources.push_back(scenarioSource(kind, seed));
            for (const char *predictor : {"gshare", "bimode", "2bcgskew"}) {
                for (const StaticScheme scheme :
                     {StaticScheme::None, StaticScheme::StaticAcc}) {
                    ExperimentConfig config = cellConfig(windows, scheme);
                    config.predictor = predictor;
                    config.scenarioContexts = 3;
                    plan.cells.push_back(
                        {plan.sources.size() - 1, config});
                }
            }
        }
    }
    return plan;
}

/** Summed MISP/KI over every cell of @p result. */
double
mispKiOf(const MatrixResult &result)
{
    Count misp = 0;
    Count instructions = 0;
    for (const CellResult &cell : result.cells) {
        misp += cell.result.stats.mispredictions;
        instructions += cell.result.stats.instructions;
    }
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(misp) /
                                   static_cast<double>(instructions);
}

/**
 * Re-run a seeded sample of cells through the virtual simulate()
 * oracle over cursors of @p runner's buffers; count mismatches.
 */
std::size_t
checkOracle(const Plan &plan, const ExperimentRunner &runner,
            const MatrixResult &result, std::uint64_t seed,
            std::size_t samples, Report &report)
{
    Rng rng(mix64(seed ^ 0x0dac1eULL));
    std::set<std::size_t> chosen;
    while (chosen.size() < std::min(samples, plan.cells.size()))
        chosen.insert(rng.nextBelow(plan.cells.size()));
    std::size_t mismatches = 0;
    for (const std::size_t i : chosen) {
        const Plan::Cell &cell = plan.cells[i];
        const ReplayBuffer &buffer =
            runner.buffer(cell.source, InputSet::Ref);
        ReplayBuffer::Cursor profile_cursor = buffer.cursor();
        ReplayBuffer::Cursor eval_cursor = buffer.cursor();
        const ExperimentResult oracle = runExperimentStreams(
            profile_cursor, eval_cursor, cell.config);
        const bool same = result.cells[i].ok() &&
                          sameOracleFields(oracle, result.cells[i].result);
        report.note("oracle cell " + std::to_string(i) + " (" +
                    runner.cell(i).label + "): " +
                    (same ? "match" : "MISMATCH"));
        mismatches += same ? 0 : 1;
    }
    return mismatches;
}

int
runUntraced(const RunArgs &args, const Plan &plan)
{
    Report report;
    OperationTally tally;
    std::vector<double> setups;
    std::vector<double> walls;
    MatrixResult reference;
    std::unique_ptr<ExperimentRunner> runner;

    const double deadline = nowSeconds() + args.seconds;
    std::size_t reps = 0;
    CpuRotation rotation;
    do {
        runner.reset();
        rotation.next();
        const double t0 = nowSeconds();
        runner = buildRunner(plan);
        runner->materialize();
        const double t1 = nowSeconds();
        MatrixResult result = runner->run();
        const double t2 = nowSeconds();
        setups.push_back(t1 - t0);
        walls.push_back(t2 - t1);
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
            const CellResult &cell = result.cells[i];
            if (!cell.ok()) {
                tally.addError();
                continue;
            }
            tally.addOk();
            if (reps > 0 &&
                !sameResult(cell.result, reference.cells[i].result))
                tally.markMismatch();
        }
        if (reps == 0)
            reference = std::move(result);
        ++reps;
    } while (nowSeconds() < deadline);
    rotation.restore();

    // Outside the timed region: the virtual oracle on a seeded sample.
    for (std::size_t m = checkOracle(plan, *runner, reference, args.seed,
                                     3, report);
         m > 0; --m)
        tally.markMismatch();

    const double wall = center(walls);
    report.add("wall_s", wall, "s", reps);
    report.add("setup_s", median(setups), "s", reps);
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("sim_mbranches_per_s",
               static_cast<double>(reference.totalBranches) / wall / 1e6,
               "Mbranch/s", reps,
               std::to_string(reference.totalBranches) +
                   " nominal branches per run");
    report.addExtra("misp_ki", mispKiOf(reference), "MISP/KI",
                    reference.cells.size());
    report.note("raw wall_s: " + joinSamples(walls));
    report.note("raw setup_s: " + joinSamples(setups));
    report.note("profile cache " +
                std::to_string(reference.profileCacheHits) + " hits / " +
                std::to_string(reference.profileCacheMisses) +
                " misses; simd cells " +
                std::to_string(reference.simdCells) + "/" +
                std::to_string(reference.cells.size()) +
                "; fused groups " + std::to_string(reference.fusedGroups));
    const bool correct = tally.failed() == 0;
    report.print(correct, tally);
    return correct ? 0 : 1;
}

int
runTraced(const RunArgs &args, const Plan &plan)
{
    SpanRecorder::global().setEnabled(true);
    Report report;
    OperationTally tally;
    LayerSamples samples;
    const std::string checkpoint_path =
        args.workDir + "/checkpoint-" + std::to_string(getpid()) + ".jsonl";
    // The runner's own per-cell wall times, which split each fused
    // pass across its members by record count, summed per predictor.
    std::map<std::string, std::pair<double, Count>> prorated;

    const double deadline = nowSeconds() + args.seconds;
    std::size_t reps = 0;
    CpuRotation rotation;
    do {
        rotation.next();
        // The same work untraced, for the runner overhead and the
        // decomposition's reference.
        MatrixResult result;
        {
            std::unique_ptr<ExperimentRunner> runner = buildRunner(plan);
            runner->materialize();
            const double t0 = nowSeconds();
            result = runner->run();
            samples.untracedWallS.push_back(nowSeconds() - t0);
        }
        Decomposition parts = decompose(plan, samples);
        samples.tracedWallS.push_back(parts.executeSeconds);
        samples.overheadS.push_back(samples.untracedWallS.back() -
                                    parts.executeSeconds);
        std::string why;
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
            const CellResult &cell = result.cells[i];
            if (cell.ok())
                tally.addOk();
            else
                tally.addError();
            std::string name = predictorIdentityOf(plan.cells[i].config);
            name = name.substr(0, name.find(':'));
            prorated[name].first += cell.wallSeconds;
            prorated[name].second += cell.result.stats.branches;
        }
        if (!matchesRun(parts, result, why)) {
            report.note("decomposition MISMATCH: " + why);
            tally.markMismatch();
        }
        probeEngines(plan, parts, samples);
        if (!probeCheckpoint(plan, parts, checkpoint_path, samples)) {
            report.note("checkpoint probe lost records");
            tally.markMismatch();
        }
        ++reps;
    } while (nowSeconds() < deadline);

    const bool correct = tally.failed() == 0;
    report.note("traced repetitions: " + std::to_string(reps) +
                "; decomposition reproduces run() exactly: " +
                (correct ? "yes" : "NO"));
    reportLayers(samples, report);
    for (const auto &[name, total] : prorated) {
        report.addExtra("runner.prorated." + name + ".ns_per_branch",
                        total.first * 1e9 /
                            static_cast<double>(total.second),
                        "ns", reps, "CellResult::wallSeconds / eval branches");
    }
    const std::string spans_path =
        args.workDir + "/spans-" + args.workload + ".jsonl";
    if (SpanRecorder::global().writeJsonl(spans_path))
        report.note("spans: " + spans_path);
    report.print(correct, tally);
    return correct ? 0 : 1;
}

} // namespace

bool
isMatrixWorkload(const std::string &name)
{
    return name == "paper_matrix" || name == "tagged_matrix" ||
           name == "shared_scenarios";
}

int
runMatrixWorkload(const RunArgs &args)
{
    const Plan plan = planMatrix(args.workload, args.seed);
    return args.trace ? runTraced(args, plan) : runUntraced(args, plan);
}

bool
sameOracleFields(const ExperimentResult &a, const ExperimentResult &b)
{
    const CollisionStats &x = a.stats.collisions;
    const CollisionStats &y = b.stats.collisions;
    return a.stats.mispredictions == b.stats.mispredictions &&
           x.lookups == y.lookups && x.collisions == y.collisions &&
           x.constructive == y.constructive &&
           x.destructive == y.destructive && a.hintCount == b.hintCount;
}

bool
sameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    if (!sameOracleFields(a, b) || a.stats.branches != b.stats.branches ||
        a.stats.instructions != b.stats.instructions ||
        a.stats.staticPredicted != b.stats.staticPredicted ||
        a.stats.staticMispredictions != b.stats.staticMispredictions ||
        a.simulatedBranches != b.simulatedBranches ||
        a.contextStats.size() != b.contextStats.size() ||
        a.aliasMatrix.size() != b.aliasMatrix.size())
        return false;
    for (std::size_t c = 0; c < a.contextStats.size(); ++c) {
        const ContextStats &x = a.contextStats[c];
        const ContextStats &y = b.contextStats[c];
        if (x.branches != y.branches || x.instructions != y.instructions ||
            x.mispredictions != y.mispredictions ||
            x.staticPredicted != y.staticPredicted ||
            x.collisions != y.collisions)
            return false;
    }
    for (std::size_t c = 0; c < a.aliasMatrix.size(); ++c) {
        const ContextAliasCell &x = a.aliasMatrix[c];
        const ContextAliasCell &y = b.aliasMatrix[c];
        if (x.collisions != y.collisions ||
            x.constructive != y.constructive ||
            x.destructive != y.destructive)
            return false;
    }
    return true;
}

double
center(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const double value : samples)
        sum += value;
    return sum / static_cast<double>(samples.size());
}

std::string
joinSamples(const std::vector<double> &samples)
{
    std::string out;
    char buf[32];
    for (const double value : samples) {
        std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ",
                      value);
        out += buf;
    }
    return out;
}

} // namespace perfbench
