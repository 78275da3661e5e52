#include "decompose.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "predictor/registry.hh"
#include "staticsel/selection.hh"
#include "workloads.hh"

using namespace bpsim;

namespace perfbench
{

namespace
{

constexpr std::size_t noPhase = static_cast<std::size_t>(-1);

/** Records of @p source's buffer every cell of @p plan demands. */
Count
demandOf(const Plan &plan, std::size_t source)
{
    Count needed = 0;
    for (const Plan::Cell &cell : plan.cells) {
        if (cell.source != source)
            continue;
        const ExperimentConfig &config = cell.config;
        if (config.scheme != StaticScheme::None)
            needed = std::max(needed, config.profileBranches);
        needed = std::max(needed, config.evalBranches +
                                      config.evalWarmupBranches);
    }
    return needed;
}

double
nsPerBranch(double seconds, Count branches)
{
    return branches == 0 ? 0.0
                         : seconds * 1e9 / static_cast<double>(branches);
}

} // namespace

const std::vector<std::string> &
probedPredictors()
{
    static const std::vector<std::string> names = {
        "bimodal", "ghist", "gshare",     "bimode",
        "2bcgskew", "tage", "perceptron", "agree"};
    return names;
}

std::unique_ptr<ExperimentRunner>
buildRunner(const Plan &plan)
{
    RunnerOptions options;
    options.threads = 1;
    auto runner = std::make_unique<ExperimentRunner>(options);
    for (const Plan::Source &source : plan.sources)
        runner->addWorkload(source.make());
    for (const Plan::Cell &cell : plan.cells)
        runner->addCell(cell.source, cell.config);
    return runner;
}

Decomposition
decompose(const Plan &plan, LayerSamples &samples)
{
    Decomposition out;
    const std::size_t n_cells = plan.cells.size();
    out.results.resize(n_cells);
    out.usedKernel.assign(n_cells, 0);
    out.usedSimd.assign(n_cells, 0);

    // Workload construction, then ReplayBuffer::materialize, which
    // drives the workload's generator as it drains the stream.
    for (std::size_t s = 0; s < plan.sources.size(); ++s) {
        {
            ScopedSpan span("workload.build");
            out.sources.push_back(plan.sources[s].make());
        }
        const Count needed = demandOf(plan, s);
        ScopedSpan span(plan.sources[s].scenario ? "scenario.materialize"
                                                 : "trace.materialize");
        out.buffers.push_back(
            ReplayBuffer::materialize(*out.sources[s], needed));
        const double seconds = span.stop();
        out.materializeSeconds += seconds;
        samples.materializeS.push_back(seconds);
        const double ns = nsPerBranch(seconds, out.buffers[s].size());
        samples.materializeNsPerBranch.push_back(ns);
        if (plan.sources[s].scenario)
            samples.scenarioMaterializeNsPerBranch.push_back(ns);
    }
    samples.replayBytes = 0.0;
    for (const ReplayBuffer &buffer : out.buffers)
        samples.replayBytes += static_cast<double>(buffer.memoryBytes());

    // The runner builds each buffer's site index on first use.
    std::vector<std::unique_ptr<SiteIndex>> sites(out.buffers.size());
    const auto siteFor = [&](std::size_t s) {
        if (sites[s] == nullptr) {
            ScopedSpan span("trace.site_index");
            sites[s] = std::make_unique<SiteIndex>(
                SiteIndex::build(out.buffers[s]));
            out.executeSeconds += span.stop();
        }
        return sites[s].get();
    };

    // Unique profiling phases, keyed like the runner's profile cache.
    std::unordered_map<std::string, std::size_t> phase_of_key;
    std::vector<std::size_t> phase_cell;
    std::vector<std::size_t> cell_phase(n_cells, noPhase);
    for (std::size_t i = 0; i < n_cells; ++i) {
        const Plan::Cell &cell = plan.cells[i];
        if (cell.config.scheme == StaticScheme::None)
            continue;
        const std::string key =
            std::to_string(cell.source) + "|" +
            std::to_string(cell.config.profileBranches) + "|" +
            predictorIdentityOf(cell.config);
        const auto [it, inserted] =
            phase_of_key.try_emplace(key, phase_cell.size());
        if (inserted)
            phase_cell.push_back(i);
        else
            ++out.profileCacheHits;
        cell_phase[i] = it->second;
    }
    out.profileCacheMisses = phase_cell.size();
    samples.cacheHits += out.profileCacheHits;
    samples.cacheMisses += out.profileCacheMisses;

    std::vector<ProfilePhase> phases(phase_cell.size());
    std::vector<char> phase_kernel(phase_cell.size(), 0);
    std::vector<char> phase_simd(phase_cell.size(), 0);
    for (std::size_t s = 0; s < out.buffers.size(); ++s) {
        std::vector<std::size_t> members;
        std::vector<const ExperimentConfig *> configs;
        for (std::size_t j = 0; j < phase_cell.size(); ++j) {
            if (plan.cells[phase_cell[j]].source == s) {
                members.push_back(j);
                configs.push_back(&plan.cells[phase_cell[j]].config);
            }
        }
        if (members.empty())
            continue;
        const SiteIndex *site = siteFor(s);
        ScopedSpan span("profile.phase");
        std::vector<FusedProfileOutcome> outcomes =
            runProfilePhasesFusedReplay(out.buffers[s], configs, site);
        const double seconds = span.stop();
        out.executeSeconds += seconds;
        samples.profilePhaseS.push_back(seconds);
        for (std::size_t k = 0; k < members.size(); ++k) {
            phases[members[k]] = std::move(outcomes[k].phase);
            phase_kernel[members[k]] = outcomes[k].usedFastPath;
            phase_simd[members[k]] = outcomes[k].usedSimd;
            ++samples.sims;
            samples.fastSims += outcomes[k].usedFastPath ? 1 : 0;
            samples.simdSims += outcomes[k].usedSimd ? 1 : 0;
        }
    }

    // Evaluation: per buffer, prepare each cell, one fused pass, then
    // finish each cell.
    for (std::size_t s = 0; s < out.buffers.size(); ++s) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < n_cells; ++i) {
            if (plan.cells[i].source == s)
                members.push_back(i);
        }
        if (members.empty())
            continue;
        const ReplayBuffer &buffer = out.buffers[s];
        const SiteIndex *site = siteFor(s);

        std::vector<PreparedEvaluation> prepared;
        prepared.reserve(members.size());
        for (const std::size_t i : members) {
            const ProfilePhase *phase =
                cell_phase[i] == noPhase ? nullptr
                                         : &phases[cell_phase[i]];
            ScopedSpan span("engine.prepare");
            prepared.push_back(prepareEvaluationReplay(
                nullptr, buffer, plan.cells[i].config, phase));
            out.executeSeconds += span.stop();
        }
        std::vector<FusedSim> sims(members.size());
        for (std::size_t k = 0; k < members.size(); ++k) {
            sims[k].predictor = prepared[k].combined.get();
            sims[k].options =
                evalSimOptions(plan.cells[members[k]].config, prepared[k]);
        }
        ScopedSpan fused_span("engine.fused");
        simulateReplayFused(sims, buffer, site);
        const double fused_seconds = fused_span.stop();
        out.executeSeconds += fused_seconds;

        Count member_branches = 0;
        for (std::size_t k = 0; k < members.size(); ++k) {
            const std::size_t i = members[k];
            const ExperimentConfig &config = plan.cells[i].config;
            member_branches +=
                sims[k].stats.branches +
                std::min<Count>(sims[k].options.warmupBranches,
                                buffer.size());
            {
                ScopedSpan span("runner.finish");
                out.results[i] = finishPreparedEvaluation(
                    prepared[k], config, sims[k].stats, &buffer);
                out.executeSeconds += span.stop();
            }
            const bool cached = cell_phase[i] != noPhase;
            out.usedKernel[i] =
                prepared[k].preEvalFastPath && sims[k].usedFastPath &&
                (!cached || phase_kernel[cell_phase[i]]);
            out.usedSimd[i] =
                prepared[k].preEvalSimd && sims[k].usedSimd &&
                (!cached || phase_simd[cell_phase[i]]);
            ++samples.sims;
            samples.fastSims += sims[k].usedFastPath ? 1 : 0;
            samples.simdSims += sims[k].usedSimd ? 1 : 0;
            if (config.scenarioContexts > 0) {
                ++samples.scenarioEvals;
                samples.scenarioSimdEvals += sims[k].usedSimd ? 1 : 0;
            }
        }
        samples.fusedNsPerBranch.push_back(
            nsPerBranch(fused_seconds, member_branches));
    }

    // Selection, called from outside on each scheme cell's profile.
    Count hints = 0;
    Count calls = 0;
    for (std::size_t i = 0; i < n_cells; ++i) {
        if (cell_phase[i] == noPhase)
            continue;
        const ExperimentConfig &config = plan.cells[i].config;
        ScopedSpan span("staticsel.select");
        const HintDb selected = selectStatic(
            config.scheme, phases[cell_phase[i]].profile,
            config.selection);
        samples.selectS.push_back(span.stop());
        hints += selected.size();
        ++calls;
    }
    samples.hints += hints;
    samples.selectCalls += calls;

    // Scenario attribution: each scenario cell's evaluation with and
    // without per-context attribution, on the same buffer.
    for (std::size_t i = 0; i < n_cells; ++i) {
        const ExperimentConfig &attributed = plan.cells[i].config;
        if (attributed.scenarioContexts == 0)
            continue;
        ExperimentConfig plain = attributed;
        plain.scenarioContexts = 0;
        const ProfilePhase *phase =
            cell_phase[i] == noPhase ? nullptr : &phases[cell_phase[i]];
        const ReplayBuffer &buffer = out.buffers[plan.cells[i].source];
        const auto evalSeconds = [&](const ExperimentConfig &config,
                                     const char *name, Count &branches) {
            PreparedEvaluation ready =
                prepareEvaluationReplay(nullptr, buffer, config, phase);
            ScopedSpan span(name);
            branches = simulateReplay(*ready.combined, buffer,
                                      evalSimOptions(config, ready))
                           .branches;
            return span.stop();
        };
        Count branches = 0;
        const double with =
            evalSeconds(attributed, "scenario.eval_attributed", branches);
        const double without =
            evalSeconds(plain, "scenario.eval_plain", branches);
        samples.scenarioAttributionNsPerBranch.push_back(
            nsPerBranch(with - without, branches));
    }
    return out;
}

bool
matchesRun(const Decomposition &decomposition, const MatrixResult &run,
           std::string &why)
{
    if (run.cells.size() != decomposition.results.size()) {
        why = "cell count differs";
        return false;
    }
    Count kernel = 0;
    Count simd = 0;
    Count total = 0;
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const CellResult &cell = run.cells[i];
        if (!cell.ok() ||
            !sameResult(cell.result, decomposition.results[i])) {
            why = "cell " + std::to_string(i) + " differs from run()";
            return false;
        }
        kernel += decomposition.usedKernel[i] ? 1 : 0;
        simd += decomposition.usedSimd[i] ? 1 : 0;
        total += decomposition.results[i].simulatedBranches;
    }
    if (kernel != run.kernelCells || simd != run.simdCells) {
        why = "kernel/simd cell counts differ from run()";
        return false;
    }
    if (decomposition.profileCacheHits != run.profileCacheHits ||
        decomposition.profileCacheMisses != run.profileCacheMisses) {
        why = "profile cache accounting differs from run()";
        return false;
    }
    if (total != run.totalBranches) {
        why = "branch total differs from run()";
        return false;
    }
    return true;
}

void
probeEngines(const Plan &plan, const Decomposition &decomposition,
             LayerSamples &samples)
{
    const PredictorRegistry &registry = PredictorRegistry::instance();
    for (const ReplayBuffer &buffer : decomposition.buffers) {
        for (const std::string &name : probedPredictors()) {
            const PredictorInfo *info = registry.find(name);
            if (info == nullptr)
                continue;
            std::unique_ptr<BranchPredictor> predictor = info->make(8192);
            SimOptions options;
            options.maxBranches = plan.probeBranches;
            ScopedSpan span("engine." + name + ".plain");
            const SimStats stats =
                simulateReplay(*predictor, buffer, options);
            samples.plainNsPerBranch[name].push_back(
                nsPerBranch(span.stop(), stats.branches));
        }
    }
}

bool
probeCheckpoint(const Plan &plan, const Decomposition &decomposition,
                const std::string &path, LayerSamples &samples,
                bool measure_load)
{
    std::remove(path.c_str());
    bool complete = true;
    {
        SweepCheckpoint checkpoint(path);
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            const Plan::Cell &cell = plan.cells[i];
            CheckpointRecord record;
            record.fingerprint = cellFingerprint(
                *decomposition.sources[cell.source], cell.config);
            record.label = record.fingerprint;
            record.result = decomposition.results[i];
            record.usedKernel = decomposition.usedKernel[i];
            record.usedSimd = decomposition.usedSimd[i];
            ScopedSpan span("checkpoint.record");
            complete = checkpoint.record(std::move(record)).ok() &&
                       complete;
            samples.recordMs.push_back(span.stop() * 1e3);
        }
    }
    SweepCheckpoint reloaded(path);
    ScopedSpan span("checkpoint.load");
    complete = reloaded.load().ok() && complete;
    const double load_ms = span.stop() * 1e3;
    if (measure_load)
        samples.loadMs.push_back(load_ms);
    complete = complete && reloaded.size() == plan.cells.size();
    std::remove(path.c_str());
    return complete;
}

void
reportLayers(const LayerSamples &samples, Report &report)
{
    const auto ratio = [](Count part, Count whole) {
        return whole == 0 ? 0.0
                          : static_cast<double>(part) /
                                static_cast<double>(whole);
    };
    report.add("trace.materialize_s", median(samples.materializeS), "s",
               samples.materializeS.size());
    report.add("trace.materialize_ns_per_branch",
               median(samples.materializeNsPerBranch), "ns",
               samples.materializeNsPerBranch.size());
    report.add("trace.replay_mb", samples.replayBytes / 1048576.0, "MB");
    report.add("profile.phase_s", median(samples.profilePhaseS), "s",
               samples.profilePhaseS.size());
    report.add("profile.cache_hit_ratio",
               ratio(samples.cacheHits,
                     samples.cacheHits + samples.cacheMisses),
               "ratio", 0,
               std::to_string(samples.cacheHits + samples.cacheMisses) +
                   " phase lookups");
    report.add("staticsel.select_s", median(samples.selectS), "s",
               samples.selectS.size());
    report.add("staticsel.hints",
               samples.selectCalls == 0
                   ? 0.0
                   : static_cast<double>(samples.hints) /
                         static_cast<double>(samples.selectCalls),
               "count", 0,
               "hints per selection, " +
                   std::to_string(samples.selectCalls) + " selections");
    for (const std::string &name : probedPredictors()) {
        const auto it = samples.plainNsPerBranch.find(name);
        const std::vector<double> none;
        const std::vector<double> &values =
            it == samples.plainNsPerBranch.end() ? none : it->second;
        report.add("engine." + name + ".ns_per_branch", median(values),
                   "ns", values.size());
    }
    report.add("engine.fused_ns_per_branch",
               median(samples.fusedNsPerBranch), "ns",
               samples.fusedNsPerBranch.size());
    report.add("engine.kernel_share",
               ratio(samples.fastSims, samples.sims), "ratio", 0,
               std::to_string(samples.sims) + " sims");
    report.add("engine.simd_share", ratio(samples.simdSims, samples.sims),
               "ratio", 0, std::to_string(samples.sims) + " sims");
    report.add("runner.overhead_s", median(samples.overheadS), "s",
               samples.overheadS.size());
    report.add("checkpoint.record_ms", median(samples.recordMs), "ms",
               samples.recordMs.size());
    report.add("checkpoint.load_ms", median(samples.loadMs), "ms",
               samples.loadMs.size());

    if (!samples.scenarioMaterializeNsPerBranch.empty()) {
        report.addExtra("scenario.materialize_ns_per_branch",
                        median(samples.scenarioMaterializeNsPerBranch),
                        "ns", samples.scenarioMaterializeNsPerBranch.size());
    }
    if (samples.scenarioEvals > 0) {
        report.addExtra("scenario.attribution_ns_per_branch",
                        median(samples.scenarioAttributionNsPerBranch),
                        "ns",
                        samples.scenarioAttributionNsPerBranch.size());
        report.addExtra("scenario.simd_share",
                        ratio(samples.scenarioSimdEvals,
                              samples.scenarioEvals),
                        "ratio", 0,
                        std::to_string(samples.scenarioEvals) +
                            " scenario evals");
    }
    if (!samples.tracedWallS.empty()) {
        report.addExtra("traced_wall_s", center(samples.tracedWallS), "s",
                        samples.tracedWallS.size());
        report.addExtra("untraced_wall_s", center(samples.untracedWallS),
                        "s", samples.untracedWallS.size());
    }
}

} // namespace perfbench
