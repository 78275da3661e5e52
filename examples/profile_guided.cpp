/**
 * @file
 * The deployment workflow the paper envisions for Spike: profile a
 * program, persist the profile database, select static hints offline,
 * persist the hint database, then evaluate a combined predictor that
 * reads the hints back — each phase through on-disk artifacts.
 *
 * Usage:
 *   profile_guided [program] [predictor] [size_bytes] [scheme]
 *
 * Defaults: gcc gshare 8192 static_acc. Artifacts are written to the
 * current directory as <program>.profile and <program>.hints.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cpi_model.hh"
#include "core/engine.hh"
#include "core/experiment.hh"
#include "workload/specint.hh"

using namespace bpsim;

int
main(int argc, char **argv)
{
    const std::string program_name = argc > 1 ? argv[1] : "gcc";
    const std::string predictor_name = argc > 2 ? argv[2] : "gshare";
    const std::size_t size_bytes =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8192;
    const std::string scheme_name =
        argc > 4 ? argv[4] : "static_acc";

    const SpecProgram program_id = specProgramFromName(program_name);
    const PredictorKind kind = predictorKindFromName(predictor_name);
    const StaticScheme scheme = staticSchemeFromName(scheme_name);
    const Count phase_branches = 2'000'000;

    SyntheticProgram program =
        makeSpecProgram(program_id, InputSet::Train);

    // --- Phase 1: instrumented profiling run (train input). -------
    std::printf("[1/3] profiling %s (train input, %s %zuB "
                "simulated alongside)...\n",
                program_name.c_str(), predictor_name.c_str(),
                size_bytes);
    ProfileDb profile;
    {
        auto profiling_predictor = makePredictor(kind, size_bytes);
        SimOptions options;
        options.maxBranches = phase_branches;
        options.profile = &profile;
        simulate(*profiling_predictor, program, options);
    }
    const std::string profile_path = program_name + ".profile";
    profile.save(profile_path);
    std::printf("      %zu static branches profiled -> %s\n",
                profile.size(), profile_path.c_str());

    // --- Phase 2: offline hint selection. --------------------------
    std::printf("[2/3] selecting static hints (%s)...\n",
                scheme_name.c_str());
    HintDb hints = selectStatic(scheme, profile);
    const std::string hints_path = program_name + ".hints";
    hints.save(hints_path);
    std::printf("      %zu branches marked for static prediction -> "
                "%s\n",
                hints.size(), hints_path.c_str());

    // --- Phase 3: production run (ref input) with hints. -----------
    std::printf("[3/3] evaluating on the ref input...\n");
    program.setInput(InputSet::Ref);

    SimOptions eval;
    eval.maxBranches = phase_branches;

    auto baseline_predictor = makePredictor(kind, size_bytes);
    const SimStats base = simulate(*baseline_predictor, program, eval);

    Result<HintDb> loaded = HintDb::load(hints_path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.error().describe().c_str());
        return 1;
    }
    CombinedPredictor combined(makePredictor(kind, size_bytes),
                               std::move(loaded.value()));
    const SimStats with = simulate(combined, program, eval);

    std::printf("\n%-28s %10s %10s\n", "", "baseline", "combined");
    std::printf("%-28s %10.2f %10.2f\n", "MISP/KI", base.mispKi(),
                with.mispKi());
    std::printf("%-28s %9.2f%% %9.2f%%\n", "accuracy",
                base.accuracyPercent(), with.accuracyPercent());
    std::printf("%-28s %10llu %10llu\n", "collisions",
                static_cast<unsigned long long>(
                    base.collisions.collisions),
                static_cast<unsigned long long>(
                    with.collisions.collisions));
    std::printf("%-28s %10s %9.2f%%\n", "statically predicted", "-",
                with.staticShare());
    std::printf("%-28s %10.3f %10.3f\n", "est. CPI (21264 model)",
                estimateCpi(base), estimateCpi(with));
    std::printf("\nMISP/KI improvement: %+.1f%%, est. speedup %.3fx "
                "(cross-trained: profile=train, eval=ref)\n",
                mispKiImprovement(base, with),
                estimateSpeedup(base, with));
    return 0;
}
