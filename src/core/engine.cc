#include "core/engine.hh"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <typeindex>
#include <vector>

#include "core/batch_kernels.hh"
#include "core/combined_predictor.hh"
#include "core/simd.hh"
#include "predictor/factory.hh"
#include "support/logging.hh"
#include "trace/replay_buffer.hh"

namespace bpsim
{

namespace
{

/**
 * The measured loop, stamped out per configuration so the per-branch
 * path pays neither for profiling when no ProfileDb is attached nor
 * for static/dynamic attribution when the predictor is not combined.
 */
template <bool WithProfile, bool IsCombined>
SimStats
runMeasured(BranchPredictor &predictor, CombinedPredictor *combined,
            BranchStream &stream, const SimOptions &options)
{
    SimStats stats;
    BranchRecord record;
    const Count limit = options.maxBranches == 0 ? ~Count{0}
                                                 : options.maxBranches;

    while (stats.branches < limit && stream.next(record)) {
        const bool prediction = predictor.predict(record.pc);
        const bool correct = prediction == record.taken;
        // Must be sampled between predict() and update(): update()
        // classifies and clears the pending collision state.
        Count lookup_collisions = 0;
        if constexpr (WithProfile)
            lookup_collisions = predictor.lastPredictCollisions();

        predictor.update(record.pc, record.taken);
        predictor.updateHistory(record.taken);

        ++stats.branches;
        stats.instructions += record.instGap;
        if (!correct)
            ++stats.mispredictions;

        bool was_static = false;
        if constexpr (IsCombined) {
            was_static = combined->lastWasStatic();
            if (was_static) {
                ++stats.staticPredicted;
                if (!correct)
                    ++stats.staticMispredictions;
            }
        }

        if constexpr (WithProfile) {
            options.profile->recordOutcome(record.pc, record.taken);
            // Accuracy counts describe the *dynamic* predictor, so
            // statically resolved branches do not contribute.
            if (!was_static) {
                options.profile->recordPrediction(record.pc, correct);
                if (lookup_collisions > 0)
                    options.profile->recordCollisions(
                        record.pc, lookup_collisions);
            }
        }
    }

    stats.collisions = predictor.collisionStats();
    return stats;
}

/**
 * Records per fused-walk block. With every sim of a fused pass
 * stepping through the block before the walk advances, the per-block
 * fixed costs (virtual dispatch into each exec, loop setup, stats
 * spills) amortize over many records, and the shared trace columns
 * still stream through L2. 64Ki records ≈ 768KB of trace columns;
 * measured best on the reference container across a 512..4Mi sweep.
 */
constexpr Count fusedBlock = 65536;

// Dense hint-code bits (0 = no hint for the site); shared with the
// batch kernels, which consume the same per-site code arrays.
using batch::hintPresentBit;
using batch::hintTakenBit;

/** Invoke @p fn with @p policy as a compile-time constant. */
template <typename Fn>
void
withPolicy(ShiftPolicy policy, Fn &&fn)
{
    switch (policy) {
      case ShiftPolicy::NoShift:
        fn(std::integral_constant<ShiftPolicy, ShiftPolicy::NoShift>{});
        break;
      case ShiftPolicy::ShiftOutcome:
        fn(std::integral_constant<ShiftPolicy,
                                  ShiftPolicy::ShiftOutcome>{});
        break;
      case ShiftPolicy::ShiftPrediction:
        fn(std::integral_constant<ShiftPolicy,
                                  ShiftPolicy::ShiftPrediction>{});
        break;
    }
}

/** Dense per-site hint codes of @p hints (all zero when null). */
std::vector<std::uint8_t>
hintCodesFor(const HintDb *hints, const SiteIndex &sites)
{
    std::vector<std::uint8_t> codes(sites.siteCount(), 0);
    if (hints == nullptr)
        return codes;
    for (std::uint32_t s = 0; s < sites.siteCount(); ++s) {
        bool taken = false;
        if (hints->lookup(sites.sitePc(s), taken))
            codes[s] = hintPresentBit | (taken ? hintTakenBit : 0);
    }
    return codes;
}

/**
 * History treatment of a statically predicted record, mirroring
 * CombinedPredictor::updateHistory: statically resolved branches never
 * touch the dynamic tables.
 */
template <ShiftPolicy Policy, typename P>
inline void
shiftStatic(P &predictor, bool taken, bool hint_direction)
{
    if constexpr (Policy == ShiftPolicy::ShiftOutcome)
        predictor.historyStep(taken);
    else if constexpr (Policy == ShiftPolicy::ShiftPrediction)
        predictor.historyStep(hint_direction);
    else {
        (void)predictor;
        (void)taken;
        (void)hint_direction;
    }
}

/**
 * The record kernel: replay records [start, end) through the inline
 * *Step protocol of @p N same-type predictors, one record at a time
 * with no indirect calls, advancing every member through a record
 * before moving to the next. The members' dependent chains (history
 * -> index -> table load -> update) are mutually independent, so the
 * out-of-order window overlaps them. Static hints (dense per-site
 * codes, per member) and profiling (dense per-site counts of a lone
 * member, flushed into its ProfileDb after the pass) are compile-time
 * shapes, as in the batch loop. Every table lookup goes through
 * CounterTable, so an attached ContextAliasSink sees it.
 */
template <bool WithHints, bool WithProfile, ShiftPolicy Policy,
          std::size_t N, typename P>
void
runRecordLoop(P *const *predictors, const std::uint8_t *const *hint_codes,
              SimStats *const *stats, const std::uint32_t *site_of,
              BranchProfile *profiles, const ReplayBuffer &buffer,
              Count start, Count end)
{
    static_assert(!WithProfile || N == 1, "a profiling sim runs alone");
    const Addr *pcs = buffer.pcData();
    const std::uint32_t *packed = buffer.packedData();

    // Hoist the member state and keep the counters in locals: with N
    // a compile-time constant the member loop fully unrolls and the
    // accumulators stay register-resident instead of round-tripping
    // through SimStats memory on every record.
    P *preds[N];
    const std::uint8_t *codes[N];
    for (std::size_t k = 0; k < N; ++k) {
        preds[k] = predictors[k];
        codes[k] = WithHints ? hint_codes[k] : nullptr;
    }
    Count instructions = 0;
    Count mispredictions[N]{};
    Count static_predicted[N]{};
    Count static_mispredicted[N]{};

    for (Count i = start; i < end; ++i) {
        const Addr pc = pcs[i];
        const std::uint32_t word = packed[i];
        const bool taken = (word & ReplayBuffer::packedTakenBit) != 0;
        instructions += word & ~ReplayBuffer::packedTakenBit;
        // Loaded once per record: the members' table stores are byte
        // stores, which the compiler must assume alias site_of.
        std::uint32_t site = 0;
        if constexpr (WithHints || WithProfile)
            site = site_of[i];

        for (std::size_t k = 0; k < N; ++k) {
            P &predictor = *preds[k];
            if constexpr (WithHints) {
                const std::uint8_t code = codes[k][site];
                if ((code & hintPresentBit) != 0) {
                    const bool direction = (code & hintTakenBit) != 0;
                    const bool miss = direction != taken;
                    shiftStatic<Policy>(predictor, taken, direction);
                    ++static_predicted[k];
                    static_mispredicted[k] += miss;
                    mispredictions[k] += miss;
                    // Accuracy counts describe the *dynamic*
                    // predictor, so statically resolved branches
                    // record outcomes only.
                    if constexpr (WithProfile) {
                        BranchProfile &counts = profiles[site];
                        ++counts.executed;
                        counts.taken += taken ? 1 : 0;
                    }
                    continue;
                }
            }

            const bool correct = predictor.predictStep(pc) == taken;
            // Sampled between the predict and update steps:
            // updateStep() classifies and clears the pending state.
            Count lookup_collisions = 0;
            if constexpr (WithProfile)
                lookup_collisions = predictor.pendingStep();
            predictor.updateStep(pc, taken);
            predictor.historyStep(taken);
            mispredictions[k] += !correct;

            if constexpr (WithProfile) {
                BranchProfile &counts = profiles[site];
                ++counts.executed;
                counts.taken += taken ? 1 : 0;
                ++counts.predicted;
                counts.correct += correct ? 1 : 0;
                counts.collisions += lookup_collisions;
            }
        }
    }

    // Pure integer sums flushed once per segment: the totals equal
    // the per-record increments of simulate() exactly.
    for (std::size_t k = 0; k < N; ++k) {
        SimStats &st = *stats[k];
        st.branches += end - start;
        st.instructions += instructions;
        st.mispredictions += mispredictions[k];
        st.staticPredicted += static_predicted[k];
        st.staticMispredictions += static_mispredicted[k];
    }
}

/**
 * One participant of a fused pass's shared block walk: one sim, or a
 * gang of sims sharing one replay window. Owns the window and
 * forwards each visited span, split at the warmup boundary, to the
 * subclass's loop.
 */
class FusedExec
{
  public:
    FusedExec(std::vector<FusedSim *> window_sims,
              const ReplayBuffer &buffer)
        : sims(std::move(window_sims)), buffer(buffer),
          warmupStats(sims.size())
    {
        const SimOptions &first = sims.front()->options;
        const Count total = buffer.size();
        warmupEnd = std::min(first.warmupBranches, total);
        const Count limit =
            first.maxBranches == 0 ? ~Count{0} : first.maxBranches;
        lastRecord = warmupEnd + std::min(limit, total - warmupEnd);
        for (FusedSim *sim : sims) {
            bpsim_assert(sim->options.warmupBranches ==
                                 first.warmupBranches &&
                             sim->options.maxBranches ==
                                 first.maxBranches,
                         "gang members must share one replay window");
            measuredPtrs.push_back(&sim->stats);
        }
        for (SimStats &stats : warmupStats)
            warmupPtrs.push_back(&stats);
    }

    virtual ~FusedExec() = default;

    /** One past the last record this exec consumes. */
    Count end() const { return lastRecord; }

    /** Step through records [from, to) of the shared walk. */
    void
    step(Count from, Count to)
    {
        if (from < warmupEnd) {
            const Count warm_to = std::min(to, warmupEnd);
            runSegment(from, warm_to, false);
            // Collision state accumulated during warmup is discarded
            // exactly once, at the warmup/measurement boundary — the
            // same schedule simulate() follows.
            if (warm_to == warmupEnd) {
                for (FusedSim *sim : sims)
                    sim->predictor->clearCollisionStats();
            }
            from = warm_to;
        }
        if (from < to)
            runSegment(from, to, true);
    }

    /** Finalize stats and run-level counters after the pass. */
    virtual void finish() = 0;

  protected:
    /** Replay [from, to); @p measured picks warmup vs measurement. */
    virtual void runSegment(Count from, Count to, bool measured) = 0;

    /** Per-member stats slots of a measured or warmup segment. */
    SimStats *const *
    statsFor(bool measured) const
    {
        return measured ? measuredPtrs.data() : warmupPtrs.data();
    }

    std::vector<FusedSim *> sims;
    const ReplayBuffer &buffer;
    Count warmupEnd = 0;
    Count lastRecord = 0;

  private:
    std::vector<SimStats> warmupStats; // discarded, like simulate()'s
    std::vector<SimStats *> measuredPtrs;
    std::vector<SimStats *> warmupPtrs;
};

/**
 * Fused exec running the devirtualized kernels for sims whose dynamic
 * components share the concrete type @p P and one effective shift
 * policy: the batch kernels when @p kernels holds them and the shape
 * fits, the record kernel otherwise. A sim with a profile runs alone.
 * Hints and profile counts live on the pass's dense site arrays.
 */
template <typename P>
class KernelExec final : public FusedExec
{
  public:
    struct Member
    {
        FusedSim *sim = nullptr;
        P *concrete = nullptr;
        const HintDb *hints = nullptr;
    };

    KernelExec(const std::vector<Member> &members,
               const ReplayBuffer &buffer, const SiteIndex *sites,
               ShiftPolicy policy, BatchKernelSet<P> kernels)
        : FusedExec(simsOf(members), buffer), sites(sites),
          policy(policy), kernels(kernels)
    {
        bool hinted = false;
        for (const Member &member : members) {
            predictors.push_back(member.concrete);
            hinted = hinted || member.hints != nullptr;
        }
        // Gangs and hinted sims read per-member hint codes (all zero
        // for unhinted members); the pass has a site index whenever a
        // sim has hints or a profile, or sims are ganged.
        if (hinted || members.size() > 1) {
            for (const Member &member : members)
                hintCodes.push_back(hintCodesFor(member.hints, *sites));
            for (const std::vector<std::uint8_t> &codes : hintCodes)
                codePtrs.push_back(codes.data());
        }
        if (sims.front()->options.profile != nullptr) {
            bpsim_assert(members.size() == 1,
                         "a profiling sim runs alone");
            profileCounts.assign(sites->siteCount(), BranchProfile{});
        }
        // The batch kernels cover every shape but hints and a
        // profile together.
        if (!codePtrs.empty() && !profileCounts.empty())
            this->kernels = {};
        if (this->kernels &&
            (!codePtrs.empty() || !profileCounts.empty())) {
            for (const Member &member : members) {
                siteTables.push_back(
                    batch::buildSiteTables(*member.concrete, *sites));
            }
            for (const batch::SiteTables &tables : siteTables)
                tablePtrs.push_back(&tables);
        }
    }

    void
    finish() override
    {
        for (std::uint32_t s = 0; s < profileCounts.size(); ++s) {
            if (profileCounts[s].executed > 0)
                sims.front()->options.profile->addCounts(
                    sites->sitePc(s), profileCounts[s]);
        }
        for (FusedSim *sim : sims) {
            sim->stats.collisions = sim->predictor->collisionStats();
            sim->usedFastPath = true;
            sim->usedSimd = static_cast<bool>(kernels);
            if (sim->options.counters == nullptr)
                continue;
            sim->options.counters->add("engine.kernel_runs");
            sim->options.counters->add("engine.branches",
                                       sim->stats.branches);
            if (warmupEnd > 0)
                sim->options.counters->add("engine.warmup_branches",
                                           warmupEnd);
        }
    }

  protected:
    void
    runSegment(Count from, Count to, bool measured) override
    {
        SimStats *const *stats = statsFor(measured);
        const bool profiling = measured && !profileCounts.empty();
        if (!kernels) {
            runRecord(from, to, stats, profiling);
        } else if (!codePtrs.empty()) {
            // One kernel call advances every member through the
            // segment (the batch driver walks members per batch, so
            // the trace columns decode once regardless of gang size).
            batch::GangArgs<P> args;
            args.predictors = predictors.data();
            args.siteTables = tablePtrs.data();
            args.hintCodes = codePtrs.data();
            args.stats = stats;
            args.n = predictors.size();
            args.buffer = &buffer;
            args.siteOf = sites->siteData();
            args.from = from;
            args.to = to;
            args.policy = policy;
            kernels.gang(args);
        } else if (profiling) {
            batch::DenseArgs<P> args;
            args.predictor = predictors.front();
            args.siteTables = tablePtrs.front();
            args.profiles = profileCounts.data();
            args.stats = stats[0];
            args.buffer = &buffer;
            args.siteOf = sites->siteData();
            args.from = from;
            args.to = to;
            kernels.dense(args);
        } else {
            batch::PlainArgs<P> args;
            args.predictor = predictors.front();
            args.stats = stats[0];
            args.buffer = &buffer;
            args.from = from;
            args.to = to;
            kernels.plain(args);
        }
    }

  private:
    static std::vector<FusedSim *>
    simsOf(const std::vector<Member> &members)
    {
        std::vector<FusedSim *> out;
        for (const Member &member : members)
            out.push_back(member.sim);
        return out;
    }

    void
    runRecord(Count from, Count to, SimStats *const *stats,
              bool profiling)
    {
        const std::uint32_t *site_of =
            sites != nullptr ? sites->siteData() : nullptr;
        BranchProfile *profiles = profileCounts.data();
        if (codePtrs.empty()) {
            // A lone unhinted sim.
            constexpr ShiftPolicy kNoShift = ShiftPolicy::NoShift;
            if (profiling) {
                runRecordLoop<false, true, kNoShift, 1>(
                    predictors.data(), nullptr, stats, site_of,
                    profiles, buffer, from, to);
            } else {
                runRecordLoop<false, false, kNoShift, 1>(
                    predictors.data(), nullptr, stats, site_of,
                    profiles, buffer, from, to);
            }
            return;
        }
        withPolicy(policy, [&](auto policy_tag) {
            constexpr ShiftPolicy kPolicy = decltype(policy_tag)::value;
            if (profiling) {
                runRecordLoop<true, true, kPolicy, 1>(
                    predictors.data(), codePtrs.data(), stats, site_of,
                    profiles, buffer, from, to);
                return;
            }
            // Larger gangs run as sub-gangs of at most four members:
            // the fixed-N loops keep their accumulators in registers,
            // and four independent predictor chains already saturate
            // the out-of-order window. Each member still sees every
            // record of [from, to) exactly once, in order.
            for (std::size_t at = 0; at < predictors.size(); at += 4) {
                const auto run = [&](auto n_tag) {
                    runRecordLoop<true, false, kPolicy,
                                  decltype(n_tag)::value>(
                        predictors.data() + at, codePtrs.data() + at,
                        stats + at, site_of, nullptr, buffer, from, to);
                };
                switch (std::min<std::size_t>(predictors.size() - at,
                                              4)) {
                  case 1:
                    run(std::integral_constant<std::size_t, 1>{});
                    break;
                  case 2:
                    run(std::integral_constant<std::size_t, 2>{});
                    break;
                  case 3:
                    run(std::integral_constant<std::size_t, 3>{});
                    break;
                  default:
                    run(std::integral_constant<std::size_t, 4>{});
                    break;
                }
            }
        });
    }

    const SiteIndex *sites;
    ShiftPolicy policy;
    BatchKernelSet<P> kernels;
    std::vector<P *> predictors;
    std::vector<std::vector<std::uint8_t>> hintCodes;
    std::vector<const std::uint8_t *> codePtrs;
    std::vector<BranchProfile> profileCounts;
    std::vector<batch::SiteTables> siteTables;
    std::vector<const batch::SiteTables *> tablePtrs;
};

/**
 * Fused exec for predictors outside the devirtualized set: the
 * virtual-dispatch loop of simulate()/runMeasured(), segmented over
 * the shared block walk.
 */
class VirtualStepper final : public FusedExec
{
  public:
    VirtualStepper(FusedSim &sim, const ReplayBuffer &buffer)
        : FusedExec({&sim}, buffer), sim(sim),
          combined(dynamic_cast<CombinedPredictor *>(sim.predictor))
    {
    }

    void
    finish() override
    {
        sim.stats.collisions = sim.predictor->collisionStats();
        sim.usedFastPath = false;
        if (sim.options.counters != nullptr) {
            sim.options.counters->add("engine.virtual_runs");
            sim.options.counters->add("engine.branches",
                                      sim.stats.branches);
            if (warmupEnd > 0)
                sim.options.counters->add("engine.warmup_branches",
                                          warmupEnd);
        }
    }

  protected:
    void
    runSegment(Count from, Count to, bool measured) override
    {
        BranchPredictor &predictor = *sim.predictor;
        BranchRecord record;
        if (!measured) {
            for (Count i = from; i < to; ++i) {
                buffer.get(i, record);
                predictor.predict(record.pc);
                predictor.update(record.pc, record.taken);
                predictor.updateHistory(record.taken);
            }
            return;
        }

        ProfileDb *profile = sim.options.profile;
        const bool with_profile = profile != nullptr;
        SimStats &stats = sim.stats;
        for (Count i = from; i < to; ++i) {
            buffer.get(i, record);
            const bool prediction = predictor.predict(record.pc);
            const bool correct = prediction == record.taken;
            // Must be sampled between predict() and update():
            // update() classifies and clears the pending state.
            Count lookup_collisions = 0;
            if (with_profile)
                lookup_collisions = predictor.lastPredictCollisions();

            predictor.update(record.pc, record.taken);
            predictor.updateHistory(record.taken);

            ++stats.branches;
            stats.instructions += record.instGap;
            if (!correct)
                ++stats.mispredictions;

            bool was_static = false;
            if (combined != nullptr) {
                was_static = combined->lastWasStatic();
                if (was_static) {
                    ++stats.staticPredicted;
                    if (!correct)
                        ++stats.staticMispredictions;
                }
            }

            if (with_profile) {
                profile->recordOutcome(record.pc, record.taken);
                // Accuracy counts describe the *dynamic* predictor,
                // so statically resolved branches do not contribute.
                if (!was_static) {
                    profile->recordPrediction(record.pc, correct);
                    if (lookup_collisions > 0)
                        profile->recordCollisions(record.pc,
                                                  lookup_collisions);
                }
            }
        }
    }

  private:
    FusedSim &sim;
    CombinedPredictor *combined;
};

} // namespace

SimStats
simulate(BranchPredictor &predictor, BranchStream &stream,
         const SimOptions &options)
{
    if (options.resetStream)
        stream.reset();
    if (options.resetPredictor)
        predictor.reset();
    predictor.clearCollisionStats();

    auto *combined = dynamic_cast<CombinedPredictor *>(&predictor);

    // Warmup: train the predictor without recording anything.
    BranchRecord record;
    Count warmup_run = 0;
    for (Count i = 0;
         i < options.warmupBranches && stream.next(record); ++i) {
        predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        predictor.updateHistory(record.taken);
        ++warmup_run;
    }
    predictor.clearCollisionStats();

    const bool with_profile = options.profile != nullptr;
    SimStats stats;
    if (combined != nullptr) {
        stats = with_profile
                    ? runMeasured<true, true>(predictor, combined,
                                              stream, options)
                    : runMeasured<false, true>(predictor, combined,
                                               stream, options);
    } else {
        stats = with_profile
                    ? runMeasured<true, false>(predictor, nullptr,
                                               stream, options)
                    : runMeasured<false, false>(predictor, nullptr,
                                                stream, options);
    }

    if (options.counters != nullptr) {
        options.counters->add("engine.virtual_runs");
        options.counters->add("engine.branches", stats.branches);
        if (warmup_run > 0)
            options.counters->add("engine.warmup_branches",
                                  warmup_run);
    }
    return stats;
}

SimStats
simulateReplay(BranchPredictor &predictor, const ReplayBuffer &buffer,
               const SimOptions &options, bool *used_fast_path,
               bool *used_simd)
{
    std::vector<FusedSim> sims(1);
    sims[0].predictor = &predictor;
    sims[0].options = options;
    simulateReplayFused(sims, buffer);
    if (used_fast_path != nullptr)
        *used_fast_path = sims[0].usedFastPath;
    if (used_simd != nullptr)
        *used_simd = sims[0].usedSimd;
    return sims[0].stats;
}

void
simulateReplayFused(std::vector<FusedSim> &sims,
                    const ReplayBuffer &buffer, const SiteIndex *sites)
{
    if (sites != nullptr)
        bpsim_assert(sites->size() == buffer.size(),
                     "site index does not match the replay buffer");

    // Resolve each sim once and reset its predictor. An empty hint
    // database makes the combined wrapper a pure pass-through, so such
    // sims run as their bare dynamic component; the results are
    // identical.
    struct Resolved
    {
        const HintDb *hints = nullptr;
        ShiftPolicy policy = ShiftPolicy::NoShift;
        BranchPredictor *dyn = nullptr;
    };
    std::vector<Resolved> resolved(sims.size());
    bool needs_sites = false;
    for (std::size_t s = 0; s < sims.size(); ++s) {
        FusedSim &sim = sims[s];
        bpsim_assert(sim.predictor != nullptr,
                     "fused sim needs a predictor");
        sim.stats = SimStats{};
        sim.usedFastPath = false;
        sim.usedSimd = false;

        auto *combined =
            dynamic_cast<CombinedPredictor *>(sim.predictor);
        const bool hinted =
            combined != nullptr && combined->hintDb().size() > 0;
        resolved[s].hints = hinted ? &combined->hintDb() : nullptr;
        resolved[s].policy =
            hinted ? combined->policy() : ShiftPolicy::NoShift;
        resolved[s].dyn = combined != nullptr
                              ? &combined->dynamicComponent()
                              : sim.predictor;
        const bool kernel =
            visitPredictor(*resolved[s].dyn, [](auto &) {});
        needs_sites = needs_sites ||
                      (kernel && (hinted || sim.options.profile != nullptr));

        if (sim.options.resetPredictor)
            sim.predictor->reset();
        sim.predictor->clearCollisionStats();
    }

    // Hints and profile counts always live on dense site arrays.
    SiteIndex built;
    if (sites == nullptr && needs_sites) {
        built = SiteIndex::build(buffer);
        sites = &built;
    }

    // A sim's batch kernels: its concrete type's, unless an alias sink
    // is attached — the batch kernels do not report to it.
    const SimdLevel level = resolveSimdLevel();
    const auto kernelsFor = [&](std::size_t s, auto &concrete) {
        using Concrete = std::decay_t<decltype(concrete)>;
        return resolved[s].dyn->aliasSink() == nullptr
                   ? batchKernelsFor<Concrete>(level)
                   : BatchKernelSet<Concrete>{};
    };

    // Devirtualized sims are grouped into kernel execs: evaluation
    // sims (no profile) sharing a concrete type, replay window,
    // effective shift policy and kernel family form one gang; a
    // profiling sim, or any sim of a pass without a site index, runs
    // alone. Everything else runs the virtual loop.
    struct Group
    {
        std::type_index type;
        ShiftPolicy policy;
        Count warmup = 0;
        Count max = 0;
        bool batched = false;
        bool open = false;
        std::vector<std::size_t> members;
    };
    std::vector<Group> groups;

    std::vector<std::unique_ptr<FusedExec>> execs;
    execs.reserve(sims.size());

    for (std::size_t s = 0; s < sims.size(); ++s) {
        const SimOptions &options = sims[s].options;
        const bool kernel =
            visitPredictor(*resolved[s].dyn, [&](auto &concrete) {
                const Group key{typeid(concrete),
                                resolved[s].policy,
                                options.warmupBranches,
                                options.maxBranches,
                                static_cast<bool>(
                                    kernelsFor(s, concrete)),
                                sites != nullptr &&
                                    options.profile == nullptr,
                                {}};
                Group *group = nullptr;
                for (Group &candidate : groups) {
                    if (key.open && candidate.open &&
                        candidate.type == key.type &&
                        candidate.policy == key.policy &&
                        candidate.warmup == key.warmup &&
                        candidate.max == key.max &&
                        candidate.batched == key.batched) {
                        group = &candidate;
                        break;
                    }
                }
                if (group == nullptr) {
                    groups.push_back(key);
                    group = &groups.back();
                }
                group->members.push_back(s);
            });
        if (!kernel)
            execs.push_back(
                std::make_unique<VirtualStepper>(sims[s], buffer));
    }

    for (const Group &group : groups) {
        const std::size_t first_sim = group.members.front();
        visitPredictor(*resolved[first_sim].dyn, [&](auto &first) {
            using Concrete = std::decay_t<decltype(first)>;
            using Exec = KernelExec<Concrete>;
            std::vector<typename Exec::Member> members;
            for (const std::size_t s : group.members) {
                members.push_back(
                    {&sims[s], &dynamic_cast<Concrete &>(*resolved[s].dyn),
                     resolved[s].hints});
            }
            execs.push_back(std::make_unique<Exec>(
                members, buffer, sites, group.policy,
                kernelsFor(first_sim, first)));
        });
    }

    // The fused walk: every sim steps through each block before the
    // pass moves to the next one, so the trace columns are decoded
    // from cache-resident memory once per block instead of once per
    // sim. Block boundaries are semantically invisible — each sim's
    // predictor state advances through the same record sequence it
    // would see in a private pass.
    Count max_end = 0;
    for (const auto &stepper : execs)
        max_end = std::max(max_end, stepper->end());

    for (Count base = 0; base < max_end; base += fusedBlock) {
        const Count block_stop = std::min(base + fusedBlock, max_end);
        for (auto &stepper : execs) {
            const Count to = std::min(block_stop, stepper->end());
            if (base < to)
                stepper->step(base, to);
        }
    }

    for (auto &stepper : execs)
        stepper->finish();
}

} // namespace bpsim
