#include "core/engine.hh"

#include <algorithm>
#include <chrono>
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

/** Dense per-site hint codes of @p hints (0 for an unhinted site). */
std::vector<std::uint8_t>
hintCodesFor(const HintDb &hints, const SiteIndex &sites)
{
    std::vector<std::uint8_t> codes(sites.siteCount(), 0);
    for (std::uint32_t s = 0; s < sites.siteCount(); ++s) {
        bool taken = false;
        if (hints.lookup(sites.sitePc(s), taken))
            codes[s] = hintPresentBit | (taken ? hintTakenBit : 0);
    }
    return codes;
}

/** Which part of a sim's window a segment of the walk lies in. */
enum class Segment
{
    Warmup,   // trains the predictor, records nothing
    Prefix,   // measured, and recorded into the prefix profile too
    Measured, // measured
};

/**
 * One participant of a fused pass's shared block walk: one sim, or a
 * gang of sims sharing one replay window. Owns the window, forwards
 * each visited span, split at the warmup and prefix boundaries, to
 * the subclass's loop, and times each span (two clock reads per exec
 * per block, and one more at the prefix boundary).
 */
class FusedExec
{
  public:
    FusedExec(std::vector<FusedSim *> window_sims,
              const ReplayBuffer &buffer)
        : sims(std::move(window_sims)), buffer(buffer),
          applied(sims.size(), 0), warmupStats(sims.size())
    {
        const FusedSim &lead = *sims.front();
        const SimOptions &first = lead.options;
        const Count total = buffer.size();
        warmupEnd = std::min(first.warmupBranches, total);
        const Count limit =
            first.maxBranches == 0 ? ~Count{0} : first.maxBranches;
        lastRecord = warmupEnd + std::min(limit, total - warmupEnd);
        prefixOpen = lead.prefixProfile != nullptr;
        prefixEnd = prefixOpen
                        ? warmupEnd + std::min(lead.prefixBranches,
                                               lastRecord - warmupEnd)
                        : warmupEnd;
        for (FusedSim *sim : sims) {
            bpsim_assert(sim->options.warmupBranches ==
                                 first.warmupBranches &&
                             sim->options.maxBranches ==
                                 first.maxBranches,
                         "gang members must share one replay window");
            bpsim_assert(sim == &lead || sim->prefixProfile == nullptr,
                         "a sim with a prefix profile runs alone");
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
        const auto begin = std::chrono::steady_clock::now();
        if (from < warmupEnd) {
            const Count warm_to = std::min(to, warmupEnd);
            runSegment(from, warm_to, Segment::Warmup);
            // Collision state accumulated during warmup is discarded
            // exactly once, at the warmup/measurement boundary — the
            // same schedule simulate() follows.
            if (warm_to == warmupEnd) {
                for (FusedSim *sim : sims)
                    sim->predictor->clearCollisionStats();
            }
            from = warm_to;
        }
        if (from < to && from < prefixEnd) {
            const Count prefix_to = std::min(to, prefixEnd);
            runSegment(from, prefix_to, Segment::Prefix);
            from = prefix_to;
        }
        if (prefixOpen && from == prefixEnd) {
            flushPrefix();
            prefixOpen = false;
            prefixStepped =
                stepped + (std::chrono::steady_clock::now() - begin);
        }
        if (from < to)
            runSegment(from, to, Segment::Measured);
        stepped += std::chrono::steady_clock::now() - begin;
    }

    /** Finalize stats after the pass. */
    virtual void finish() = 0;

    /**
     * Report the measured step times on the sims: a gang's time is
     * apportioned by the records each member applied (members drop
     * different shares of hinted records), evenly when none applied
     * any, so the members' times sum to the exec's.
     */
    void
    shareSeconds()
    {
        Count total = 0;
        for (const Count records : applied)
            total += records;
        const double step = std::chrono::duration<double>(stepped).count();
        const double prefix =
            std::chrono::duration<double>(prefixStepped).count();
        for (std::size_t m = 0; m < sims.size(); ++m) {
            const double share =
                total == 0 ? 1.0 / static_cast<double>(sims.size())
                           : static_cast<double>(applied[m]) /
                                 static_cast<double>(total);
            sims[m]->seconds = step * share;
            sims[m]->prefixSeconds = prefix * share;
        }
    }

  protected:
    /** Replay [from, to) of @p segment. */
    virtual void runSegment(Count from, Count to, Segment segment) = 0;

    /** Complete the lead sim's prefix profile; the walk has stepped
     * exactly its prefix. */
    virtual void flushPrefix() = 0;

    /** Per-member stats slots of a measured or warmup segment. */
    SimStats *const *
    statsFor(Segment segment) const
    {
        return segment == Segment::Warmup ? warmupPtrs.data()
                                          : measuredPtrs.data();
    }

    std::vector<FusedSim *> sims;
    const ReplayBuffer &buffer;
    Count warmupEnd = 0;
    Count prefixEnd = 0;
    Count lastRecord = 0;

    /** Records each member applied, for shareSeconds(); the gang
     * kernels count them, and the other shapes, which step one sim,
     * leave them zero. */
    std::vector<Count> applied;

  private:
    bool prefixOpen = false;
    std::vector<SimStats> warmupStats; // discarded, like simulate()'s
    std::vector<SimStats *> measuredPtrs;
    std::vector<SimStats *> warmupPtrs;
    std::chrono::steady_clock::duration stepped{};
    std::chrono::steady_clock::duration prefixStepped{};
};

/**
 * Fused exec running the batch kernels for sims whose dynamic
 * components share the concrete type @p P and one effective shift
 * policy. A sim with a profile, a prefix profile or an alias sink
 * runs alone. Hints and profile counts live on the pass's dense site
 * arrays. The kernels count nothing for a hinted record; finish()
 * settles the hinted sites from the window's per-site outcome totals,
 * which the pass's site index counts once per window.
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
        hintCodes.resize(members.size());
        for (std::size_t m = 0; m < members.size(); ++m) {
            predictors.push_back(members[m].concrete);
            if (members[m].hints != nullptr) {
                hintCodes[m] = hintCodesFor(*members[m].hints, *sites);
                hinted = true;
            }
            codePtrs.push_back(members[m].hints != nullptr
                                   ? hintCodes[m].data()
                                   : nullptr);
        }
        // Gangs, hinted sims and types with per-site state run over
        // the site index; the pass has one whenever a sim has hints, a
        // profile or a sink, sims are ganged, or the type needs one.
        sited = hinted || members.size() > 1 || batch::needsSiteIndex<P>;
        sink = predictors.front()->aliasSink();
        const bool profiling = sims.front()->options.profile != nullptr ||
                               sims.front()->prefixProfile != nullptr;
        if (profiling || sink != nullptr) {
            bpsim_assert(members.size() == 1,
                         "a profiling or attributed sim runs alone");
        }
        if (profiling)
            profileCounts.assign(sites->siteCount(), BranchProfile{});
        if (sited || profiling || sink != nullptr) {
            for (const Member &member : members) {
                siteTables.push_back(
                    batch::buildSiteTables(*member.concrete, *sites));
            }
            for (batch::SiteTables &tables : siteTables)
                tablePtrs.push_back(&tables);
        }
    }

  protected:
    void
    flushPrefix() override
    {
        FusedSim &sim = *sims.front();
        addProfileCounts(*sim.prefixProfile, prefixEnd);
        // Counts past the prefix feed only the sim's own profile;
        // without one, the rest of the window runs unprofiled.
        if (sim.options.profile == nullptr)
            std::vector<BranchProfile>().swap(profileCounts);
    }

    void
    finish() override
    {
        settleHinted();
        if (ProfileDb *profile = sims.front()->options.profile)
            addProfileCounts(*profile, lastRecord);
        for (FusedSim *sim : sims) {
            sim->stats.collisions = sim->predictor->collisionStats();
            sim->usedFastPath = true;
            sim->usedSimd = true;
        }
    }

    void
    runSegment(Count from, Count to, Segment segment) override
    {
        SimStats *const *stats = statsFor(segment);
        // Profile counts and alias attribution cover the measured
        // window only (the warmup boundary clears the sink), so a
        // solo sim's warmup takes the gang or plain shape, as does the
        // rest of a prefix sim's window once its counts are flushed.
        if (segment != Segment::Warmup &&
            (!profileCounts.empty() || sink != nullptr)) {
            batch::SoloArgs<P> args;
            args.predictor = predictors.front();
            args.siteTables = tablePtrs.front();
            args.hintCodes = codePtrs.front();
            args.policy = policy;
            args.profiles =
                profileCounts.empty() ? nullptr : profileCounts.data();
            args.sink = sink;
            args.stats = stats[0];
            args.buffer = &buffer;
            args.siteOf = sites->siteData();
            args.from = from;
            args.to = to;
            kernels.solo(args);
        } else if (sited) {
            // One kernel call advances every member through the
            // segment, each over its own record stream.
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
            args.applied = applied.data();
            kernels.gang(args);
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

    /** The measured window's per-site outcome totals up to @p end. */
    const std::vector<SiteOutcome> &
    outcomesUpTo(Count end) const
    {
        return sites->outcomesOver(buffer, warmupEnd, end);
    }

    /**
     * Count each hinted member's measured hinted records, which the
     * kernels skip: a hinted record is statically predicted, and
     * mispredicts exactly when its outcome opposes its site's hint.
     */
    void
    settleHinted()
    {
        if (!hinted || lastRecord == warmupEnd)
            return;
        const std::vector<SiteOutcome> &totals = outcomesUpTo(lastRecord);
        for (std::size_t m = 0; m < sims.size(); ++m) {
            const std::uint8_t *codes = codePtrs[m];
            if (codes == nullptr)
                continue;
            SimStats &stats = sims[m]->stats;
            for (std::uint32_t s = 0; s < totals.size(); ++s) {
                if ((codes[s] & hintPresentBit) == 0)
                    continue;
                const Count misses = (codes[s] & hintTakenBit) != 0
                                         ? totals[s].executed -
                                               totals[s].taken
                                         : totals[s].taken;
                stats.staticPredicted += totals[s].executed;
                stats.staticMispredictions += misses;
                stats.mispredictions += misses;
            }
        }
    }

    /**
     * Add the dense per-site counts so far, which cover the records
     * the sim applied, to @p profile, with each hinted site's outcomes
     * over the measured window up to @p end: simulate() records only
     * the outcome of a hinted record.
     */
    void
    addProfileCounts(ProfileDb &profile, Count end) const
    {
        const std::uint8_t *codes = codePtrs.front();
        const std::vector<SiteOutcome> *totals =
            codes != nullptr && end > warmupEnd ? &outcomesUpTo(end)
                                                : nullptr;
        for (std::uint32_t s = 0; s < profileCounts.size(); ++s) {
            BranchProfile counts = profileCounts[s];
            if (totals != nullptr && (codes[s] & hintPresentBit) != 0) {
                counts.executed += (*totals)[s].executed;
                counts.taken += (*totals)[s].taken;
            }
            if (counts.executed > 0)
                profile.addCounts(sites->sitePc(s), counts);
        }
    }

    const SiteIndex *sites;
    ShiftPolicy policy;
    BatchKernelSet<P> kernels;
    ContextAliasSink *sink = nullptr;
    bool hinted = false;
    bool sited = false;
    std::vector<P *> predictors;
    std::vector<std::vector<std::uint8_t>> hintCodes;
    std::vector<const std::uint8_t *> codePtrs;
    std::vector<BranchProfile> profileCounts;
    std::vector<batch::SiteTables> siteTables;
    std::vector<batch::SiteTables *> tablePtrs;
};

} // namespace

SimStats
simulate(BranchPredictor &predictor, BranchStream &stream,
         const SimOptions &options)
{
    stream.reset();
    predictor.reset();
    predictor.clearCollisionStats();

    auto *combined = dynamic_cast<CombinedPredictor *>(&predictor);

    // Warmup: train the predictor without recording anything.
    BranchRecord record;
    for (Count i = 0;
         i < options.warmupBranches && stream.next(record); ++i) {
        predictor.predict(record.pc);
        predictor.update(record.pc, record.taken);
        predictor.updateHistory(record.taken);
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

    // Resolve each sim once and reset a kernel sim's predictor (the
    // oracle resets its own). An empty hint database makes the
    // combined wrapper a pure pass-through, so such sims run as their
    // bare dynamic component; the results are identical.
    struct Resolved
    {
        const HintDb *hints = nullptr;
        ShiftPolicy policy = ShiftPolicy::NoShift;
        BranchPredictor *dyn = nullptr;
        bool solo = false; // a (prefix) profile or a sink: runs alone
        bool kernel = false;
    };
    std::vector<Resolved> resolved(sims.size());
    bool needs_sites = false;
    for (std::size_t s = 0; s < sims.size(); ++s) {
        FusedSim &sim = sims[s];
        bpsim_assert(sim.predictor != nullptr,
                     "fused sim needs a predictor");
        sim.stats = SimStats{};
        sim.seconds = 0.0;
        sim.prefixSeconds = 0.0;
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
        resolved[s].solo = sim.options.profile != nullptr ||
                           sim.prefixProfile != nullptr ||
                           resolved[s].dyn->aliasSink() != nullptr;
        bool sited = false;
        resolved[s].kernel =
            visitPredictor(*resolved[s].dyn, [&](auto &concrete) {
                sited = batch::needsSiteIndex<
                    std::decay_t<decltype(concrete)>>;
            });
        if (!resolved[s].kernel) {
            bpsim_assert(sim.prefixProfile == nullptr,
                         "a sim with a prefix profile must be a kernel "
                         "type: simulate() keeps no prefix profile");
            continue;
        }
        needs_sites = needs_sites || hinted || resolved[s].solo || sited;
        sim.predictor->reset();
        sim.predictor->clearCollisionStats();
    }

    // Hints, profile counts and per-site predictor state live on
    // dense site arrays, and every solo sim runs over the site index.
    SiteIndex built;
    if (sites == nullptr && needs_sites) {
        built = SiteIndex::build(buffer);
        sites = &built;
    }

    // Devirtualized sims are grouped into kernel execs: evaluation
    // sims (no profile of either kind, no alias sink) sharing a
    // concrete type, replay window and effective shift policy form one
    // gang; a profiling or attributed sim, or any sim of a pass without
    // a site index, runs alone. Every other sim runs simulate() after
    // the walk.
    const SimdLevel level = resolveSimdLevel();
    struct Group
    {
        std::type_index type;
        ShiftPolicy policy;
        Count warmup = 0;
        Count max = 0;
        bool open = false;
        std::vector<std::size_t> members;
    };
    std::vector<Group> groups;

    std::vector<std::unique_ptr<FusedExec>> execs;
    execs.reserve(sims.size());

    for (std::size_t s = 0; s < sims.size(); ++s) {
        const SimOptions &options = sims[s].options;
        visitPredictor(*resolved[s].dyn, [&](auto &concrete) {
            const Group key{typeid(concrete),
                            resolved[s].policy,
                            options.warmupBranches,
                            options.maxBranches,
                            sites != nullptr && !resolved[s].solo,
                            {}};
            Group *group = nullptr;
            for (Group &candidate : groups) {
                if (key.open && candidate.open &&
                    candidate.type == key.type &&
                    candidate.policy == key.policy &&
                    candidate.warmup == key.warmup &&
                    candidate.max == key.max) {
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
                batchKernelsFor<Concrete>(level)));
        });
    }

    // The fused walk: every sim steps through each block before the
    // pass moves to the next one, so the trace columns are read from
    // cache-resident memory once per block instead of once per sim.
    // Block boundaries are semantically invisible — each sim's
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

    for (auto &stepper : execs) {
        stepper->finish();
        stepper->shareSeconds();
    }

    // A predictor the kernels do not visit replays on the oracle.
    for (std::size_t s = 0; s < sims.size(); ++s) {
        if (resolved[s].kernel)
            continue;
        FusedSim &sim = sims[s];
        const auto begin = std::chrono::steady_clock::now();
        ReplayBuffer::Cursor cursor = buffer.cursor();
        sim.stats = simulate(*sim.predictor, cursor, sim.options);
        sim.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    }
}

} // namespace bpsim
