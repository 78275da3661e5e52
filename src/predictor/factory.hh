/**
 * @file
 * Construction of predictors by kind, name or "name:bytes" spec, and
 * the devirtualized-kernel dispatch list.
 *
 * Construction is backed by the self-registering PredictorRegistry
 * (registry.hh): every predictor's .cc registers its own recipe, so
 * the name-based factory, the CLI listing and the golden suite never
 * enumerate predictors by hand. The PredictorKind enum survives for
 * the paper's five simulated schemes, which the figure benches
 * address positionally.
 */

#ifndef BPSIM_PREDICTOR_FACTORY_HH
#define BPSIM_PREDICTOR_FACTORY_HH

#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "predictor/agree.hh"
#include "predictor/bimodal.hh"
#include "predictor/bimode.hh"
#include "predictor/ghist.hh"
#include "predictor/gshare.hh"
#include "predictor/perceptron.hh"
#include "predictor/predictor.hh"
#include "predictor/tage.hh"
#include "predictor/two_bc_gskew.hh"

namespace bpsim
{

/** The five dynamic prediction schemes simulated in the paper. */
enum class PredictorKind
{
    Bimodal,
    Ghist,
    Gshare,
    BiMode,
    TwoBcGskew,
};

/** All kinds in the paper's Figures 7-12 order. */
const std::vector<PredictorKind> &allPredictorKinds();

/** Scheme name as used in the paper ("bimodal", "ghist", ...). */
std::string predictorKindName(PredictorKind kind);

/**
 * Parse a paper-scheme name; raises a config_invalid ErrorException
 * listing the registered names on an unknown one.
 */
PredictorKind predictorKindFromName(const std::string &name);

/** Build a predictor of @p kind with a @p size_bytes budget. */
std::unique_ptr<BranchPredictor> makePredictor(PredictorKind kind,
                                               std::size_t size_bytes);

/**
 * Build from a spec string "name:bytes", e.g. "gshare:16384", for
 * any registered predictor. A bare name uses the registration's
 * default budget. Unknown names and malformed sizes raise
 * config_invalid ErrorExceptions; the unknown-name message lists the
 * registered predictors.
 */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &spec);

/**
 * The concrete predictor types the devirtualized replay kernels
 * dispatch to. A type listed here flows through visitPredictor into
 * the engine's kernels; the batch kernel units instantiate for every
 * listed type, so each one needs a BatchTraits specialization
 * (core/batch_kernels.hh) and a batch state (StateFor in
 * core/batch_kernels_impl.hh). The batch kernels cover every shape
 * of a listed type: hints, a profile and an attached
 * ContextAliasSink, alone or together. A type that keeps per-site
 * state of its own (agree's bias bits; batch::needsSiteIndex) runs
 * every pass over a site index.
 */
#define BPSIM_KERNEL_PREDICTORS(X)                                     \
    X(Bimodal)                                                         \
    X(Ghist)                                                           \
    X(Gshare)                                                          \
    X(BiMode)                                                          \
    X(TwoBcGskew)                                                      \
    X(Tage)                                                            \
    X(HashedPerceptron)                                                \
    X(Agree)

/**
 * Dispatch on the concrete type of @p predictor: invoke @p visitor
 * with a reference to the predictor as its exact concrete class, for
 * each type in BPSIM_KERNEL_PREDICTORS. This is the single
 * type-resolution point of the devirtualized replay kernels (see
 * core/engine simulateReplay): one typeid comparison per simulation
 * run instead of three virtual calls per branch.
 *
 * Matching is on the exact dynamic type, not an is-a relationship,
 * because a subclass could override the virtual protocol in ways the
 * batch kernels, which replay the base class's protocol on its raw
 * tables, would silently bypass.
 *
 * @return true if the concrete type was listed and the visitor ran;
 *         false (visitor untouched) for anything else, e.g. yags,
 *         gselect, tournament or ideal, which then take the virtual
 *         fallback path.
 */
template <typename Visitor>
bool
visitPredictor(BranchPredictor &predictor, Visitor &&visitor)
{
    const std::type_info &type = typeid(predictor);
#define BPSIM_VISIT_PREDICTOR(P)                                       \
    if (type == typeid(P)) {                                           \
        visitor(static_cast<P &>(predictor));                          \
        return true;                                                   \
    }
    BPSIM_KERNEL_PREDICTORS(BPSIM_VISIT_PREDICTOR)
#undef BPSIM_VISIT_PREDICTOR
    return false;
}

} // namespace bpsim

#endif // BPSIM_PREDICTOR_FACTORY_HH
