/**
 * @file
 * Self-registering predictor registry.
 *
 * Every concrete predictor registers a PredictorInfo from its own
 * translation unit (BPSIM_REGISTER_PREDICTOR at the bottom of its
 * .cc file). The factory, the CLI listing, the golden suite and the
 * benches all enumerate this registry instead of hand-maintained
 * name lists, so adding a predictor means: write the class, register
 * it, and (if the devirtualized kernels should handle it) add one
 * line to BPSIM_KERNEL_PREDICTORS in factory.hh. Nothing else —
 * runner identity strings, checkpoint fingerprints, profile-cache
 * keys and the golden suite derive from the registered name.
 */

#ifndef BPSIM_PREDICTOR_REGISTRY_HH
#define BPSIM_PREDICTOR_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "predictor/predictor.hh"
#include "support/error.hh"

namespace bpsim
{

/** One registered predictor construction recipe. */
struct PredictorInfo
{
    /** Spec name ("gshare", "tage", ...). */
    std::string name;

    /** One-line description for `bpsim_cli list` and docs. */
    std::string description;

    /** Build an instance with a byte budget. */
    std::function<std::unique_ptr<BranchPredictor>(std::size_t)> make;

    /** One of the paper's five simulated schemes (PredictorKind). */
    bool paperKind = false;

    /**
     * The devirtualized replay kernels dispatch on this concrete
     * type (it is listed in BPSIM_KERNEL_PREDICTORS); false means
     * simulation takes the virtual fallback path.
     */
    bool kernelCapable = false;

    /**
     * The batch kernels cover this concrete type (hasBatchKernels in
     * core/batch_kernels.hh); false means the engine runs its record
     * kernels instead.
     */
    bool batchCapable = false;

    /** Byte budget used when a spec gives the bare name. */
    std::size_t defaultBytes = 8192;

    /**
     * Golden-file stem under tests/golden/ (defaults to the
     * registered name; "ideal" pins as "ideal_gshare").
     */
    std::string goldenFile;
};

/**
 * The global name -> recipe table. Populated at static-initialization
 * time by the registration objects each predictor .cc defines;
 * construct-on-first-use so registration order across translation
 * units cannot race the table's own construction.
 */
class PredictorRegistry
{
  public:
    static PredictorRegistry &instance();

    /** Register @p info; duplicate names are a simulator bug. */
    void add(PredictorInfo info);

    /** Recipe for @p name; null when unregistered. */
    const PredictorInfo *find(const std::string &name) const;

    /** Every recipe, sorted by name (deterministic across link
     * orders; static-init registration order is not). */
    std::vector<const PredictorInfo *> all() const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** "agree, bimodal, ..." for error messages and usage text. */
    std::string namesJoined() const;

  private:
    PredictorRegistry() = default;

    std::vector<PredictorInfo> entries;
};

/** A parsed "name[:bytes]" spec resolved against the registry. */
struct ParsedPredictorSpec
{
    const PredictorInfo *info = nullptr;
    std::size_t bytes = 0;
};

/**
 * Parse a "name:bytes" spec (bare name = the recipe's defaultBytes)
 * and resolve the name. Unknown names and malformed sizes come back
 * as config_invalid Errors; the unknown-name message lists every
 * registered predictor.
 */
Result<ParsedPredictorSpec>
parsePredictorSpec(const std::string &spec);

/** Registration hook: constructed at static init by the macro below. */
struct PredictorRegistration
{
    explicit PredictorRegistration(PredictorInfo info)
    {
        PredictorRegistry::instance().add(std::move(info));
    }
};

/**
 * Register a predictor from its .cc file. @p ident is a C identifier
 * (usually the name), @p ... a PredictorInfo expression. The anchor
 * function exists so registry.cc can reference one symbol per
 * registration TU: static-archive linkers drop object files nothing
 * references, and a TU whose only export is a registration static is
 * exactly such a file once the factory stops naming constructors.
 * Registrations are expected to designate only the fields they need
 * (the rest have defaults), so the aggregate-initializer warning is
 * suppressed here rather than at every call site.
 */
#define BPSIM_REGISTER_PREDICTOR(ident, ...)                           \
    namespace                                                          \
    {                                                                  \
    _Pragma("GCC diagnostic push")                                     \
    _Pragma("GCC diagnostic ignored \"-Wmissing-field-initializers\"") \
    const PredictorRegistration bpsimRegistration_##ident{             \
        __VA_ARGS__};                                                  \
    _Pragma("GCC diagnostic pop")                                      \
    }                                                                  \
    const void *bpsimPredictorAnchor_##ident()                         \
    {                                                                  \
        return &bpsimRegistration_##ident;                             \
    }

} // namespace bpsim

#endif // BPSIM_PREDICTOR_REGISTRY_HH
