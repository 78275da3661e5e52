#include "request_mix.hh"

#include <utility>

#include "core.hh"
#include "support/random.hh"
#include "workload/specint.hh"

namespace perfbench
{

namespace
{

const std::vector<std::string> paperPredictors = {
    "bimodal", "ghist", "gshare", "bimode", "2bcgskew"};

const std::vector<std::string> mixSchemes = {"none", "static_95",
                                             "static_acc"};

const std::vector<std::size_t> mixSizes = {2048,  4096,  8192,
                                           16384, 32768, 65536};

} // namespace

std::vector<RequestShape>
drawShapes(std::uint64_t seed, std::size_t count)
{
    bpsim::Rng rng(mix64(seed ^ 0x5e55'1011ULL));
    const std::vector<bpsim::SpecProgram> &programs =
        bpsim::allSpecPrograms();
    const std::size_t pairs = paperPredictors.size() * mixSchemes.size();
    const std::size_t size_pairs = mixSizes.size() / 2;
    const std::size_t pair_offset = rng.nextBelow(pairs);
    const std::size_t program_offset = rng.nextBelow(programs.size());
    const std::size_t size_offset = rng.nextBelow(size_pairs);

    std::vector<RequestShape> shapes;
    shapes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t pair = (i + pair_offset) % pairs;
        const std::size_t sizes = (i + size_offset) % size_pairs;
        RequestShape shape;
        shape.predictor = paperPredictors[pair % paperPredictors.size()];
        shape.scheme = mixSchemes[pair / paperPredictors.size()];
        shape.program = bpsim::specProgramName(
            programs[(i + program_offset) % programs.size()]);
        shape.sizes = {mixSizes[sizes], mixSizes[sizes + size_pairs]};
        if (rng.chance(0.5))
            std::swap(shape.sizes[0], shape.sizes[1]);
        shapes.push_back(std::move(shape));
    }
    return shapes;
}

bpsim::service::SweepSpec
makeSweep(const RequestShape &shape, std::uint64_t request_seed)
{
    bpsim::service::SweepSpec spec;
    spec.program = shape.program;
    spec.input = "ref";
    spec.seed = request_seed;
    spec.predictor = shape.predictor;
    spec.sizes = shape.sizes;
    spec.scheme = shape.scheme;
    spec.evalBranches = mixEvalBranches;
    spec.profileBranches = mixProfileBranches;
    return spec;
}

std::uint64_t
SeedSequence::next()
{
    for (;;) {
        const std::uint64_t value =
            1 + (mix64(state + 0x51ed'2701ULL * ++counter) % 0x7fff'fffeULL);
        if (issued.insert(value).second)
            return value;
    }
}

std::vector<MixEntry>
batchOrder(std::uint64_t seed, std::size_t batch,
           std::size_t fresh_count, std::size_t primed_count)
{
    std::vector<MixEntry> order;
    order.reserve(2 * fresh_count);
    for (std::size_t i = 0; i < fresh_count; ++i)
        order.push_back({true, i});
    for (std::size_t i = 0; i < fresh_count; ++i)
        order.push_back({false, (batch * fresh_count + i) % primed_count});
    bpsim::Rng rng(mix64(seed ^ mix64(batch + 1)));
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

} // namespace perfbench
