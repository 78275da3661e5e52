/**
 * @file
 * The service_mix request mix, drawn from the workload seed.
 *
 * A batch holds as many fresh requests as primed re-submits. Fresh
 * requests are 2-cell sweeps whose shape (program, paper predictor,
 * scheme, two sizes) comes from a stratified draw: programs, predictor
 * x scheme pairs and sizes appear equally often, so the work in a
 * batch barely depends on the seed. Each fresh request also gets a
 * workload seed never used before in the run, so the daemon can never
 * serve it from its response cache. Re-submits repeat the requests primed
 * during set-up and are always served from the cache.
 */

#ifndef PERFBENCH_REQUEST_MIX_HH
#define PERFBENCH_REQUEST_MIX_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace perfbench
{

/** What a request asks for, minus its workload seed. */
struct RequestShape
{
    std::string program;
    std::string predictor;
    std::string scheme;
    std::vector<std::size_t> sizes;
};

/** Branch windows of every mix request. */
inline constexpr bpsim::Count mixEvalBranches = 500'000;
inline constexpr bpsim::Count mixProfileBranches = 250'000;

/**
 * @p count shapes from @p seed, stratified so that a batch's work
 * barely depends on the seed. Shape i takes predictor x scheme pair
 * (i + a) mod 15, program (i + b) mod 6 and size pair (i + c) mod 3;
 * the size pairs {2, 16}, {4, 32} and {8, 64} KB hold each size once.
 * The seed picks the offsets a, b, c and the order within each size
 * pair. Any 30 consecutive shapes hold every pair twice, every
 * program five times and every size ten times.
 */
std::vector<RequestShape> drawShapes(std::uint64_t seed,
                                     std::size_t count);

/** The sweep a shape asks for under workload seed @p request_seed. */
bpsim::service::SweepSpec makeSweep(const RequestShape &shape,
                                    std::uint64_t request_seed);

/**
 * Hands out workload seeds that are unique within one run: a seeded
 * sequence that skips any value it already issued. Values stay below
 * 2^31 so they survive the JSON wire format exactly.
 */
class SeedSequence
{
  public:
    explicit SeedSequence(std::uint64_t seed) : state(seed) {}

    std::uint64_t next();

  private:
    std::uint64_t state;
    std::uint64_t counter = 0;
    std::set<std::uint64_t> issued;
};

/** One request of a batch. */
struct MixEntry
{
    /** Fresh (always a cache miss) or a primed re-submit. */
    bool fresh = true;

    /** Index into the fresh shapes or the primed requests. */
    std::size_t index = 0;
};

/**
 * Order of batch @p batch: @p fresh_count fresh requests and as many
 * re-submits of the @p primed_count primed requests, interleaved in a
 * seeded order.
 */
std::vector<MixEntry> batchOrder(std::uint64_t seed, std::size_t batch,
                                 std::size_t fresh_count,
                                 std::size_t primed_count);

} // namespace perfbench

#endif // PERFBENCH_REQUEST_MIX_HH
