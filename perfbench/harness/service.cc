/**
 * @file
 * The service_mix workload: the daemon (ServiceServer) hosted in this
 * process, loaded by a closed loop of two ServiceClient connections.
 *
 * Set-up starts a daemon in a fresh state directory, waits until
 * `status` answers and primes the requests that are re-submitted
 * later; it is repeated and its median reported. The timed region
 * sends batches of requests, half fresh sweeps (always cache misses)
 * and half re-submits of primed ones (always cache hits). Each
 * connection sends its next request only after its previous reply,
 * and a batch's wall time runs from its first request sent to its
 * last reply read.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/checkpoint.hh"
#include "core/runner.hh"
#include "decompose.hh"
#include "request_mix.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/random.hh"
#include "workloads.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace perfbench
{

namespace
{

/** Fresh requests per batch: one full cycle of the stratified draw
 * (see drawShapes). */
constexpr std::size_t freshPerBatch = 30;

/** Distinct requests primed during set-up, one per program; each is
 * re-submitted five times per batch. */
constexpr std::size_t primedCount = 6;

/** Times set-up is repeated in one run. */
constexpr std::size_t setupReps = 5;

/** Fresh requests re-executed in-process to check their responses. */
constexpr std::size_t freshChecks = 3;

/** Fresh requests decomposed by the traced run. */
constexpr std::size_t tracedSamples = 8;

/** One answered request of the closed loop. */
struct Sample
{
    MixEntry entry;
    SweepSpec spec;
    std::uint64_t request = 0;
    double latency = 0.0;
    bool ok = false;
    bool shed = false;
    ServiceResponse response;
};

/** A daemon with its own state directory and socket. */
struct Daemon
{
    std::string stateDir;
    std::string socketPath;
    std::unique_ptr<ServiceServer> server;

    ~Daemon() { stop(); }

    void
    stop()
    {
        if (server != nullptr) {
            server->requestDrain();
            server->waitUntilStopped();
            server.reset();
        }
        std::error_code ignored;
        std::filesystem::remove_all(stateDir, ignored);
        std::filesystem::remove(socketPath, ignored);
    }
};

ServiceRequest
sweepRequest(const std::string &id, const SweepSpec &spec)
{
    ServiceRequest request;
    request.id = id;
    request.kind = RequestKind::Sweep;
    request.sweep = spec;
    return request;
}

/** Same cells, field for field, in the same order? */
bool
sameCells(const std::vector<CheckpointRecord> &a,
          const std::vector<CheckpointRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].fingerprint != b[i].fingerprint ||
            a[i].label != b[i].label ||
            a[i].usedKernel != b[i].usedKernel ||
            a[i].usedSimd != b[i].usedSimd ||
            a[i].phaseBranches != b[i].phaseBranches ||
            !sameResult(a[i].result, b[i].result))
            return false;
    }
    return true;
}

/** Run a compiled sweep's cells in-process, as the daemon's executor
 * does but without its checkpoint. */
MatrixResult
runInProcess(CompiledSweep compiled)
{
    RunnerOptions options;
    options.threads = 1;
    ExperimentRunner runner(options);
    const std::size_t program =
        runner.addWorkload(std::move(compiled.program));
    for (std::size_t i = 0; i < compiled.configs.size(); ++i)
        runner.addCell(program, compiled.configs[i], compiled.labels[i]);
    return runner.run();
}

/** Does an in-process run agree with the daemon's response cells? */
bool
matchesResponse(const MatrixResult &local, const ServiceResponse &response)
{
    if (local.cells.size() != response.cells.size())
        return false;
    for (std::size_t i = 0; i < local.cells.size(); ++i) {
        if (!local.cells[i].ok() ||
            !sameResult(local.cells[i].result, response.cells[i].result))
            return false;
    }
    return true;
}

/** The plan of one request, for the traced decomposition. */
Plan
requestPlan(const SweepSpec &spec)
{
    Plan plan;
    plan.probeBranches = spec.evalBranches;
    plan.sources.push_back(
        {[spec] { return std::move(compileSweep(spec).value().program); },
         false});
    Result<CompiledSweep> compiled = compileSweep(spec);
    for (const ExperimentConfig &config : compiled.value().configs)
        plan.cells.push_back({0, config});
    return plan;
}

/** Start a daemon, wait for `status`, prime @p primed; returns false
 * when any step failed. */
bool
setUp(Daemon &daemon, const std::vector<SweepSpec> &primed,
      std::vector<ServiceResponse> &responses)
{
    std::error_code ignored;
    std::filesystem::remove_all(daemon.stateDir, ignored);
    ServiceOptions options;
    options.socketPath = daemon.socketPath;
    options.stateDir = daemon.stateDir;
    options.threads = 1;
    daemon.server = std::make_unique<ServiceServer>(options);
    if (!daemon.server->start().ok())
        return false;
    Result<ServiceClient> client = ServiceClient::connect(daemon.socketPath);
    if (!client.ok())
        return false;
    ServiceRequest status;
    status.id = "status";
    status.kind = RequestKind::Status;
    Result<ServiceResponse> answer = client.value().call(status);
    if (!answer.ok() || !answer.value().ok)
        return false;
    responses.clear();
    for (std::size_t i = 0; i < primed.size(); ++i) {
        Result<ServiceResponse> reply = client.value().call(
            sweepRequest("prime-" + std::to_string(i), primed[i]));
        if (!reply.ok() || !reply.value().ok ||
            reply.value().executed != primed[i].sizes.size())
            return false;
        responses.push_back(std::move(reply.value()));
    }
    return true;
}

/** Milliseconds-valued metric of the latency class @p name. */
void
reportLatency(Report &report, const std::string &name,
              const std::vector<double> &seconds)
{
    std::vector<double> ms;
    for (const double value : seconds)
        ms.push_back(value * 1e3);
    report.addExtra(name + "_p50_ms", median(ms), "ms", ms.size());
    const std::optional<double> tail =
        highestReportablePercentile(ms.size(), {90.0, 99.0});
    if (tail.has_value()) {
        report.addExtra(name + "_p" + std::to_string(int(*tail)) + "_ms",
                        percentile(ms, *tail), "ms", ms.size());
    } else {
        report.note(name + "_p90_ms not reported: " +
                    std::to_string(samplesBeyond(ms.size(), 90.0)) +
                    " samples beyond it (needs 10)");
    }
}

} // namespace

int
runServiceWorkload(const RunArgs &args)
{
    SpanRecorder::global().setEnabled(args.trace);
    Report report;
    OperationTally tally;

    const std::vector<RequestShape> fresh_shapes =
        drawShapes(args.seed, freshPerBatch);
    const std::vector<RequestShape> primed_shapes =
        drawShapes(mix64(args.seed), primedCount);
    SeedSequence seeds(args.seed);
    std::vector<SweepSpec> primed;
    for (const RequestShape &shape : primed_shapes)
        primed.push_back(makeSweep(shape, seeds.next()));

    // Set-up, repeated; the last daemon serves the timed region.
    const std::string tag = std::to_string(getpid());
    std::vector<double> setups;
    std::vector<ServiceResponse> primed_responses;
    Daemon daemon;
    for (std::size_t r = 0; r < setupReps; ++r) {
        daemon.stop();
        daemon.stateDir = args.workDir + "/state-" + tag;
        daemon.socketPath = args.workDir + "/svc-" + tag + ".sock";
        const double t0 = nowSeconds();
        ScopedSpan span("service.setup");
        if (!setUp(daemon, primed, primed_responses)) {
            std::fprintf(stderr, "perfbench: daemon set-up failed\n");
            return 1;
        }
        span.stop();
        setups.push_back(nowSeconds() - t0);
    }

    std::vector<ServiceClient> clients;
    for (int c = 0; c < 2; ++c) {
        Result<ServiceClient> client =
            ServiceClient::connect(daemon.socketPath);
        if (!client.ok()) {
            std::fprintf(stderr, "perfbench: cannot connect\n");
            return 1;
        }
        clients.push_back(std::move(client.value()));
    }

    // The timed region: closed-loop batches until --seconds passed.
    std::vector<Sample> samples;
    std::vector<double> walls;
    std::vector<double> batch_branches;
    std::uint64_t next_request = 1;
    const double deadline = nowSeconds() + args.seconds;
    for (std::size_t batch = 0; batch == 0 || nowSeconds() < deadline;
         ++batch) {
        const std::vector<MixEntry> order =
            batchOrder(args.seed, batch, freshPerBatch, primedCount);
        std::vector<Sample> slots(order.size());
        for (std::size_t k = 0; k < order.size(); ++k) {
            slots[k].entry = order[k];
            slots[k].spec =
                order[k].fresh
                    ? makeSweep(fresh_shapes[order[k].index], seeds.next())
                    : primed[order[k].index];
            slots[k].request = next_request++;
        }
        std::atomic<std::size_t> cursor{0};
        const auto connection = [&](ServiceClient &client) {
            for (;;) {
                const std::size_t k = cursor.fetch_add(1);
                if (k >= slots.size())
                    return;
                Sample &slot = slots[k];
                ScopedSpan request_span("service.request", slot.request);
                const ServiceRequest request = sweepRequest(
                    "b" + std::to_string(batch) + "-" + std::to_string(k),
                    slot.spec);
                if (args.trace) {
                    const std::string line = renderRequest(request);
                    ScopedSpan parse("service.parse", slot.request);
                    (void)parseRequest(line);
                }
                Result<ServiceResponse> reply = [&] {
                    ScopedSpan trip("service.roundtrip", slot.request);
                    const double t0 = nowSeconds();
                    Result<ServiceResponse> answer = client.call(request);
                    slot.latency = nowSeconds() - t0;
                    return answer;
                }();
                if (!reply.ok())
                    continue;
                slot.response = std::move(reply.value());
                slot.ok = slot.response.ok;
                slot.shed = slot.response.failure.has_value() &&
                            slot.response.failure->code() ==
                                ErrorCode::ResourceExhausted;
                if (args.trace) {
                    ScopedSpan render("service.render", slot.request);
                    (void)renderResponse(slot.response);
                }
            }
        };
        const double t0 = nowSeconds();
        {
            std::jthread second(connection, std::ref(clients[1]));
            connection(clients[0]);
        }
        walls.push_back(nowSeconds() - t0);

        double branches = 0.0;
        for (Sample &slot : slots) {
            for (const CheckpointRecord &cell : slot.response.cells)
                branches += static_cast<double>(cell.result.simulatedBranches);
            samples.push_back(std::move(slot));
        }
        batch_branches.push_back(branches);
    }

    // Outside the timed region: tally and check every response.
    std::vector<double> fresh_latency;
    std::vector<double> cached_latency;
    Count misp = 0;
    Count instructions = 0;
    std::vector<std::size_t> fresh_ok;
    for (std::size_t s = 0; s < samples.size(); ++s) {
        const Sample &sample = samples[s];
        if (sample.shed) {
            tally.addShed();
            continue;
        }
        if (!sample.ok) {
            tally.addError();
            continue;
        }
        tally.addOk();
        const ServiceResponse &response = sample.response;
        bool good = false;
        if (sample.entry.fresh) {
            good = response.executed == sample.spec.sizes.size() &&
                   response.restored == 0;
            fresh_latency.push_back(sample.latency);
            if (good)
                fresh_ok.push_back(s);
        } else {
            good = response.restored == sample.spec.sizes.size() &&
                   sameCells(response.cells,
                             primed_responses[sample.entry.index].cells);
            cached_latency.push_back(sample.latency);
        }
        if (!good)
            tally.markMismatch();
        for (const CheckpointRecord &cell : response.cells) {
            misp += cell.result.stats.mispredictions;
            instructions += cell.result.stats.instructions;
        }
    }

    // A seeded sample of fresh responses against in-process runs.
    Rng rng(mix64(args.seed ^ 0xf2e54ULL));
    for (std::size_t k = 0; k < freshChecks && !fresh_ok.empty(); ++k) {
        const Sample &sample =
            samples[fresh_ok[rng.nextBelow(fresh_ok.size())]];
        const MatrixResult local =
            runInProcess(std::move(compileSweep(sample.spec).value()));
        if (!matchesResponse(local, sample.response)) {
            report.note("fresh response MISMATCH for request " +
                        std::to_string(sample.request));
            tally.markMismatch();
        }
    }

    if (args.trace) {
        // Per-layer work of the daemon, done again through the same
        // public calls from outside, sharing each request's id.
        LayerSamples layers;
        std::vector<double> compile_ms;
        std::vector<double> execute_ms;
        std::vector<double> wait_ms;
        std::size_t traced = 0;
        for (const std::size_t s : fresh_ok) {
            if (traced == tracedSamples)
                break;
            const Sample &sample = samples[s];
            Result<CompiledSweep> compiled = [&] {
                ScopedSpan span("service.compile", sample.request);
                Result<CompiledSweep> out = compileSweep(sample.spec);
                compile_ms.push_back(span.stop() * 1e3);
                return out;
            }();
            MatrixResult local;
            {
                ScopedSpan span("service.execute", sample.request);
                local = runInProcess(std::move(compiled.value()));
                execute_ms.push_back(span.stop() * 1e3);
            }
            wait_ms.push_back(sample.latency * 1e3 - compile_ms.back() -
                              execute_ms.back());
            if (!matchesResponse(local, sample.response))
                tally.markMismatch();

            const Plan plan = requestPlan(sample.spec);
            Decomposition parts = decompose(plan, layers);
            const double traced_seconds =
                parts.materializeSeconds + parts.executeSeconds;
            layers.overheadS.push_back(execute_ms.back() / 1e3 -
                                       traced_seconds);
            std::string why;
            if (!matchesRun(parts, local, why)) {
                report.note("decomposition MISMATCH: " + why);
                tally.markMismatch();
            }
            if (traced < 2)
                probeEngines(plan, parts, layers);
            if (!probeCheckpoint(plan, parts,
                                 args.workDir + "/checkpoint-" + tag +
                                     ".jsonl",
                                 layers, false))
                tally.markMismatch();
            ++traced;
        }
        // Cached requests: compile plus the primed checkpoint load.
        std::vector<double> primed_compile(primed.size(), 0.0);
        std::vector<double> primed_load(primed.size(), 0.0);
        for (std::size_t p = 0; p < primed.size(); ++p) {
            std::string fingerprint;
            {
                ScopedSpan span("service.compile");
                fingerprint =
                    compileSweep(primed[p]).value().requestFingerprint;
                primed_compile[p] = span.stop() * 1e3;
                compile_ms.push_back(primed_compile[p]);
            }
            SweepCheckpoint checkpoint(daemon.stateDir + "/req-" +
                                       fingerprint + ".jsonl");
            ScopedSpan span("checkpoint.load");
            if (!checkpoint.load().ok() ||
                checkpoint.size() != primed[p].sizes.size())
                tally.markMismatch();
            primed_load[p] = span.stop() * 1e3;
            layers.loadMs.push_back(primed_load[p]);
        }
        for (const Sample &sample : samples) {
            if (!sample.entry.fresh && sample.ok) {
                const std::size_t p = sample.entry.index;
                wait_ms.push_back(sample.latency * 1e3 -
                                  primed_compile[p] - primed_load[p]);
            }
        }

        const auto spanMedianUs = [](const char *name) {
            std::vector<double> us;
            for (const Span &span : SpanRecorder::global().named(name))
                us.push_back(span.duration() * 1e6);
            return std::pair(median(us), us.size());
        };
        reportLayers(layers, report);
        report.addExtra("service.compile_ms", median(compile_ms), "ms",
                        compile_ms.size());
        const auto [parse_us, parses] = spanMedianUs("service.parse");
        report.addExtra("service.parse_us", parse_us, "us", parses);
        const auto [render_us, renders] = spanMedianUs("service.render");
        report.addExtra("service.render_us", render_us, "us", renders);
        report.addExtra("service.execute_ms", median(execute_ms), "ms",
                        execute_ms.size());
        report.addExtra("service.wait_ms", median(wait_ms), "ms",
                        wait_ms.size());
        report.addExtra("traced_wall_s", center(walls), "s", walls.size());
        const std::string spans_path =
            args.workDir + "/spans-" + args.workload + ".jsonl";
        if (SpanRecorder::global().writeJsonl(spans_path))
            report.note("spans: " + spans_path);
    } else {
        const double wall = center(walls);
        report.add("wall_s", wall, "s", walls.size());
        report.add("setup_s", median(setups), "s", setups.size());
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.add("sim_mbranches_per_s",
                   median(batch_branches) / wall / 1e6, "Mbranch/s",
                   walls.size(), "nominal branches of a batch's cells");
        report.addExtra("misp_ki",
                        instructions == 0
                            ? 0.0
                            : 1000.0 * static_cast<double>(misp) /
                                  static_cast<double>(instructions),
                        "MISP/KI", samples.size());
        report.addExtra("req_per_s", 2.0 * freshPerBatch / wall, "req/s",
                        walls.size(),
                        std::to_string(2 * freshPerBatch) +
                            " requests per batch, 2 connections");
        reportLatency(report, "fresh", fresh_latency);
        reportLatency(report, "cached", cached_latency);
        report.note("raw wall_s: " + joinSamples(walls));
        report.note("raw setup_s: " + joinSamples(setups));
    }

    clients.clear();
    daemon.stop();
    const bool ok = tally.failed() == 0;
    report.print(ok, tally);
    return ok ? 0 : 1;
}

} // namespace perfbench
