/**
 * @file
 * Service-mode tests: protocol round-trips, daemon-vs-batch
 * bit-identity, idempotent response caching, restart resume,
 * deadline handling, per-request fault isolation, quarantine, and
 * load-shedding — all against an in-process ServiceServer talking
 * over real Unix domain sockets.
 *
 * The FaultInjector and the servers are process-wide state, so every
 * test runs in the ServiceTest fixture: each test gets its own
 * socket and state directory (wiped up front so reruns stay
 * deterministic) and TearDown disarms the injector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "core/checkpoint.hh"
#include "core/runner.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/fault.hh"

namespace bpsim
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** Small but non-trivial sweep: 2 cells, one shared profile phase. */
service::SweepSpec
smallSweep()
{
    service::SweepSpec spec;
    spec.program = "compress";
    spec.predictor = "gshare";
    spec.sizes = {1024, 2048};
    spec.scheme = "static_95";
    spec.evalBranches = 120'000;
    spec.profileBranches = 60'000;
    return spec;
}

service::ServiceRequest
sweepRequest(std::string id, const service::SweepSpec &spec)
{
    service::ServiceRequest request;
    request.id = std::move(id);
    request.kind = service::RequestKind::Sweep;
    request.sweep = spec;
    return request;
}

service::ServiceRequest
statusRequest(std::string id)
{
    service::ServiceRequest request;
    request.id = std::move(id);
    request.kind = service::RequestKind::Status;
    return request;
}

/**
 * A one-shot executor gate: installed as ServiceOptions::
 * onExecuteBegin, it blocks the first request to reach the executor
 * until release() — so tests can hold the executor busy and fill the
 * admission queue deterministically, with no timing assumptions.
 */
class ExecutorGate
{
  public:
    ExecutorGate() : gate(barrier.get_future().share()) {}

    std::function<void()>
    hook()
    {
        return [this] {
            if (holding.exchange(false))
                gate.wait();
        };
    }

    void
    release()
    {
        if (!released.exchange(true))
            barrier.set_value();
    }

  private:
    std::promise<void> barrier;
    std::shared_future<void> gate;
    std::atomic<bool> holding{true};
    std::atomic<bool> released{false};
};

/** The daemon's answer must equal what the batch path computes, so
 * run the same compiled sweep through ExperimentRunner directly. */
MatrixResult
runDirect(const service::SweepSpec &spec)
{
    Result<service::CompiledSweep> compiled =
        service::compileSweep(spec);
    EXPECT_TRUE(compiled.ok());
    RunnerOptions options;
    options.threads = 1;
    ExperimentRunner runner(options);
    const std::size_t program = runner.addWorkload(
        std::move(compiled.value().program));
    for (std::size_t i = 0; i < compiled.value().configs.size(); ++i) {
        runner.addCell(program, compiled.value().configs[i],
                       compiled.value().labels[i]);
    }
    return runner.run();
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.staticPredicted, b.staticPredicted);
    EXPECT_EQ(a.staticMispredictions, b.staticMispredictions);
    EXPECT_EQ(a.collisions.lookups, b.collisions.lookups);
    EXPECT_EQ(a.collisions.collisions, b.collisions.collisions);
    EXPECT_EQ(a.collisions.constructive, b.collisions.constructive);
    EXPECT_EQ(a.collisions.destructive, b.collisions.destructive);
}

class ServiceTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }

    /** Fresh per-test options: unique socket + wiped state dir. */
    service::ServiceOptions
    makeOptions(const std::string &tag)
    {
        service::ServiceOptions options;
        options.socketPath = tempPath("bpsvc_" + tag + ".sock");
        options.stateDir = tempPath("bpsvc_" + tag + ".state");
        options.threads = 2;
        options.allowFaultInjection = true;
        std::error_code ignored;
        std::filesystem::remove_all(options.stateDir, ignored);
        std::filesystem::remove(options.socketPath, ignored);
        return options;
    }

    service::ServiceClient
    connectTo(const service::ServiceOptions &options)
    {
        Result<service::ServiceClient> client =
            service::ServiceClient::connect(options.socketPath);
        EXPECT_TRUE(client.ok());
        return std::move(client.value());
    }

    service::ServiceResponse
    call(const service::ServiceOptions &options,
         const service::ServiceRequest &request)
    {
        service::ServiceClient client = connectTo(options);
        Result<service::ServiceResponse> response =
            client.call(request);
        EXPECT_TRUE(response.ok());
        return std::move(response.value());
    }

    /** Poll the status op (answered inline, never queued) until
     * @p ready accepts a snapshot; lets tests observe the executor
     * and the admission queue without perturbing them. */
    void
    awaitStatus(
        const service::ServiceOptions &options,
        const std::function<bool(const service::ServiceResponse &)>
            &ready)
    {
        for (int spin = 0; spin < 5000; ++spin) {
            const service::ServiceResponse status = call(
                options,
                statusRequest("poll-" + std::to_string(spin)));
            if (ready(status))
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        FAIL() << "daemon never reached the awaited state";
    }
};

TEST_F(ServiceTest, RequestRoundTripsThroughTheWire)
{
    service::ServiceRequest request =
        sweepRequest("round-trip", smallSweep());
    request.deadlineMs = 1500;
    request.faultSpec = "cell:2:internal:1";
    request.sweep.profileInput = "train";
    request.sweep.filterUnstable = true;
    request.sweep.cutoff = 0.875;

    Result<service::ServiceRequest> parsed =
        service::parseRequest(service::renderRequest(request));
    ASSERT_TRUE(parsed.ok());
    const service::ServiceRequest &back = parsed.value();
    EXPECT_EQ(back.id, request.id);
    EXPECT_EQ(back.kind, request.kind);
    EXPECT_EQ(back.deadlineMs, request.deadlineMs);
    EXPECT_EQ(back.faultSpec, request.faultSpec);
    EXPECT_EQ(back.sweep.program, request.sweep.program);
    EXPECT_EQ(back.sweep.sizes, request.sweep.sizes);
    EXPECT_EQ(back.sweep.scheme, request.sweep.scheme);
    EXPECT_EQ(back.sweep.profileInput, request.sweep.profileInput);
    EXPECT_EQ(back.sweep.filterUnstable,
              request.sweep.filterUnstable);
    EXPECT_DOUBLE_EQ(back.sweep.cutoff, request.sweep.cutoff);

    // The fingerprint is derived from the parsed spec, so a
    // round-tripped request compiles to the same idempotency key.
    Result<service::CompiledSweep> a =
        service::compileSweep(request.sweep);
    Result<service::CompiledSweep> b =
        service::compileSweep(back.sweep);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().requestFingerprint,
              b.value().requestFingerprint);
}

TEST_F(ServiceTest, MalformedRequestsAreStructuredErrors)
{
    EXPECT_FALSE(service::parseRequest("not json").ok());
    EXPECT_FALSE(service::parseRequest("{}").ok());
    EXPECT_FALSE(
        service::parseRequest(R"({"schema": "wrong", "id": "x"})")
            .ok());
    // Missing id.
    EXPECT_FALSE(service::parseRequest(
                     R"({"schema": "bpsim-request-v1", "op": "status"})")
                     .ok());
    // Cancel without a target.
    EXPECT_FALSE(
        service::parseRequest(
            R"({"schema": "bpsim-request-v1", "id": "c", "op": "cancel"})")
            .ok());
    // Unknown names fail compile, not the daemon.
    service::SweepSpec bad = smallSweep();
    bad.program = "no-such-program";
    Result<service::CompiledSweep> compiled =
        service::compileSweep(bad);
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.error().code(), ErrorCode::ConfigInvalid);
}

TEST_F(ServiceTest, MalformedResponseCellsAreStructuredErrors)
{
    // Response cells go through the checkpoint's record parser: a
    // cell that lacks a field fails the response, never the process.
    service::ServiceResponse response;
    response.id = "r";
    response.fingerprint = "f";
    CheckpointRecord cell;
    cell.fingerprint = "v1|x";
    cell.label = "x";
    response.cells.push_back(cell);
    const std::string line = service::renderResponse(response);
    ASSERT_TRUE(service::parseResponse(line).ok());
    std::string damaged = line;
    const std::string field = "\"mispredictions\": 0, ";
    ASSERT_NE(damaged.find(field), std::string::npos);
    damaged.erase(damaged.find(field), field.size());
    Result<service::ServiceResponse> parsed =
        service::parseResponse(damaged);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code(), ErrorCode::ConfigInvalid);
}

TEST_F(ServiceTest, DaemonResultsMatchBatchModeBitIdentically)
{
    const MatrixResult direct = runDirect(smallSweep());

    service::ServiceOptions options = makeOptions("diff");
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    const service::ServiceResponse response =
        call(options, sweepRequest("diff-1", smallSweep()));
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.executed, 2u);
    EXPECT_EQ(response.restored, 0u);
    ASSERT_EQ(response.cells.size(), direct.cells.size());
    for (std::size_t i = 0; i < direct.cells.size(); ++i) {
        expectSameStats(response.cells[i].result.stats,
                        direct.cells[i].result.stats);
        EXPECT_EQ(response.cells[i].result.hintCount,
                  direct.cells[i].result.hintCount);
        EXPECT_EQ(response.cells[i].result.simulatedBranches,
                  direct.cells[i].result.simulatedBranches);
    }
}

TEST_F(ServiceTest, ResubmitIsServedFromTheResponseCache)
{
    service::ServiceOptions options = makeOptions("cache");
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    const service::ServiceResponse first =
        call(options, sweepRequest("cache-1", smallSweep()));
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(first.executed, 2u);

    const service::ServiceResponse second =
        call(options, sweepRequest("cache-2", smallSweep()));
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.restored, 2u);
    EXPECT_EQ(second.fingerprint, first.fingerprint);
    ASSERT_EQ(second.cells.size(), first.cells.size());
    for (std::size_t i = 0; i < first.cells.size(); ++i) {
        EXPECT_EQ(second.cells[i].fingerprint,
                  first.cells[i].fingerprint);
        expectSameStats(second.cells[i].result.stats,
                        first.cells[i].result.stats);
    }
}

TEST_F(ServiceTest, RestartedDaemonResumesFromItsStateDir)
{
    const MatrixResult direct = runDirect(smallSweep());
    service::ServiceOptions options = makeOptions("restart");

    // Instance 1: a poisoned request fails one cell but checkpoints
    // the other — interrupted progress on disk.
    {
        service::ServiceServer server(options);
        ASSERT_TRUE(server.start().ok());
        service::ServiceRequest poisoned =
            sweepRequest("restart-1", smallSweep());
        poisoned.faultSpec = "cell:1:internal:1";
        const service::ServiceResponse response =
            call(options, poisoned);
        EXPECT_FALSE(response.ok);
        ASSERT_TRUE(response.failure.has_value());
        EXPECT_EQ(response.failure->code(), ErrorCode::CellFailed);
        EXPECT_EQ(response.cells.size(), 1u);
        EXPECT_EQ(response.failed, 1u);
        server.requestDrain();
        server.waitUntilStopped();
    }

    // Instance 2, same state dir: the resubmit restores the finished
    // cell, executes only the failed one, and the merged result is
    // bit-identical to an uninterrupted batch run.
    {
        service::ServiceServer server(options);
        ASSERT_TRUE(server.start().ok());
        const service::ServiceResponse response =
            call(options, sweepRequest("restart-2", smallSweep()));
        ASSERT_TRUE(response.ok);
        EXPECT_EQ(response.restored, 1u);
        EXPECT_EQ(response.executed, 1u);
        ASSERT_EQ(response.cells.size(), direct.cells.size());
        for (std::size_t i = 0; i < direct.cells.size(); ++i) {
            expectSameStats(response.cells[i].result.stats,
                            direct.cells[i].result.stats);
        }
    }
}

TEST_F(ServiceTest, QueuedDeadlineExpiresWithoutTouchingTheCache)
{
    service::ServiceOptions options = makeOptions("deadline");
    ExecutorGate executor_gate;
    options.onExecuteBegin = executor_gate.hook();
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    // Hold the executor on an occupant request (distinct
    // fingerprint) so the deadline request waits in the admission
    // queue past its deadline.
    service::SweepSpec occupant_sweep = smallSweep();
    occupant_sweep.sizes = {4096};
    std::thread occupant([&] {
        call(options, sweepRequest("deadline-long", occupant_sweep));
    });
    awaitStatus(options, [](const service::ServiceResponse &s) {
        return s.active == 1;
    });

    service::ServiceResponse expired;
    std::thread hurried_caller([&] {
        service::ServiceRequest hurried =
            sweepRequest("deadline-1", smallSweep());
        hurried.deadlineMs = 1;
        expired = call(options, hurried);
    });
    awaitStatus(options, [](const service::ServiceResponse &s) {
        return s.queueDepth == 1;
    });
    // The deadline was armed at admission; let it lapse before the
    // executor can reach the request.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    executor_gate.release();
    occupant.join();
    hurried_caller.join();

    EXPECT_FALSE(expired.ok);
    ASSERT_TRUE(expired.failure.has_value());
    EXPECT_EQ(expired.failure->code(), ErrorCode::DeadlineExceeded);
    EXPECT_TRUE(expired.cells.empty());

    // The expiry left no partial state behind for this fingerprint,
    // and a deadline-free resubmit completes from scratch.
    const service::ServiceResponse retried =
        call(options, sweepRequest("deadline-2", smallSweep()));
    ASSERT_TRUE(retried.ok);
    EXPECT_EQ(retried.executed, 2u);
    EXPECT_EQ(retried.fingerprint, expired.fingerprint);
}

TEST_F(ServiceTest, RepeatedCrashesQuarantineTheFingerprint)
{
    service::ServiceOptions options = makeOptions("quarantine");
    options.quarantineThreshold = 2;
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    service::SweepSpec sweep = smallSweep();
    sweep.sizes = {1024};
    for (int attempt = 0; attempt < 2; ++attempt) {
        service::ServiceRequest poisoned = sweepRequest(
            "quarantine-" + std::to_string(attempt), sweep);
        poisoned.faultSpec = "cell:1:internal:9";
        const service::ServiceResponse response =
            call(options, poisoned);
        EXPECT_FALSE(response.ok);
    }

    // Strike threshold reached: even a healthy request for the same
    // fingerprint is rejected at admission with config_invalid.
    const service::ServiceResponse rejected =
        call(options, sweepRequest("quarantine-clean", sweep));
    EXPECT_FALSE(rejected.ok);
    ASSERT_TRUE(rejected.failure.has_value());
    EXPECT_EQ(rejected.failure->code(), ErrorCode::ConfigInvalid);

    // A different fingerprint is unaffected.
    service::SweepSpec other = smallSweep();
    other.sizes = {4096};
    const service::ServiceResponse healthy =
        call(options, sweepRequest("quarantine-other", other));
    EXPECT_TRUE(healthy.ok);
}

TEST_F(ServiceTest, PoisonedRequestDoesNotContaminateAConcurrentOne)
{
    const MatrixResult direct = runDirect(smallSweep());

    service::ServiceOptions options = makeOptions("isolate");
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    service::SweepSpec poisoned_sweep = smallSweep();
    poisoned_sweep.sizes = {4096, 8192};

    service::ServiceResponse good_response;
    service::ServiceResponse bad_response;
    std::thread good([&] {
        good_response =
            call(options, sweepRequest("isolate-good", smallSweep()));
    });
    std::thread bad([&] {
        service::ServiceRequest poisoned =
            sweepRequest("isolate-bad", poisoned_sweep);
        poisoned.faultSpec = "cell:1:internal:9";
        bad_response = call(options, poisoned);
    });
    good.join();
    bad.join();

    EXPECT_FALSE(bad_response.ok);
    ASSERT_TRUE(good_response.ok);
    ASSERT_EQ(good_response.cells.size(), direct.cells.size());
    for (std::size_t i = 0; i < direct.cells.size(); ++i) {
        expectSameStats(good_response.cells[i].result.stats,
                        direct.cells[i].result.stats);
    }
}

TEST_F(ServiceTest, FullAdmissionQueueShedsWithARetryHint)
{
    service::ServiceOptions options = makeOptions("shed");
    options.queueLimit = 1;
    ExecutorGate executor_gate;
    options.onExecuteBegin = executor_gate.hook();
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    service::SweepSpec occupant_sweep = smallSweep();
    occupant_sweep.sizes = {1024};
    std::thread occupant([&] {
        call(options, sweepRequest("shed-long", occupant_sweep));
    });
    awaitStatus(options, [](const service::ServiceResponse &s) {
        return s.active == 1;
    });
    service::SweepSpec waiter_sweep = smallSweep();
    waiter_sweep.sizes = {2048};
    std::thread waiter([&] {
        call(options, sweepRequest("shed-queued", waiter_sweep));
    });
    awaitStatus(options, [](const service::ServiceResponse &s) {
        return s.queueDepth == 1;
    });

    // Executor busy + one request queued = the next is shed.
    service::SweepSpec third = smallSweep();
    third.sizes = {16384};
    const service::ServiceResponse shed =
        call(options, sweepRequest("shed-extra", third));
    EXPECT_FALSE(shed.ok);
    ASSERT_TRUE(shed.failure.has_value());
    EXPECT_EQ(shed.failure->code(), ErrorCode::ResourceExhausted);
    EXPECT_GT(shed.retryAfterMs, 0u);

    executor_gate.release();
    occupant.join();
    waiter.join();
}

TEST_F(ServiceTest, DuplicateRequestIdsAreRejected)
{
    service::ServiceOptions options = makeOptions("dup");
    ExecutorGate executor_gate;
    options.onExecuteBegin = executor_gate.hook();
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    std::thread occupant([&] {
        call(options, sweepRequest("dup-id", smallSweep()));
    });
    awaitStatus(options, [](const service::ServiceResponse &s) {
        return s.active == 1;
    });
    const service::ServiceResponse duplicate =
        call(options, sweepRequest("dup-id", smallSweep()));
    EXPECT_FALSE(duplicate.ok);
    ASSERT_TRUE(duplicate.failure.has_value());
    EXPECT_EQ(duplicate.failure->code(), ErrorCode::ConfigInvalid);
    executor_gate.release();
    occupant.join();
}

TEST_F(ServiceTest, StatusReportsStateAndShutdownDrains)
{
    service::ServiceOptions options = makeOptions("drain");
    service::ServiceServer server(options);
    ASSERT_TRUE(server.start().ok());

    service::ServiceRequest status;
    status.id = "status-1";
    status.kind = service::RequestKind::Status;
    const service::ServiceResponse snapshot = call(options, status);
    ASSERT_TRUE(snapshot.ok);
    EXPECT_EQ(snapshot.state, "listening");
    EXPECT_EQ(snapshot.queueLimit, options.queueLimit);

    service::ServiceRequest shutdown;
    shutdown.id = "shutdown-1";
    shutdown.kind = service::RequestKind::Shutdown;
    const service::ServiceResponse bye = call(options, shutdown);
    EXPECT_TRUE(bye.ok);
    server.waitUntilStopped();

    // The socket is gone: a drained daemon accepts nothing.
    EXPECT_FALSE(
        service::ServiceClient::connect(options.socketPath).ok());
    EXPECT_EQ(server.stats().completed, 0u);
}

} // namespace
} // namespace bpsim
