#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/runner.hh"
#include "support/fault.hh"
#include "support/atomic_file.hh"

namespace bpsim::service
{

namespace
{

/** EINTR-retrying full send of @p text (MSG_NOSIGNAL: a client that
 * hung up must produce EPIPE, not kill the daemon). */
bool
sendAll(int fd, const std::string &text)
{
    std::size_t sent = 0;
    while (sent < text.size()) {
        const ssize_t got = ::send(fd, text.data() + sent,
                                   text.size() - sent, MSG_NOSIGNAL);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(got);
    }
    return true;
}

bool
sendLine(int fd, const std::string &line)
{
    return sendAll(fd, line + "\n");
}

/** Pull one newline-terminated line out of @p buffer, recv()ing more
 * as needed; false on EOF or a socket error. */
bool
readLineFd(int fd, std::string &buffer, std::string &line)
{
    while (true) {
        const std::size_t newline = buffer.find('\n');
        if (newline != std::string::npos) {
            line = buffer.substr(0, newline);
            buffer.erase(0, newline + 1);
            return true;
        }
        char chunk[4096];
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got == 0)
            return false;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
    }
}

ServiceResponse
errorResponse(const std::string &id, Error error)
{
    ServiceResponse response;
    response.id = id;
    response.ok = false;
    response.failure = std::move(error);
    return response;
}

} // namespace

ServiceServer::ServiceServer(ServiceOptions service_options)
    : options(std::move(service_options)),
      serviceJournal("bpsim_serve")
{
}

ServiceServer::~ServiceServer()
{
    if (started.load(std::memory_order_acquire)) {
        requestDrain();
        waitUntilStopped();
    }
    if (drainPipe[0] >= 0)
        ::close(drainPipe[0]);
    if (drainPipe[1] >= 0)
        ::close(drainPipe[1]);
}

std::string
ServiceServer::checkpointPathFor(const std::string &fingerprint) const
{
    return options.stateDir + "/req-" + fingerprint + ".jsonl";
}

void
ServiceServer::loadQuarantine()
{
    std::FILE *file =
        std::fopen((options.stateDir + "/quarantine.txt").c_str(),
                   "rb");
    if (file == nullptr)
        return;
    char line[256];
    while (std::fgets(line, sizeof(line), file) != nullptr) {
        unsigned strikes = 0;
        char fingerprint[128];
        if (std::sscanf(line, "%u %127s", &strikes, fingerprint) == 2)
            quarantineStrikes[fingerprint] = strikes;
    }
    std::fclose(file);
}

void
ServiceServer::persistQuarantine()
{
    std::string content;
    for (const auto &[fingerprint, strikes] : quarantineStrikes) {
        content += std::to_string(strikes) + " " + fingerprint + "\n";
    }
    // Best effort: losing the quarantine list only means relearning
    // it; it must never take a request down.
    (void)writeFileAtomic(options.stateDir + "/quarantine.txt",
                          content);
}

Result<void>
ServiceServer::start()
{
    std::error_code ec;
    std::filesystem::create_directories(options.stateDir, ec);
    if (ec) {
        return Error(ErrorCode::IoFailure,
                     "cannot create state directory '" +
                         options.stateDir + "': " + ec.message());
    }
    loadQuarantine();

    if (::pipe(drainPipe) != 0) {
        return Error(ErrorCode::IoFailure,
                     std::string("cannot create drain pipe: ") +
                         std::strerror(errno));
    }

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        return Error(ErrorCode::IoFailure,
                     std::string("cannot create socket: ") +
                         std::strerror(errno));
    }
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (options.socketPath.size() >= sizeof(address.sun_path)) {
        ::close(listenFd);
        listenFd = -1;
        return Error(ErrorCode::ConfigInvalid,
                     "socket path '" + options.socketPath +
                         "' is too long for a unix socket");
    }
    std::strncpy(address.sun_path, options.socketPath.c_str(),
                 sizeof(address.sun_path) - 1);
    ::unlink(options.socketPath.c_str()); // stale socket from a crash
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&address),
               sizeof(address)) != 0 ||
        ::listen(listenFd, 16) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return Error(ErrorCode::IoFailure,
                     "cannot listen on '" + options.socketPath +
                         "': " + reason);
    }

    started.store(true, std::memory_order_release);
    publish(obs::EventKind::ServiceState, "listening",
            {obs::Field::u64("queue_limit", options.queueLimit),
             obs::Field::u64("quarantine_threshold",
                             options.quarantineThreshold)});
    acceptThread = std::thread([this] { acceptLoop(); });
    executorThread = std::thread([this] { executorLoop(); });
    return okResult();
}

void
ServiceServer::requestDrain()
{
    const char byte = 'd';
    ssize_t rc;
    do {
        rc = ::write(drainPipe[1], &byte, 1);
    } while (rc < 0 && errno == EINTR);
}

void
ServiceServer::closeListenerAndUnlink()
{
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    ::unlink(options.socketPath.c_str());
}

void
ServiceServer::acceptLoop()
{
    while (true) {
        pollfd fds[2];
        fds[0].fd = listenFd;
        fds[0].events = POLLIN;
        fds[1].fd = drainPipe[0];
        fds[1].events = POLLIN;
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0) {
            char sink[16];
            (void)!::read(drainPipe[0], sink, sizeof(sink));
            break;
        }
        if (fds[0].revents == 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> guard(stateLock);
        connectionFds.push_back(fd);
        connectionThreads.emplace_back(
            [this, fd] { handleConnection(fd); });
    }

    // Drain: stop admitting, let the executor finish the in-flight
    // request and answer the queue, then tear the socket down.
    drainRequested.store(true, std::memory_order_release);
    closeListenerAndUnlink();
    publish(obs::EventKind::ServiceState, "draining", {});
    queueCv.notify_all();
}

void
ServiceServer::executorLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> guard(stateLock);
            queueCv.wait(guard, [this] {
                return !queue.empty() ||
                       drainRequested.load(std::memory_order_acquire);
            });
            const bool draining_now =
                drainRequested.load(std::memory_order_acquire);
            if (queue.empty()) {
                if (draining_now)
                    break;
                continue;
            }
            if (draining_now) {
                // The request in flight at drain time (if any) has
                // already been popped; everything still queued is
                // answered without running.
                job = queue.front();
                queue.pop_front();
                ++counters.rejected;
            } else {
                job = queue.front();
                queue.pop_front();
                active = job;
            }
        }

        if (drainRequested.load(std::memory_order_acquire)) {
            publish(obs::EventKind::RequestRejected, job->request.id,
                    {obs::Field::str("reason", "draining")});
            ServiceResponse response = errorResponse(
                job->request.id,
                Error(ErrorCode::ResourceExhausted,
                      "daemon is draining; resubmit to the next "
                      "instance"));
            response.retryAfterMs = options.retryAfterMs;
            std::lock_guard<std::mutex> job_guard(job->lock);
            job->response = std::move(response);
            job->done = true;
            job->cv.notify_all();
            continue;
        }

        executeJob(job);
        {
            std::lock_guard<std::mutex> guard(stateLock);
            active.reset();
        }
    }
    publish(obs::EventKind::ServiceState, "stopped", {});
}

void
ServiceServer::executeJob(const std::shared_ptr<Job> &job)
{
    const std::string &id = job->request.id;
    const std::string &fingerprint =
        job->compiled.requestFingerprint;
    ServiceResponse response;
    response.id = id;
    response.fingerprint = fingerprint;

    if (options.onExecuteBegin)
        options.onExecuteBegin();

    const auto deadline_expired = [&] {
        return job->hasDeadline &&
               std::chrono::steady_clock::now() >= job->deadline;
    };

    publish(obs::EventKind::RequestBegin, id,
            {obs::Field::str("fingerprint", fingerprint),
             obs::Field::str("op",
                             requestKindName(job->request.kind)),
             obs::Field::u64("cells", job->compiled.configs.size()),
             obs::Field::u64("deadline_ms",
                             job->request.deadlineMs)});

    bool armed_fault = false;
    std::string outcome;
    try {
        faultPoint(fault_points::serviceExecute, id);

        if (deadline_expired()) {
            // Expired while queued: answer without running. The
            // request's checkpoint (if any) is untouched, so a
            // resubmission still resumes.
            raise(Error(ErrorCode::DeadlineExceeded,
                        "deadline expired before execution started"));
        }

        if (!job->request.faultSpec.empty()) {
            Result<void> armed =
                FaultInjector::instance().armFromSpec(
                    job->request.faultSpec);
            if (!armed.ok()) {
                raise(std::move(armed.error())
                          .withContext("while arming request fault "
                                       "spec"));
            }
            armed_fault = true;
        }

        RunnerOptions runner_options;
        runner_options.threads = options.threads;
        runner_options.checkpointPath =
            checkpointPathFor(fingerprint);
        runner_options.resume = true;
        runner_options.cancel = [job, this] {
            return job->cancelRequested.load(
                       std::memory_order_acquire) ||
                   (job->hasDeadline &&
                    std::chrono::steady_clock::now() >=
                        job->deadline);
        };
        runner_options.onCellFinished =
            [this, &id](std::size_t index, const CellResult &cell) {
                std::vector<obs::Field> fields{
                    obs::Field::u64("cell", index),
                    obs::Field::boolean("ok", cell.ok()),
                    obs::Field::boolean("restored", cell.restored)};
                if (cell.error) {
                    fields.push_back(obs::Field::str(
                        "code", errorCodeName(cell.error->code())));
                }
                publish(obs::EventKind::RequestCell, id,
                        std::move(fields));
            };

        ExperimentRunner runner(runner_options);
        const std::size_t program_index =
            runner.addWorkload(std::move(job->compiled.program));
        for (std::size_t i = 0; i < job->compiled.configs.size();
             ++i) {
            runner.addCell(program_index, job->compiled.configs[i],
                           job->compiled.labels[i]);
        }
        const MatrixResult matrix = runner.run();
        if (armed_fault) {
            FaultInjector::instance().disarm();
            armed_fault = false;
        }

        Count cancelled_skips = 0;
        for (std::size_t i = 0; i < matrix.cells.size(); ++i) {
            const CellResult &cell = matrix.cells[i];
            if (cell.restored) {
                ++response.restored;
            } else if (cell.ok()) {
                ++response.executed;
            } else {
                ++response.failed;
                if (cell.error->code() == ErrorCode::Cancelled ||
                    cell.error->code() ==
                        ErrorCode::DeadlineExceeded) {
                    ++cancelled_skips;
                } else {
                    response.cellErrors.push_back(
                        {job->compiled.labels[i],
                         errorCodeName(cell.error->code()),
                         cell.error->describe()});
                }
            }
        }

        // The response's cells are read back from the request's
        // checkpoint, so what the client gets is exactly what a
        // resumed or merged run would restore — including the
        // partial set a deadline or cancel left behind.
        SweepCheckpoint checkpoint(checkpointPathFor(fingerprint));
        (void)checkpoint.load();
        for (const std::string &cell_fp :
             job->compiled.fingerprints) {
            if (const CheckpointRecord *record =
                    checkpoint.find(cell_fp)) {
                response.cells.push_back(*record);
            }
        }

        if (!response.cellErrors.empty()) {
            response.ok = false;
            response.failure =
                Error(ErrorCode::CellFailed,
                      std::to_string(response.cellErrors.size()) +
                          " of " +
                          std::to_string(matrix.cells.size()) +
                          " cells failed");
            outcome = "cell_failed";
        } else if (cancelled_skips > 0) {
            response.ok = false;
            const bool was_cancel = job->cancelRequested.load(
                std::memory_order_acquire);
            response.failure = Error(
                was_cancel ? ErrorCode::Cancelled
                           : ErrorCode::DeadlineExceeded,
                (was_cancel ? std::string("request cancelled: ")
                            : std::string("deadline expired: ")) +
                    std::to_string(cancelled_skips) +
                    " cells skipped; finished cells are "
                    "checkpointed and a resubmission resumes from "
                    "them");
            outcome = errorCodeName(response.failure->code());
        } else {
            outcome = "ok";
        }
    } catch (const ErrorException &failure) {
        response = errorResponse(id, failure.error());
        response.fingerprint = fingerprint;
        outcome = errorCodeName(failure.error().code());
    } catch (const std::exception &failure) {
        response = errorResponse(
            id, Error(ErrorCode::Internal,
                      std::string("unexpected exception: ") +
                          failure.what()));
        response.fingerprint = fingerprint;
        outcome = "internal";
    }
    if (armed_fault)
        FaultInjector::instance().disarm();

    // Quarantine bookkeeping: hard failures (cell_failed/internal)
    // strike the fingerprint; a clean success clears it.
    bool quarantined_now = false;
    {
        std::lock_guard<std::mutex> guard(stateLock);
        if (outcome == "ok") {
            ++counters.completed;
            if (quarantineStrikes.erase(fingerprint) > 0)
                persistQuarantine();
        } else {
            ++counters.failed;
            if (outcome == "cancelled")
                ++counters.cancelled;
            else if (outcome == "deadline_exceeded")
                ++counters.expired;
            if (outcome == "cell_failed" || outcome == "internal") {
                const unsigned strikes =
                    ++quarantineStrikes[fingerprint];
                quarantined_now =
                    strikes >= options.quarantineThreshold;
                persistQuarantine();
            }
        }
    }

    std::vector<obs::Field> end_fields{
        obs::Field::str("outcome", outcome),
        obs::Field::str("fingerprint", fingerprint),
        obs::Field::u64("executed", response.executed),
        obs::Field::u64("restored", response.restored),
        obs::Field::u64("failed", response.failed)};
    if (quarantined_now)
        end_fields.push_back(obs::Field::boolean("quarantined", true));
    publish(obs::EventKind::RequestEnd, id, std::move(end_fields));

    std::lock_guard<std::mutex> job_guard(job->lock);
    job->response = std::move(response);
    job->done = true;
    job->cv.notify_all();
}

ServiceResponse
ServiceServer::admitAndWait(ServiceRequest request)
{
    const std::string id = request.id;
    try {
        faultPoint(fault_points::serviceAdmit, id);
    } catch (const ErrorException &failure) {
        return errorResponse(id, failure.error());
    }

    if (!request.faultSpec.empty() &&
        !options.allowFaultInjection) {
        return errorResponse(
            id, Error(ErrorCode::ConfigInvalid,
                      "this daemon does not accept per-request "
                      "fault specs (start it with "
                      "--allow-fault-inject)"));
    }

    Result<CompiledSweep> compiled = compileSweep(request.sweep);
    if (!compiled.ok()) {
        return errorResponse(id, std::move(compiled.error()));
    }
    const std::string fingerprint =
        compiled.value().requestFingerprint;

    auto job = std::make_shared<Job>();
    job->request = std::move(request);
    job->compiled = std::move(compiled.value());
    if (job->request.deadlineMs > 0) {
        job->hasDeadline = true;
        job->deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(job->request.deadlineMs);
    }

    std::string reject_reason;
    std::optional<ServiceResponse> rejected;
    {
        std::lock_guard<std::mutex> guard(stateLock);
        if (drainRequested.load(std::memory_order_acquire)) {
            reject_reason = "draining";
            ServiceResponse response = errorResponse(
                id, Error(ErrorCode::ResourceExhausted,
                          "daemon is draining; resubmit to the "
                          "next instance"));
            response.retryAfterMs = options.retryAfterMs;
            ++counters.rejected;
            rejected = std::move(response);
        } else if (const auto strikes =
                       quarantineStrikes.find(fingerprint);
                   strikes != quarantineStrikes.end() &&
                   strikes->second >= options.quarantineThreshold) {
            reject_reason = "quarantined";
            ++counters.rejected;
            rejected = errorResponse(
                id,
                Error(ErrorCode::ConfigInvalid,
                      "fingerprint " + fingerprint +
                          " is quarantined after " +
                          std::to_string(strikes->second) +
                          " failing requests")
                    .withContext("a successful request clears the "
                                 "quarantine"));
        } else if (jobsById.count(id) != 0) {
            reject_reason = "duplicate_id";
            ++counters.rejected;
            rejected = errorResponse(
                id, Error(ErrorCode::ConfigInvalid,
                          "request id '" + id +
                              "' is already queued or running"));
        } else if (queue.size() >= options.queueLimit) {
            reject_reason = "queue_full";
            ServiceResponse response = errorResponse(
                id,
                Error(ErrorCode::ResourceExhausted,
                      "admission queue is full (" +
                          std::to_string(options.queueLimit) +
                          " requests waiting)")
                    .withContext("retry after the hinted backoff"));
            response.retryAfterMs = options.retryAfterMs;
            ++counters.rejected;
            rejected = std::move(response);
        } else {
            queue.push_back(job);
            jobsById[id] = job;
        }
    }
    if (rejected) {
        publish(obs::EventKind::RequestRejected, id,
                {obs::Field::str("reason", reject_reason),
                 obs::Field::str("fingerprint", fingerprint)});
        return std::move(*rejected);
    }
    queueCv.notify_all();

    ServiceResponse response;
    {
        std::unique_lock<std::mutex> job_guard(job->lock);
        job->cv.wait(job_guard, [&job] { return job->done; });
        response = std::move(job->response);
    }
    {
        std::lock_guard<std::mutex> guard(stateLock);
        jobsById.erase(id);
    }
    return response;
}

ServiceResponse
ServiceServer::statusResponse(const std::string &id)
{
    ServiceResponse response;
    response.id = id;
    std::lock_guard<std::mutex> guard(stateLock);
    response.state =
        drainRequested.load(std::memory_order_acquire) ? "draining"
                                                       : "listening";
    response.queueDepth = queue.size();
    response.queueLimit = options.queueLimit;
    response.active = active != nullptr ? 1 : 0;
    response.completed = counters.completed;
    response.rejected = counters.rejected;
    for (const auto &[fingerprint, strikes] : quarantineStrikes) {
        if (strikes >= options.quarantineThreshold)
            ++response.quarantined;
    }
    return response;
}

ServiceResponse
ServiceServer::cancelResponse(const ServiceRequest &request)
{
    std::shared_ptr<Job> target;
    {
        std::lock_guard<std::mutex> guard(stateLock);
        const auto it = jobsById.find(request.targetId);
        if (it != jobsById.end())
            target = it->second;
    }
    if (target == nullptr) {
        return errorResponse(
            request.id,
            Error(ErrorCode::ConfigInvalid,
                  "no queued or running request has id '" +
                      request.targetId + "'"));
    }
    target->cancelRequested.store(true, std::memory_order_release);
    queueCv.notify_all();
    ServiceResponse response;
    response.id = request.id;
    return response;
}

bool
ServiceServer::handleLine(int fd, const std::string &line,
                          bool &fd_handed_off)
{
    Result<ServiceRequest> parsed = parseRequest(line);
    if (!parsed.ok()) {
        {
            std::lock_guard<std::mutex> guard(stateLock);
            ++counters.rejected;
        }
        publish(obs::EventKind::RequestRejected, "",
                {obs::Field::str("reason", "malformed")});
        sendLine(fd,
                 renderResponse(errorResponse(
                     "", std::move(parsed.error())
                             .withContext("while parsing request"))));
        return true;
    }
    ServiceRequest request = std::move(parsed.value());

    switch (request.kind) {
      case RequestKind::Status:
        return sendLine(fd,
                        renderResponse(statusResponse(request.id)));
      case RequestKind::Cancel:
        return sendLine(fd,
                        renderResponse(cancelResponse(request)));
      case RequestKind::Shutdown: {
        ServiceResponse response;
        response.id = request.id;
        sendLine(fd, renderResponse(response));
        requestDrain();
        return false;
      }
      case RequestKind::Subscribe: {
        ServiceResponse response;
        response.id = request.id;
        if (!sendLine(fd, renderResponse(response)))
            return false;
        std::lock_guard<std::mutex> guard(stateLock);
        subscriberFds.push_back(fd);
        fd_handed_off = true; // broadcast list owns it now
        return false;
      }
      case RequestKind::Run:
      case RequestKind::Sweep:
        return sendLine(
            fd, renderResponse(admitAndWait(std::move(request))));
    }
    return true;
}

void
ServiceServer::handleConnection(int fd)
{
    std::string buffer;
    std::string line;
    bool fd_handed_off = false;
    while (readLineFd(fd, buffer, line)) {
        if (line.empty())
            continue;
        if (!handleLine(fd, line, fd_handed_off))
            break;
    }
    std::lock_guard<std::mutex> guard(stateLock);
    connectionFds.erase(std::remove(connectionFds.begin(),
                                    connectionFds.end(), fd),
                        connectionFds.end());
    if (!fd_handed_off)
        ::close(fd);
}

void
ServiceServer::publish(obs::EventKind kind, const std::string &label,
                       std::vector<obs::Field> fields)
{
    const std::string line = serviceJournal.recordAndRender(
        kind, 0, label, std::move(fields));
    std::lock_guard<std::mutex> guard(stateLock);
    for (auto it = subscriberFds.begin();
         it != subscriberFds.end();) {
        if (sendLine(*it, line)) {
            ++it;
        } else {
            ::close(*it);
            it = subscriberFds.erase(it);
        }
    }
}

ServiceStats
ServiceServer::stats() const
{
    std::lock_guard<std::mutex> guard(stateLock);
    ServiceStats snapshot = counters;
    for (const auto &[fingerprint, strikes] : quarantineStrikes) {
        if (strikes >= options.quarantineThreshold)
            ++snapshot.quarantinedNow;
    }
    return snapshot;
}

void
ServiceServer::waitUntilStopped()
{
    if (!started.load(std::memory_order_acquire))
        return;
    if (acceptThread.joinable())
        acceptThread.join();
    if (executorThread.joinable())
        executorThread.join();

    // Unblock connection threads still parked in recv() and close
    // the subscriber streams; then collect every handler.
    std::vector<std::thread> handlers;
    {
        std::lock_guard<std::mutex> guard(stateLock);
        for (const int fd : connectionFds)
            ::shutdown(fd, SHUT_RDWR);
        for (const int fd : subscriberFds)
            ::close(fd);
        subscriberFds.clear();
        handlers.swap(connectionThreads);
    }
    for (std::thread &handler : handlers) {
        if (handler.joinable())
            handler.join();
    }

    if (!options.journalPath.empty())
        serviceJournal.writeFiles(options.journalPath);
    started.store(false, std::memory_order_release);
}

} // namespace bpsim::service
