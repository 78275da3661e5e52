/**
 * @file
 * Wire protocol of the bpsim service: newline-delimited JSON over a
 * Unix domain socket.
 *
 * Every request is one "bpsim-request-v1" line and every reply one
 * "bpsim-response-v1" line, so any client that can speak JSONL can
 * drive the daemon (the repo ships ServiceClient and the `bpsim_cli
 * client` subcommand; CI drives it from python).
 *
 * The parser is the daemon's trust boundary: everything arriving on
 * the socket is untrusted, so every name lookup (program, input,
 * scheme, shift) returns a Result and malformed input becomes a
 * structured config_invalid response, never a daemon crash.
 *
 * compileSweep() is the one compiler from sweep parameters to cells.
 * The daemon, `bpsim_cli run`/`sweep`/`client` and the benchmark's
 * batch reference all build a SweepSpec and call it, so the same
 * parameters give the same ExperimentConfig, canonical label and
 * cellFingerprint() everywhere. A sweep request's cells reuse the
 * checkpoint machinery verbatim: the response's cells are
 * CheckpointRecord lines, read back by SweepCheckpoint::parseRecord(),
 * and the request fingerprint (FNV-1a over the ordered cell
 * fingerprints) is the idempotency key the daemon caches responses
 * under.
 */

#ifndef BPSIM_SERVICE_PROTOCOL_HH
#define BPSIM_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "scenario/scenario.hh"
#include "support/error.hh"
#include "workload/specint.hh"
#include "workload/synthetic_program.hh"

namespace bpsim::service
{

/** Schema tags stamped on every protocol line. */
inline constexpr const char *requestSchema = "bpsim-request-v1";
inline constexpr const char *responseSchema = "bpsim-response-v1";

/** Operations a request can name. */
enum class RequestKind
{
    Run,       ///< one simulation (a single-size sweep)
    Sweep,     ///< a size sweep over one predictor/scheme
    Status,    ///< daemon state snapshot (never queued)
    Cancel,    ///< cancel a queued or in-flight request by id
    Shutdown,  ///< begin a graceful drain, then exit
    Subscribe, ///< stream journal events until the daemon drains
};

/** Wire name of @p kind ("run", "sweep", ...). */
const char *requestKindName(RequestKind kind);

/** Parse a wire op name; config_invalid on an unknown one. */
Result<RequestKind> requestKindFromName(const std::string &name);

/**
 * Sweep parameters: a request's `sweep` object, and what `bpsim_cli
 * run`, `sweep` and `client` build from their options. Names are
 * checked by compileSweep(), not here.
 */
struct SweepSpec
{
    std::string program = "gcc";
    std::string input = "ref";
    Count seed = 2000;
    std::string predictor = "gshare";
    std::vector<std::size_t> sizes;
    std::string scheme = "none";
    std::string shift = "noshift";
    Count evalBranches = 2'000'000;
    Count warmupBranches = 0;
    Count profileBranches = 1'000'000;
    /** Empty = self-trained (profile the eval input). */
    std::string profileInput;
    double cutoff = 0.95;
    bool filterUnstable = false;

    /** Multi-context scenario kind ("smt"/"ctxsw"/"server"); empty =
     * plain single-program cell. */
    std::string scenario;

    /** Member program names when scenario is set (context id =
     * position; each member is built with this spec's input and
     * seed, like `program` is for a plain cell). */
    std::vector<std::string> programs;

    /** Context-switch quantum in branches (scenario "ctxsw"). */
    Count quantum = 20'000;

    /** Zipf exponent of the tenant skew (scenario "server"). */
    double zipf = 1.2;
};

/** One parsed request line. */
struct ServiceRequest
{
    /** Client-chosen correlation id, echoed in the response. */
    std::string id;

    RequestKind kind = RequestKind::Status;

    /** Soft deadline in milliseconds (0 = none). Counted from
     * admission; an expired request is cancelled cooperatively and
     * answered with deadline_exceeded, its finished cells already
     * checkpointed. */
    Count deadlineMs = 0;

    /** Fault-injection spec ("point:nth[:code[:times]]") armed for
     * this request only. Rejected unless the daemon was started with
     * fault injection allowed (test/CI servers only). */
    std::string faultSpec;

    /** Cancel: the id of the request to cancel. */
    std::string targetId;

    /** Run/Sweep payload. */
    SweepSpec sweep;
};

/** One failed cell in a response. */
struct CellFailure
{
    std::string label;
    std::string code;
    std::string message;
};

/** One parsed response line. */
struct ServiceResponse
{
    std::string id;

    bool ok = true;

    /** The failure that ended the request (when !ok). */
    std::optional<Error> failure;

    /** Load-shed hint: retry no sooner than this (0 = no hint). */
    Count retryAfterMs = 0;

    /** The request's idempotency fingerprint (run/sweep only). */
    std::string fingerprint;

    /** Finished cells as checkpoint records, in matrix order. A
     * deadline-cancelled request reports the cells it completed. */
    std::vector<CheckpointRecord> cells;

    /** Cells that failed (excluding cancellation skips). */
    std::vector<CellFailure> cellErrors;

    /** Cells executed fresh this request. */
    Count executed = 0;

    /** Cells restored from the request's checkpoint (cache hits). */
    Count restored = 0;

    /** Cells that failed or were skipped by cancellation. */
    Count failed = 0;

    /** Status payload. */
    std::string state;
    Count queueDepth = 0;
    Count queueLimit = 0;
    Count active = 0;
    Count completed = 0;
    Count rejected = 0;
    Count quarantined = 0;
};

/** Render @p request as its JSONL line (no trailing newline). */
std::string renderRequest(const ServiceRequest &request);

/** Render @p response as its JSONL line (no trailing newline). */
std::string renderResponse(const ServiceResponse &response);

/** Parse one request line; config_invalid on anything malformed. */
Result<ServiceRequest> parseRequest(const std::string &line);

/** Parse one response line; config_invalid on anything malformed. */
Result<ServiceResponse> parseResponse(const std::string &line);

/** A validated sweep, ready to hand to the matrix runner. */
struct CompiledSweep
{
    /** The workload the cells run on: a SyntheticProgram for plain
     * sweeps, a ScenarioWorkload when the spec names a scenario.
     * Always non-null after a successful compileSweep(). */
    std::unique_ptr<WorkloadSource> program;

    /** One config per requested size, in request order. */
    std::vector<ExperimentConfig> configs;

    /** Canonical "program/predictor:bytes/scheme" labels. */
    std::vector<std::string> labels;

    /** cellFingerprint() of each cell, in the same order. */
    std::vector<std::string> fingerprints;

    /** Idempotency key: FNV-1a over the ordered cell fingerprints. */
    std::string requestFingerprint;
};

/**
 * Validate @p spec and compile it into runnable cells. The only
 * compiler of sweep parameters, shared by the daemon and `bpsim_cli`,
 * so daemon results are bit-identical to batch results.
 * config_invalid on unknown names, empty sizes, or a config that
 * fails ExperimentConfig::validate(); nothing runs before then.
 */
Result<CompiledSweep> compileSweep(const SweepSpec &spec);

} // namespace bpsim::service

#endif // BPSIM_SERVICE_PROTOCOL_HH
