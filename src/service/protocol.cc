#include "service/protocol.hh"

#include <cstdio>
#include <sstream>

#include "predictor/registry.hh"
#include "support/bits.hh"
#include "support/json.hh"

namespace bpsim::service
{

namespace
{

/** Round-trip-safe double rendering (%.17g). */
std::string
renderDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** 16-hex-digit rendering of an FNV-1a hash. */
std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
appendErrorJson(std::ostringstream &os, const Error &error)
{
    os << "{\"code\": " << jsonQuote(errorCodeName(error.code()))
       << ", \"message\": " << jsonQuote(error.message())
       << ", \"context\": [";
    for (std::size_t i = 0; i < error.context().size(); ++i) {
        os << (i > 0 ? ", " : "") << jsonQuote(error.context()[i]);
    }
    os << "]}";
}

// Name lookups of a SweepSpec's fields (config_invalid on an unknown
// name), for compileSweep().

Result<SpecProgram>
parseProgramName(const std::string &name)
{
    for (const SpecProgram program : allSpecPrograms()) {
        if (name == specProgramName(program))
            return program;
    }
    return Error(ErrorCode::ConfigInvalid,
                 "unknown program '" + name +
                     "' (expected go/gcc/perl/m88ksim/compress/"
                     "ijpeg)");
}

Result<InputSet>
parseInputName(const std::string &name)
{
    for (const InputSet input : {InputSet::Train, InputSet::Ref}) {
        if (name == inputSetName(input))
            return input;
    }
    return Error(ErrorCode::ConfigInvalid,
                 "unknown input set '" + name +
                     "' (expected train or ref)");
}

Result<StaticScheme>
parseSchemeName(const std::string &name)
{
    for (const StaticScheme scheme :
         {StaticScheme::None, StaticScheme::Static95,
          StaticScheme::StaticAcc, StaticScheme::StaticFac,
          StaticScheme::StaticAlias}) {
        if (name == staticSchemeName(scheme))
            return scheme;
    }
    return Error(ErrorCode::ConfigInvalid,
                 "unknown scheme '" + name +
                     "' (expected none/static_95/static_acc/"
                     "static_fac/static_alias)");
}

Result<ShiftPolicy>
parseShiftName(const std::string &name)
{
    for (const ShiftPolicy policy :
         {ShiftPolicy::NoShift, ShiftPolicy::ShiftOutcome,
          ShiftPolicy::ShiftPrediction}) {
        if (name == shiftPolicyName(policy))
            return policy;
    }
    return Error(ErrorCode::ConfigInvalid,
                 "unknown shift policy '" + name +
                     "' (expected noshift/shift/shiftpred)");
}

} // namespace

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Run:
        return "run";
      case RequestKind::Sweep:
        return "sweep";
      case RequestKind::Status:
        return "status";
      case RequestKind::Cancel:
        return "cancel";
      case RequestKind::Shutdown:
        return "shutdown";
      case RequestKind::Subscribe:
        return "subscribe";
    }
    return "?";
}

Result<RequestKind>
requestKindFromName(const std::string &name)
{
    for (const RequestKind kind :
         {RequestKind::Run, RequestKind::Sweep, RequestKind::Status,
          RequestKind::Cancel, RequestKind::Shutdown,
          RequestKind::Subscribe}) {
        if (name == requestKindName(kind))
            return kind;
    }
    return Error(ErrorCode::ConfigInvalid,
                 "unknown op '" + name +
                     "' (expected run/sweep/status/cancel/"
                     "shutdown/subscribe)");
}

std::string
renderRequest(const ServiceRequest &request)
{
    std::ostringstream os;
    os << "{\"schema\": " << jsonQuote(requestSchema)
       << ", \"id\": " << jsonQuote(request.id)
       << ", \"op\": " << jsonQuote(requestKindName(request.kind));
    if (request.deadlineMs > 0)
        os << ", \"deadline_ms\": " << request.deadlineMs;
    if (!request.faultSpec.empty())
        os << ", \"fault\": " << jsonQuote(request.faultSpec);
    if (!request.targetId.empty())
        os << ", \"target\": " << jsonQuote(request.targetId);
    if (request.kind == RequestKind::Run ||
        request.kind == RequestKind::Sweep) {
        const SweepSpec &sweep = request.sweep;
        os << ", \"sweep\": {\"program\": " << jsonQuote(sweep.program)
           << ", \"input\": " << jsonQuote(sweep.input)
           << ", \"seed\": " << sweep.seed
           << ", \"predictor\": " << jsonQuote(sweep.predictor)
           << ", \"sizes\": [";
        for (std::size_t i = 0; i < sweep.sizes.size(); ++i)
            os << (i > 0 ? ", " : "") << sweep.sizes[i];
        os << "], \"scheme\": " << jsonQuote(sweep.scheme)
           << ", \"shift\": " << jsonQuote(sweep.shift)
           << ", \"eval_branches\": " << sweep.evalBranches
           << ", \"warmup_branches\": " << sweep.warmupBranches
           << ", \"profile_branches\": " << sweep.profileBranches
           << ", \"profile_input\": " << jsonQuote(sweep.profileInput)
           << ", \"cutoff\": " << renderDouble(sweep.cutoff)
           << ", \"filter_unstable\": "
           << (sweep.filterUnstable ? "true" : "false");
        if (!sweep.scenario.empty()) {
            os << ", \"scenario\": " << jsonQuote(sweep.scenario)
               << ", \"programs\": [";
            for (std::size_t i = 0; i < sweep.programs.size(); ++i) {
                os << (i > 0 ? ", " : "")
                   << jsonQuote(sweep.programs[i]);
            }
            os << "], \"quantum\": " << sweep.quantum
               << ", \"zipf\": " << renderDouble(sweep.zipf);
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

std::string
renderResponse(const ServiceResponse &response)
{
    std::ostringstream os;
    os << "{\"schema\": " << jsonQuote(responseSchema)
       << ", \"id\": " << jsonQuote(response.id)
       << ", \"ok\": " << (response.ok ? "true" : "false");
    if (response.failure) {
        os << ", \"error\": ";
        appendErrorJson(os, *response.failure);
    }
    if (response.retryAfterMs > 0)
        os << ", \"retry_after_ms\": " << response.retryAfterMs;
    if (!response.fingerprint.empty()) {
        os << ", \"fingerprint\": " << jsonQuote(response.fingerprint)
           << ", \"executed\": " << response.executed
           << ", \"restored\": " << response.restored
           << ", \"failed\": " << response.failed << ", \"cells\": [";
        for (std::size_t i = 0; i < response.cells.size(); ++i) {
            os << (i > 0 ? ", " : "")
               << SweepCheckpoint::renderLine(response.cells[i]);
        }
        os << "], \"cell_errors\": [";
        for (std::size_t i = 0; i < response.cellErrors.size(); ++i) {
            const CellFailure &failure = response.cellErrors[i];
            os << (i > 0 ? ", " : "")
               << "{\"label\": " << jsonQuote(failure.label)
               << ", \"code\": " << jsonQuote(failure.code)
               << ", \"message\": " << jsonQuote(failure.message)
               << "}";
        }
        os << "]";
    }
    if (!response.state.empty()) {
        os << ", \"state\": " << jsonQuote(response.state)
           << ", \"queue_depth\": " << response.queueDepth
           << ", \"queue_limit\": " << response.queueLimit
           << ", \"active\": " << response.active
           << ", \"completed\": " << response.completed
           << ", \"rejected\": " << response.rejected
           << ", \"quarantined\": " << response.quarantined;
    }
    os << "}";
    return os.str();
}

Result<ServiceRequest>
parseRequest(const std::string &line)
{
    Result<JsonValue> parsed = JsonValue::tryParse(line, "request");
    if (!parsed.ok()) {
        return Error(ErrorCode::ConfigInvalid,
                     "request is not valid JSON")
            .withContext(parsed.error().message());
    }
    const JsonValue &object = parsed.value();
    if (!object.isObject()) {
        return Error(ErrorCode::ConfigInvalid,
                     "request must be a JSON object");
    }

    ServiceRequest request;
    std::string schema;
    std::string op;
    ObjectReader reader(object, "request");
    reader.str("schema", schema, true);
    reader.str("id", request.id, true);
    reader.str("op", op, true);
    reader.count("deadline_ms", request.deadlineMs);
    reader.str("fault", request.faultSpec);
    reader.str("target", request.targetId);
    Result<void> fields = reader.done();
    if (!fields.ok())
        return std::move(fields.error());
    if (schema != requestSchema) {
        return Error(ErrorCode::ConfigInvalid,
                     "request schema '" + schema + "' is not '" +
                         requestSchema + "'");
    }
    if (request.id.empty()) {
        return Error(ErrorCode::ConfigInvalid,
                     "request id must be non-empty");
    }

    Result<RequestKind> kind = requestKindFromName(op);
    if (!kind.ok())
        return std::move(kind.error());
    request.kind = kind.value();

    if (request.kind == RequestKind::Cancel &&
        request.targetId.empty()) {
        return Error(ErrorCode::ConfigInvalid,
                     "cancel needs a 'target' request id");
    }

    if (request.kind == RequestKind::Run ||
        request.kind == RequestKind::Sweep) {
        const JsonValue *sweep = object.find("sweep");
        if (sweep == nullptr || !sweep->isObject()) {
            return Error(ErrorCode::ConfigInvalid,
                         "run/sweep needs a 'sweep' object");
        }
        SweepSpec &spec = request.sweep;
        ObjectReader sweep_reader(*sweep, "sweep");
        sweep_reader.str("program", spec.program);
        sweep_reader.str("input", spec.input);
        sweep_reader.count("seed", spec.seed);
        sweep_reader.str("predictor", spec.predictor);
        sweep_reader.str("scheme", spec.scheme);
        sweep_reader.str("shift", spec.shift);
        sweep_reader.count("eval_branches", spec.evalBranches);
        sweep_reader.count("warmup_branches", spec.warmupBranches);
        sweep_reader.count("profile_branches", spec.profileBranches);
        sweep_reader.str("profile_input", spec.profileInput);
        sweep_reader.number("cutoff", spec.cutoff);
        sweep_reader.boolean("filter_unstable", spec.filterUnstable);
        sweep_reader.str("scenario", spec.scenario);
        sweep_reader.count("quantum", spec.quantum);
        sweep_reader.number("zipf", spec.zipf);
        Result<void> sweep_fields = sweep_reader.done();
        if (!sweep_fields.ok())
            return std::move(sweep_fields.error());
        if (const JsonValue *members = sweep->find("programs");
            members != nullptr) {
            if (!members->isArray()) {
                return Error(ErrorCode::ConfigInvalid,
                             "sweep 'programs' must be an array of "
                             "program names");
            }
            for (const JsonValue &member : members->items()) {
                if (!member.isString()) {
                    return Error(ErrorCode::ConfigInvalid,
                                 "sweep 'programs' must be an array "
                                 "of program names");
                }
                spec.programs.push_back(member.asString());
            }
        }

        const JsonValue *sizes = sweep->find("sizes");
        if (sizes == nullptr || !sizes->isArray() ||
            sizes->items().empty()) {
            return Error(ErrorCode::ConfigInvalid,
                         "sweep 'sizes' must be a non-empty array "
                         "of positive byte counts");
        }
        for (const JsonValue &size : sizes->items()) {
            if (!size.isNumber() || size.asNumber() <= 0) {
                return Error(ErrorCode::ConfigInvalid,
                             "sweep 'sizes' must be a non-empty "
                             "array of positive byte counts");
            }
            spec.sizes.push_back(
                static_cast<std::size_t>(size.asNumber()));
        }
        if (request.kind == RequestKind::Run &&
            spec.sizes.size() != 1) {
            return Error(ErrorCode::ConfigInvalid,
                         "run takes exactly one size (use sweep "
                         "for several)");
        }
    }
    return request;
}

Result<ServiceResponse>
parseResponse(const std::string &line)
{
    Result<JsonValue> parsed = JsonValue::tryParse(line, "response");
    if (!parsed.ok()) {
        return Error(ErrorCode::ConfigInvalid,
                     "response is not valid JSON")
            .withContext(parsed.error().message());
    }
    const JsonValue &object = parsed.value();
    if (!object.isObject()) {
        return Error(ErrorCode::ConfigInvalid,
                     "response must be a JSON object");
    }

    ServiceResponse response;
    std::string schema;
    ObjectReader reader(object, "response");
    reader.str("schema", schema, true);
    reader.str("id", response.id, true);
    reader.boolean("ok", response.ok);
    reader.count("retry_after_ms", response.retryAfterMs);
    reader.str("fingerprint", response.fingerprint);
    reader.count("executed", response.executed);
    reader.count("restored", response.restored);
    reader.count("failed", response.failed);
    reader.str("state", response.state);
    reader.count("queue_depth", response.queueDepth);
    reader.count("queue_limit", response.queueLimit);
    reader.count("active", response.active);
    reader.count("completed", response.completed);
    reader.count("rejected", response.rejected);
    reader.count("quarantined", response.quarantined);
    Result<void> fields = reader.done();
    if (!fields.ok())
        return std::move(fields.error());
    if (schema != responseSchema) {
        return Error(ErrorCode::ConfigInvalid,
                     "response schema '" + schema + "' is not '" +
                         responseSchema + "'");
    }

    if (const JsonValue *error = object.find("error");
        error != nullptr) {
        if (!error->isObject()) {
            return Error(ErrorCode::ConfigInvalid,
                         "response 'error' must be an object");
        }
        std::string code_name;
        std::string message;
        ObjectReader error_reader(*error, "response error");
        error_reader.str("code", code_name, true);
        error_reader.str("message", message, true);
        Result<void> error_fields = error_reader.done();
        if (!error_fields.ok())
            return std::move(error_fields.error());
        Result<ErrorCode> code = errorCodeFromName(code_name);
        if (!code.ok())
            return std::move(code.error());
        Error failure(code.value(), message);
        if (const JsonValue *context = error->find("context");
            context != nullptr && context->isArray()) {
            for (const JsonValue &note : context->items()) {
                if (note.isString())
                    failure.withContext(note.asString());
            }
        }
        response.failure = std::move(failure);
    }

    if (const JsonValue *cells = object.find("cells");
        cells != nullptr && cells->isArray()) {
        for (std::size_t i = 0; i < cells->items().size(); ++i) {
            Result<CheckpointRecord> record =
                SweepCheckpoint::parseRecord(cells->items()[i]);
            if (!record.ok()) {
                return std::move(record.error())
                    .withContext("in response cell " +
                                 std::to_string(i));
            }
            response.cells.push_back(std::move(record.value()));
        }
    }
    if (const JsonValue *errors = object.find("cell_errors");
        errors != nullptr && errors->isArray()) {
        for (const JsonValue &entry : errors->items()) {
            if (!entry.isObject()) {
                return Error(ErrorCode::ConfigInvalid,
                             "response cell_errors entries must be "
                             "objects");
            }
            CellFailure failure;
            ObjectReader entry_reader(entry, "response cell_error");
            entry_reader.str("label", failure.label, true);
            entry_reader.str("code", failure.code, true);
            entry_reader.str("message", failure.message, true);
            Result<void> entry_fields = entry_reader.done();
            if (!entry_fields.ok())
                return std::move(entry_fields.error());
            response.cellErrors.push_back(std::move(failure));
        }
    }
    return response;
}

Result<CompiledSweep>
compileSweep(const SweepSpec &spec)
{
    Result<SpecProgram> program = parseProgramName(spec.program);
    if (!program.ok())
        return std::move(program.error());
    Result<InputSet> input = parseInputName(spec.input);
    if (!input.ok())
        return std::move(input.error());
    Result<StaticScheme> scheme = parseSchemeName(spec.scheme);
    if (!scheme.ok())
        return std::move(scheme.error());
    Result<ShiftPolicy> shift = parseShiftName(spec.shift);
    if (!shift.ok())
        return std::move(shift.error());
    Result<ParsedPredictorSpec> predictor =
        parsePredictorSpec(spec.predictor);
    if (!predictor.ok())
        return std::move(predictor.error());
    Result<InputSet> profile_input = parseInputName(
        spec.profileInput.empty() ? spec.input : spec.profileInput);
    if (!profile_input.ok())
        return std::move(profile_input.error());
    if (spec.sizes.empty()) {
        return Error(ErrorCode::ConfigInvalid,
                     "sweep needs at least one size");
    }

    CompiledSweep compiled;
    std::size_t scenario_contexts = 0;
    if (!spec.scenario.empty()) {
        Result<ScenarioKind> kind = parseScenarioKind(spec.scenario);
        if (!kind.ok())
            return std::move(kind.error());
        if (spec.programs.empty()) {
            return Error(ErrorCode::ConfigInvalid,
                         "scenario sweeps need a non-empty "
                         "'programs' member list");
        }
        std::vector<SyntheticProgram> members;
        for (const std::string &name : spec.programs) {
            Result<SpecProgram> member = parseProgramName(name);
            if (!member.ok())
                return std::move(member.error());
            members.push_back(makeSpecProgram(
                member.value(), input.value(), spec.seed));
        }
        ScenarioSpec scenario_spec;
        scenario_spec.kind = kind.value();
        scenario_spec.quantum = spec.quantum;
        scenario_spec.zipfExponent = spec.zipf;
        scenario_contexts = members.size();
        compiled.program = std::make_unique<ScenarioWorkload>(
            scenario_spec, std::move(members));
    } else {
        compiled.program = std::make_unique<SyntheticProgram>(
            makeSpecProgram(program.value(), input.value(),
                            spec.seed));
    }

    std::string joined = "svc1";
    for (const std::size_t bytes : spec.sizes) {
        ExperimentConfig config;
        config.predictor = predictor.value().info->name;
        config.sizeBytes = bytes;
        config.scheme = scheme.value();
        config.shift = shift.value();
        config.evalBranches = spec.evalBranches;
        config.evalWarmupBranches = spec.warmupBranches;
        config.profileBranches = spec.profileBranches;
        config.selection.cutoffBias = spec.cutoff;
        config.evalInput = input.value();
        config.profileInput = profile_input.value();
        config.filterUnstable = spec.filterUnstable;
        config.scenarioContexts = scenario_contexts;

        const std::string label = compiled.program->name() + "/" +
                                  config.predictor + ":" +
                                  std::to_string(bytes) + "/" +
                                  spec.scheme;
        Result<void> valid = config.validate();
        if (!valid.ok()) {
            return std::move(valid.error())
                .withContext("while compiling cell '" + label + "'");
        }
        const std::string fingerprint =
            cellFingerprint(*compiled.program, config);
        joined += "|";
        joined += fingerprint;
        compiled.configs.push_back(std::move(config));
        compiled.labels.push_back(label);
        compiled.fingerprints.push_back(fingerprint);
    }
    compiled.requestFingerprint = hashHex(fnv1a64(joined));
    return compiled;
}

} // namespace bpsim::service
