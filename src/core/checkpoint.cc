#include "core/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/combined_predictor.hh"
#include "predictor/factory.hh"
#include "support/atomic_file.hh"
#include "support/bits.hh"
#include "support/json.hh"

namespace bpsim
{

namespace
{

/** Deterministic double rendering for fingerprints (%.17g survives a
 * round trip; to_string's fixed six digits would collide tunables). */
std::string
fingerprintDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Render the shard header line (no trailing newline). */
std::string
renderHeaderLine(const ShardStamp &stamp)
{
    std::ostringstream os;
    os << "{\"schema\": " << jsonQuote(checkpointHeaderSchema)
       << ", \"shard_index\": " << stamp.shardIndex
       << ", \"shard_count\": " << stamp.shardCount
       << ", \"matrix_cells\": " << stamp.matrixCells
       << ", \"shard_cells\": " << stamp.shardCells << "}";
    return os.str();
}

} // namespace

unsigned
shardOfFingerprint(const std::string &fingerprint,
                   unsigned shard_count)
{
    if (shard_count <= 1)
        return 0;
    return static_cast<unsigned>(fnv1a64(fingerprint) % shard_count);
}

std::string
cellFingerprint(const WorkloadSource &program,
                const ExperimentConfig &config)
{
    std::ostringstream os;
    os << "v1|" << program.name() << "|" << program.seedValue() << "|"
       << predictorIdentityOf(config) << "|"
       << staticSchemeName(config.scheme) << "|"
       << shiftPolicyName(config.shift) << "|"
       << config.profileBranches << "|" << config.evalBranches << "|"
       << config.evalWarmupBranches << "|"
       << static_cast<unsigned>(config.profileInput) << "|"
       << static_cast<unsigned>(config.evalInput) << "|"
       << (config.filterUnstable ? 1 : 0) << ":"
       << fingerprintDouble(config.stabilityThreshold) << "|"
       << fingerprintDouble(config.selection.cutoffBias) << ","
       << fingerprintDouble(config.selection.factor) << ","
       << config.selection.minExecutions << ","
       << fingerprintDouble(config.selection.aliasCutoffBias) << ","
       << fingerprintDouble(config.selection.aliasMinCollisionRate);
    // Scenario cells carry per-context bookkeeping a plain cell
    // lacks, so they never resume from (or shadow) a non-scenario
    // record of the same sweep axes. Plain cells keep the historical
    // suffix-free form: old checkpoints stay resumable.
    if (config.scenarioContexts > 0)
        os << "|ctx" << config.scenarioContexts;
    return os.str();
}

SweepCheckpoint::SweepCheckpoint(std::string path)
    : filePath(std::move(path))
{
}

Result<void>
SweepCheckpoint::load()
{
    std::lock_guard<std::mutex> guard(lock);
    records.clear();
    index.clear();
    stamp.reset();

    std::FILE *file = std::fopen(filePath.c_str(), "rb");
    if (file == nullptr) {
        if (errno == ENOENT)
            return okResult(); // fresh run
        return Error(ErrorCode::IoFailure,
                     "cannot read checkpoint '" + filePath +
                         "': " + std::strerror(errno));
    }
    std::string text;
    char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        text.append(chunk, got);
    const bool read_failed = std::ferror(file) != 0;
    std::fclose(file);
    if (read_failed) {
        return Error(ErrorCode::IoFailure,
                     "error reading checkpoint '" + filePath + "'");
    }

    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        if (line.empty())
            continue;
        // A line that does not parse, carries another schema or lacks
        // a field is skipped: the cell it would have restored simply
        // re-runs.
        const Result<JsonValue> parsed =
            JsonValue::tryParse(line, filePath);
        if (!parsed.ok() || !parsed.value().isObject())
            continue;
        const JsonValue &object = parsed.value();
        const JsonValue *schema = object.find("schema");
        if (schema != nullptr && schema->isString() &&
            schema->asString() == checkpointHeaderSchema) {
            // A malformed header is skipped like any bad line; the
            // file then reads as a plain (stamp-less) checkpoint.
            Count shard_index = 0;
            Count shard_count = 0;
            ShardStamp loaded;
            ObjectReader header(object, filePath);
            header.count("shard_index", shard_index, true);
            header.count("shard_count", shard_count, true);
            header.count("matrix_cells", loaded.matrixCells, true);
            header.count("shard_cells", loaded.shardCells, true);
            if (header.done().ok()) {
                loaded.shardIndex = static_cast<unsigned>(shard_index);
                loaded.shardCount = static_cast<unsigned>(shard_count);
                stamp = loaded;
            }
            continue;
        }
        Result<CheckpointRecord> parsed_record = parseRecord(object);
        if (!parsed_record.ok())
            continue;
        CheckpointRecord &record = parsed_record.value();
        const auto [it, inserted] =
            index.try_emplace(record.fingerprint, records.size());
        if (inserted)
            records.push_back(std::move(record));
        else
            records[it->second] = std::move(record);
    }
    return okResult();
}

std::string
SweepCheckpoint::renderLine(const CheckpointRecord &record)
{
    const SimStats &stats = record.result.stats;
    std::ostringstream os;
    os << "{\"schema\": " << jsonQuote(checkpointSchema)
       << ", \"fingerprint\": " << jsonQuote(record.fingerprint)
       << ", \"label\": " << jsonQuote(record.label)
       << ", \"branches\": " << stats.branches
       << ", \"instructions\": " << stats.instructions
       << ", \"mispredictions\": " << stats.mispredictions
       << ", \"static_predicted\": " << stats.staticPredicted
       << ", \"static_mispredictions\": "
       << stats.staticMispredictions
       << ", \"lookups\": " << stats.collisions.lookups
       << ", \"collisions\": " << stats.collisions.collisions
       << ", \"constructive\": " << stats.collisions.constructive
       << ", \"destructive\": " << stats.collisions.destructive
       << ", \"hints\": " << record.result.hintCount
       << ", \"simulated_branches\": "
       << record.result.simulatedBranches
       << ", \"kernel\": " << (record.usedKernel ? "true" : "false")
       << ", \"simd\": " << (record.usedSimd ? "true" : "false")
       << ", \"phase_branches\": " << record.phaseBranches;
    // Scenario cells append their per-context stats and interference
    // matrix so a restored cell is bit-identical to an executed one.
    // Plain cells keep the historical line format byte-for-byte.
    if (!record.result.contextStats.empty()) {
        os << ", \"contexts\": [";
        for (std::size_t i = 0;
             i < record.result.contextStats.size(); ++i) {
            const ContextStats &ctx = record.result.contextStats[i];
            os << (i == 0 ? "" : ", ") << "[" << ctx.branches << ", "
               << ctx.instructions << ", " << ctx.mispredictions
               << ", " << ctx.staticPredicted << ", "
               << ctx.collisions << "]";
        }
        os << "]";
    }
    if (!record.result.aliasMatrix.empty()) {
        os << ", \"alias_matrix\": [";
        for (std::size_t i = 0; i < record.result.aliasMatrix.size();
             ++i) {
            const ContextAliasCell &cell =
                record.result.aliasMatrix[i];
            os << (i == 0 ? "" : ", ") << "[" << cell.collisions
               << ", " << cell.constructive << ", "
               << cell.destructive << "]";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

Result<CheckpointRecord>
SweepCheckpoint::parseRecord(const JsonValue &object)
{
    if (!object.isObject()) {
        return Error(ErrorCode::ConfigInvalid,
                     "checkpoint record is not an object");
    }
    CheckpointRecord record;
    std::string schema;
    SimStats &stats = record.result.stats;
    std::vector<std::vector<Count>> contexts;
    std::vector<std::vector<Count>> matrix;
    ObjectReader reader(object, "checkpoint record");
    reader.str("schema", schema, true);
    reader.str("fingerprint", record.fingerprint, true);
    reader.str("label", record.label, true);
    reader.count("branches", stats.branches, true);
    reader.count("instructions", stats.instructions, true);
    reader.count("mispredictions", stats.mispredictions, true);
    reader.count("static_predicted", stats.staticPredicted, true);
    reader.count("static_mispredictions", stats.staticMispredictions,
                 true);
    reader.count("lookups", stats.collisions.lookups, true);
    reader.count("collisions", stats.collisions.collisions, true);
    reader.count("constructive", stats.collisions.constructive, true);
    reader.count("destructive", stats.collisions.destructive, true);
    reader.size("hints", record.result.hintCount, true);
    reader.count("simulated_branches", record.result.simulatedBranches,
                 true);
    reader.boolean("kernel", record.usedKernel, true);
    // Absent in checkpoints written before the batch kernels existed;
    // those read as "did not run them".
    reader.boolean("simd", record.usedSimd);
    reader.count("phase_branches", record.phaseBranches, true);
    // The scenario payload, absent on plain cells and on checkpoints
    // that predate scenarios.
    reader.rows("contexts", 5, contexts);
    reader.rows("alias_matrix", 3, matrix);
    Result<void> read = reader.done();
    if (!read.ok())
        return std::move(read.error());
    if (schema != checkpointSchema) {
        return Error(ErrorCode::ConfigInvalid,
                     "checkpoint record schema '" + schema +
                         "' is not '" + checkpointSchema + "'");
    }
    for (const std::vector<Count> &v : contexts)
        record.result.contextStats.push_back({v[0], v[1], v[2], v[3], v[4]});
    for (const std::vector<Count> &v : matrix)
        record.result.aliasMatrix.push_back({v[0], v[1], v[2]});
    return record;
}

void
SweepCheckpoint::setShard(const ShardStamp &new_stamp)
{
    std::lock_guard<std::mutex> guard(lock);
    stamp = new_stamp;
}

Result<void>
SweepCheckpoint::flush()
{
    std::lock_guard<std::mutex> guard(lock);
    return rewriteLocked();
}

std::optional<ShardStamp>
SweepCheckpoint::shard() const
{
    std::lock_guard<std::mutex> guard(lock);
    return stamp;
}

std::vector<CheckpointRecord>
SweepCheckpoint::snapshot() const
{
    std::lock_guard<std::mutex> guard(lock);
    return records;
}

Result<void>
SweepCheckpoint::rewriteLocked()
{
    std::string content;
    if (stamp) {
        content += renderHeaderLine(*stamp);
        content += '\n';
    }
    for (const CheckpointRecord &record : records) {
        content += renderLine(record);
        content += '\n';
    }
    Result<void> written = writeFileAtomic(filePath, content);
    if (!written.ok()) {
        return std::move(written.error())
            .withContext("while writing checkpoint");
    }
    return okResult();
}

Result<void>
SweepCheckpoint::record(CheckpointRecord record)
{
    if (record.fingerprint.empty()) {
        return Error(ErrorCode::Internal,
                     "cannot checkpoint a record without a fingerprint "
                     "('" + record.label + "')");
    }
    std::lock_guard<std::mutex> guard(lock);
    const auto [it, inserted] =
        index.try_emplace(record.fingerprint, records.size());
    if (inserted)
        records.push_back(std::move(record));
    else
        records[it->second] = std::move(record);
    return rewriteLocked();
}

const CheckpointRecord *
SweepCheckpoint::find(const std::string &fingerprint) const
{
    std::lock_guard<std::mutex> guard(lock);
    const auto it = index.find(fingerprint);
    return it != index.end() ? &records[it->second] : nullptr;
}

std::size_t
SweepCheckpoint::size() const
{
    std::lock_guard<std::mutex> guard(lock);
    return records.size();
}

Result<MergeSummary>
mergeShardCheckpoints(const std::vector<std::string> &shard_paths,
                      const std::string &output_path)
{
    if (shard_paths.empty()) {
        return Error(ErrorCode::ConfigInvalid,
                     "merge needs at least one shard checkpoint");
    }

    MergeSummary summary;
    std::map<std::string, CheckpointRecord> merged;
    std::map<std::string, std::string> owner; // fingerprint -> path
    std::vector<bool> covered;

    for (const std::string &path : shard_paths) {
        SweepCheckpoint shard(path);
        Result<void> loaded = shard.load();
        if (!loaded.ok()) {
            return std::move(loaded.error())
                .withContext("while merging shard '" + path + "'");
        }
        const std::optional<ShardStamp> stamp = shard.shard();
        if (!stamp) {
            return Error(ErrorCode::ConfigInvalid,
                         "'" + path +
                             "' is not a shard checkpoint (no "
                             "shard header line)");
        }
        if (stamp->shardCount == 0 || stamp->shardIndex == 0 ||
            stamp->shardIndex > stamp->shardCount) {
            return Error(ErrorCode::ConfigInvalid,
                         "'" + path + "' declares invalid shard " +
                             std::to_string(stamp->shardIndex) + "/" +
                             std::to_string(stamp->shardCount));
        }
        if (summary.shards.empty()) {
            summary.shardCount = stamp->shardCount;
            summary.matrixCells = stamp->matrixCells;
            covered.assign(stamp->shardCount, false);
        } else if (stamp->shardCount != summary.shardCount) {
            return Error(ErrorCode::ConfigInvalid,
                         "'" + path + "' was sharded " +
                             std::to_string(stamp->shardCount) +
                             " ways but earlier inputs " +
                             std::to_string(summary.shardCount));
        } else if (stamp->matrixCells != summary.matrixCells) {
            return Error(ErrorCode::ConfigInvalid,
                         "'" + path + "' covers a matrix of " +
                             std::to_string(stamp->matrixCells) +
                             " cells but earlier inputs one of " +
                             std::to_string(summary.matrixCells));
        }
        if (covered[stamp->shardIndex - 1]) {
            return Error(ErrorCode::ConfigInvalid,
                         "shard " +
                             std::to_string(stamp->shardIndex) + "/" +
                             std::to_string(stamp->shardCount) +
                             " appears more than once ('" + path +
                             "')");
        }
        covered[stamp->shardIndex - 1] = true;

        std::vector<CheckpointRecord> records = shard.snapshot();
        if (records.size() != stamp->shardCells) {
            return Error(ErrorCode::ConfigInvalid,
                         "'" + path + "' is incomplete: " +
                             std::to_string(records.size()) + " of " +
                             std::to_string(stamp->shardCells) +
                             " cells recorded");
        }
        for (CheckpointRecord &record : records) {
            const unsigned belongs = shardOfFingerprint(
                record.fingerprint, stamp->shardCount);
            if (belongs != stamp->shardIndex - 1) {
                return Error(
                    ErrorCode::ConfigInvalid,
                    "'" + path + "' holds cell '" + record.label +
                        "' that belongs to shard " +
                        std::to_string(belongs + 1) + "/" +
                        std::to_string(stamp->shardCount));
            }
            const auto it = owner.find(record.fingerprint);
            if (it != owner.end()) {
                return Error(ErrorCode::ConfigInvalid,
                             "cell '" + record.label +
                                 "' appears in both '" + it->second +
                                 "' and '" + path + "'");
            }
            owner.emplace(record.fingerprint, path);
            merged.emplace(record.fingerprint, std::move(record));
        }

        MergeShardInfo info;
        info.path = path;
        info.shardIndex = stamp->shardIndex;
        info.shardCells = stamp->shardCells;
        info.records = stamp->shardCells;
        summary.shards.push_back(std::move(info));
    }

    for (unsigned i = 0; i < summary.shardCount; ++i) {
        if (!covered[i]) {
            return Error(ErrorCode::ConfigInvalid,
                         "shard " + std::to_string(i + 1) + "/" +
                             std::to_string(summary.shardCount) +
                             " is missing from the input set");
        }
    }

    std::sort(summary.shards.begin(), summary.shards.end(),
              [](const MergeShardInfo &a, const MergeShardInfo &b) {
                  return a.shardIndex < b.shardIndex;
              });
    summary.records = merged.size();

    // Plain (header-less) output sorted by fingerprint: the bytes
    // are a pure function of the record set, and an unsharded
    // --resume restores from it like any other checkpoint.
    std::string content;
    for (const auto &[fingerprint, record] : merged) {
        content += SweepCheckpoint::renderLine(record);
        content += '\n';
    }
    Result<void> written = writeFileAtomic(output_path, content);
    if (!written.ok()) {
        return std::move(written.error())
            .withContext("while writing merged checkpoint");
    }
    return summary;
}

std::string
renderMergeSummaryJson(const MergeSummary &summary,
                       const std::string &output_path)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"bpsim-merge-v1\",\n"
       << "  \"output\": " << jsonQuote(output_path) << ",\n"
       << "  \"shard_count\": " << summary.shardCount << ",\n"
       << "  \"matrix_cells\": " << summary.matrixCells << ",\n"
       << "  \"records\": " << summary.records << ",\n"
       << "  \"shards\": [\n";
    for (std::size_t i = 0; i < summary.shards.size(); ++i) {
        const MergeShardInfo &info = summary.shards[i];
        os << "    {\"path\": " << jsonQuote(info.path)
           << ", \"shard_index\": " << info.shardIndex
           << ", \"shard_cells\": " << info.shardCells
           << ", \"records\": " << info.records << "}"
           << (i + 1 < summary.shards.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace bpsim
