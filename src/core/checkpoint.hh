/**
 * @file
 * Sweep checkpoint/resume: persist finished matrix cells so an
 * interrupted sweep restarts where it died instead of from zero.
 *
 * Each completed cell is stored as one JSONL record keyed by a
 * deterministic config fingerprint (program identity + every
 * result-affecting config field), so resume matching survives cell
 * reordering, added cells, and label edits. Only deterministic fields
 * are persisted — stats, hint counts, branch totals, the kernel flag —
 * never wall times, so a resumed run's merged result is bit-identical
 * to an uninterrupted one in every deterministic field.
 *
 * Durability: the file is rewritten atomically (temp + rename) on
 * every record, so a crash at any instant leaves either the previous
 * or the new complete checkpoint, never a torn line. Lines found on
 * load that do not parse, carry another schema, or lack a field are
 * skipped, not fatal: a stale or damaged checkpoint only costs
 * re-execution.
 */

#ifndef BPSIM_CORE_CHECKPOINT_HH
#define BPSIM_CORE_CHECKPOINT_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "support/error.hh"
#include "workload/workload_source.hh"

namespace bpsim
{

class JsonValue;

/** Schema tag stamped on every checkpoint line. */
inline constexpr const char *checkpointSchema = "bpsim-checkpoint-v1";

/**
 * Schema tag of the optional shard-identity header line. Written as
 * the first line of any checkpoint produced by a run that declared a
 * shard (including the trivial 1/1 shard), it records which slice of
 * which matrix the file covers so `bpsim_cli merge` can verify a
 * shard set is complete and disjoint. Readers that predate it skip
 * it as an unknown schema — resume compatibility is unaffected.
 */
inline constexpr const char *checkpointHeaderSchema =
    "bpsim-checkpoint-header-v1";

/** Shard identity stamped into a checkpoint's header line. */
struct ShardStamp
{
    /** 1-based shard index. */
    unsigned shardIndex = 1;

    /** Total shards the matrix was split into. */
    unsigned shardCount = 1;

    /** Cells in the whole (unsharded) matrix. */
    Count matrixCells = 0;

    /** Fingerprintable cells owned by this shard — the record count
     * a complete shard checkpoint must reach. */
    Count shardCells = 0;
};

/**
 * The shard (0-based) a fingerprint belongs to in an @p shard_count
 * way split. Pure function of the fingerprint bytes (FNV-1a), so
 * every process computes the same disjoint, deterministic partition
 * and `merge` can verify each record landed in its declared shard.
 */
unsigned shardOfFingerprint(const std::string &fingerprint,
                            unsigned shard_count);

/** One persisted cell: its identity and deterministic outcome. */
struct CheckpointRecord
{
    /** cellFingerprint() of the cell this record restores. */
    std::string fingerprint;

    /** Display label at record time (informational only). */
    std::string label;

    /** The cell's deterministic experiment outcome. */
    ExperimentResult result;

    /** Every simulation of the cell ran the devirtualized kernels. */
    bool usedKernel = false;

    /** Every simulation of the cell ran the batched SIMD-dispatch
     * kernels. Observability only (results are bit-identical across
     * dispatch levels), so it is persisted but — like usedKernel —
     * never part of the fingerprint: a sweep checkpointed under one
     * dispatch level resumes cleanly under another. */
    bool usedSimd = false;

    /**
     * simulatedBranches of the shared profiling phase the cell
     * consumed (0 = ran its own or needed none). Lets a resumed run
     * reconstruct the matrix's actual-branches accounting when a
     * phase's every consumer was restored and the phase never re-ran.
     */
    Count phaseBranches = 0;
};

/**
 * Deterministic identity of one matrix cell: the program's name and
 * seed plus every config field that affects the result, the
 * predictor's among them through predictorIdentityOf().
 */
std::string cellFingerprint(const WorkloadSource &program,
                            const ExperimentConfig &config);

/**
 * The on-disk checkpoint of one sweep. Thread-safe: the runner's
 * workers record cells concurrently; each record() rewrites the file
 * atomically under a lock.
 */
class SweepCheckpoint
{
  public:
    /** Bind to @p path; reads nothing until load(). */
    explicit SweepCheckpoint(std::string path);

    /**
     * Read existing records from the bound path. A missing file is an
     * empty checkpoint (fresh run), not an error; a line parseRecord()
     * rejects is skipped, so its cell re-runs. io_failure only when
     * the file exists but cannot be read.
     */
    Result<void> load();

    /** Record @p record and atomically rewrite the file. */
    Result<void> record(CheckpointRecord record);

    /** Loaded/recorded record for @p fingerprint; null when absent. */
    const CheckpointRecord *find(const std::string &fingerprint) const;

    /** Records held (loaded + recorded this run). */
    std::size_t size() const;

    const std::string &path() const { return filePath; }

    /**
     * Declare the shard identity this checkpoint covers; every
     * subsequent rewrite leads with the header line. load() also
     * populates this from an existing header, so a resuming runner
     * can compare the file's stamp against its own shard options
     * before overwriting it.
     */
    void setShard(const ShardStamp &stamp);

    /** The shard stamp (set or loaded); nullopt for plain files. */
    std::optional<ShardStamp> shard() const;

    /**
     * Rewrite the file now (header + records) without adding a
     * record — gives a freshly sharded run a header-stamped file
     * before its first cell completes, so even a zero-cell shard
     * leaves a verifiable checkpoint for merge.
     */
    Result<void> flush();

    /** Copy of all records (merge input; order as stored). */
    std::vector<CheckpointRecord> snapshot() const;

    /** Render one record as its JSONL line (no trailing newline). */
    static std::string renderLine(const CheckpointRecord &record);

    /**
     * Read one rendered record back: the inverse of renderLine(), for
     * checkpoint lines and service response cells alike.
     * config_invalid on another schema, a missing or mistyped field,
     * or a malformed scenario row; never fatal().
     */
    static Result<CheckpointRecord> parseRecord(const JsonValue &object);

  private:
    /** Rewrite the file from records; caller holds the lock. */
    Result<void> rewriteLocked();

    std::string filePath;
    mutable std::mutex lock;
    std::vector<CheckpointRecord> records;
    std::map<std::string, std::size_t> index;
    std::optional<ShardStamp> stamp;
};

/** One input shard's contribution to a merge. */
struct MergeShardInfo
{
    std::string path;
    unsigned shardIndex = 0;
    Count shardCells = 0;
    Count records = 0;
};

/** What a successful merge combined (summary JSON source). */
struct MergeSummary
{
    unsigned shardCount = 0;
    Count matrixCells = 0;
    Count records = 0;
    /** Per-shard provenance, sorted by shard index. */
    std::vector<MergeShardInfo> shards;
};

/**
 * Merge a complete set of shard checkpoints into one plain
 * (header-less) checkpoint at @p output_path, records sorted by
 * fingerprint so the bytes are deterministic. An unsharded run that
 * resumes from the merged file restores every cell, making its
 * result bit-identical in every deterministic field to a run that
 * never sharded.
 *
 * Rejected with config_invalid: an input without a shard header,
 * mismatched shard counts or matrix sizes, duplicate or out-of-range
 * shard indices, a missing shard, an incomplete shard (fewer records
 * than its stamp declares), records filed under the wrong shard, or
 * duplicate fingerprints across inputs. io_failure when an input
 * cannot be read or the output cannot be written.
 */
Result<MergeSummary>
mergeShardCheckpoints(const std::vector<std::string> &shard_paths,
                      const std::string &output_path);

/** Render the "bpsim-merge-v1" summary JSON for a finished merge. */
std::string renderMergeSummaryJson(const MergeSummary &summary,
                                   const std::string &output_path);

} // namespace bpsim

#endif // BPSIM_CORE_CHECKPOINT_HH
