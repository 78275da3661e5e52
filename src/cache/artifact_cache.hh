/**
 * @file
 * Content-addressed on-disk cache of materialized sweep artifacts.
 *
 * Two artifact kinds are cached under one directory:
 *
 *  - Replay buffers ("replay-<hash>.bprc"): the flat PC + packed
 *    gap/outcome columns a ReplayBuffer holds. Loaded back via a
 *    read-only mmap and wrapped with ReplayBuffer::fromColumns(), so
 *    N worker processes on one host replay a single physical copy of
 *    the trace data instead of each materializing its own.
 *
 *  - Profile phases ("profile-<hash>.bppf"): the per-branch counters
 *    of one profile simulation plus its simulated-branch total. Small
 *    files, copied into a ProfileDb on load.
 *
 * Keys are deterministic strings built by artifact-key helpers from
 * the same identity fields the checkpoint fingerprints use (program
 * name + seed, input set, branch budgets, predictor identity).
 * Dispatch/SIMD level and thread count are deliberately excluded —
 * results are bit-identical across them, so cache hits cross SIMD
 * levels and process topologies. File names are the FNV-1a hash of
 * the key; the full key is stored in the file and verified on load,
 * so a hash collision degrades to a miss, never to wrong data.
 *
 * Every file is written through AtomicFile (temp + rename), making
 * concurrent writers from racing shard processes benign: both write
 * identical bytes for a given key and the last rename wins. Loads
 * validate structure (magic, version, sizes, key, header checksum
 * over header + key bytes) but deliberately do not checksum the
 * payload: a warm start must cost ~zero, and the payload is only
 * ever produced by the atomic writer. Corrupt or truncated files
 * surface as structured io_failure errors the runner converts into a
 * cache_corrupt journal event and a fallback re-materialization —
 * cache damage never aborts a sweep.
 *
 * The on-disk byte order is the host's (little-endian on every
 * supported target); cache directories are per-host scratch space,
 * not portable archives.
 */

#ifndef BPSIM_CACHE_ARTIFACT_CACHE_HH
#define BPSIM_CACHE_ARTIFACT_CACHE_HH

#include <cstddef>
#include <mutex>
#include <string>

#include "profile/profile_db.hh"
#include "support/error.hh"
#include "support/types.hh"
#include "trace/replay_buffer.hh"

namespace bpsim
{

/**
 * Key of a materialized replay buffer: program identity (name +
 * seed), input set and record budget. The budget is part of the key
 * because the columns themselves depend on it.
 */
std::string replayArtifactKey(const std::string &program_name,
                              std::uint64_t program_seed,
                              unsigned input_set, Count records);

/**
 * Key of a profile phase: program identity, profile input set and
 * branch budget, and the predictor identity string
 * (predictorIdentityOf(): "name:bytes", plus ":h<lengths>" when the
 * cell sets history lengths).
 */
std::string profileArtifactKey(const std::string &program_name,
                               std::uint64_t program_seed,
                               unsigned profile_input,
                               Count profile_branches,
                               const std::string &predictor_identity);

/** Counters accumulated across one cache instance's lifetime. */
struct ArtifactCacheStats
{
    Count replayHits = 0;
    Count replayMisses = 0;
    Count profileHits = 0;
    Count profileMisses = 0;
    /** Files present but structurally invalid (fell back to a miss
     * at the call site after a cache_corrupt event). */
    Count corrupt = 0;
    /** Replay payload bytes mapped in from cache hits (cumulative). */
    std::size_t mappedBytes = 0;
};

/**
 * One cache directory. Thread-safe: materialize tasks and profile
 * phases running on different workers load and store concurrently
 * (only the stats counters share state).
 */
class ArtifactCache
{
  public:
    explicit ArtifactCache(std::string directory);

    const std::string &directory() const { return dir; }

    struct ReplayLookup
    {
        bool hit = false;
        ReplayBuffer buffer;
    };

    /**
     * Look up the replay buffer for @p key. ok(hit=false) when the
     * file does not exist; ok(hit=true) with a mapped buffer on a
     * valid hit; io_failure when a file exists but is corrupt,
     * truncated or unreadable (the caller re-materializes). Hits the
     * cache_map fault point.
     */
    Result<ReplayLookup> loadReplay(const std::string &key);

    /**
     * Persist @p buffer under @p key (atomic write; racing writers
     * of the same key are benign). Hits the cache_write fault point.
     */
    Result<void> storeReplay(const std::string &key,
                             const ReplayBuffer &buffer);

    struct ProfileLookup
    {
        bool hit = false;
        ProfileDb profile;
        Count simulatedBranches = 0;
    };

    /** Profile-phase analogue of loadReplay(). */
    Result<ProfileLookup> loadProfile(const std::string &key);

    /** Profile-phase analogue of storeReplay(). */
    Result<void> storeProfile(const std::string &key,
                              const ProfileDb &profile,
                              Count simulated_branches);

    /** The file @p key's replay artifact lives in (exists or not). */
    std::string replayPath(const std::string &key) const;

    /** The file @p key's profile artifact lives in. */
    std::string profilePath(const std::string &key) const;

    ArtifactCacheStats stats() const;

  private:
    Result<void> ensureDirectory();

    void
    count(Count ArtifactCacheStats::*counter, Count delta = 1)
    {
        std::lock_guard<std::mutex> guard(lock);
        tally.*counter += delta;
    }

    std::string dir;
    bool dirReady = false;

    mutable std::mutex lock;
    ArtifactCacheStats tally;
};

} // namespace bpsim

#endif // BPSIM_CACHE_ARTIFACT_CACHE_HH
