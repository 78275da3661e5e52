/**
 * @file
 * Run-journal observability layer.
 *
 * A RunJournal records the coarse, structured events of one matrix or
 * CLI run — phase boundaries, profile-cache outcomes, which execution
 * path (devirtualized kernel vs virtual fallback) each cell took,
 * thread assignment, and the final stat snapshot of every cell — and
 * serializes them as JSONL (one event per line) plus an aggregated
 * metrics summary JSON. tools/check_bench_json.py validates both
 * formats (--schema journal / --schema metrics), so every committed
 * or CI-produced record is checked against the event taxonomy and its
 * cross-event invariants.
 *
 * A run and each of its phases is one RAII obs::Span, so run and
 * phase brackets balance by construction (exceptions included) and a
 * phase_end's seconds is its own bracket's wall time. Everything else
 * (cells, cache traffic, fused passes) is a plain obs::note() event.
 *
 * Granularity contract: events are per phase / per cell, never per
 * branch. A fig7-12-sized run emits a few hundred events, so the
 * journal's mutex and timestamping cost is noise (<3% of wall time)
 * next to the millions of simulated branches per cell.
 *
 * Layering: obs sits on support only. Events carry generic typed
 * fields rather than core's SimStats, so the journal can outlive any
 * particular stats struct; core/runner does the SimStats -> fields
 * flattening.
 */

#ifndef BPSIM_OBS_RUN_JOURNAL_HH
#define BPSIM_OBS_RUN_JOURNAL_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/observe.hh"
#include "support/types.hh"

namespace bpsim::obs
{

/**
 * The event taxonomy. Every journal line names one of these; the
 * schema validator rejects anything else.
 */
enum class EventKind
{
    RunBegin,     ///< first event: run label, thread count
    PhaseBegin,   ///< a named run phase opened (materialize/profile/cells)
    PhaseEnd,     ///< the matching phase closed (payload: seconds)
    Materialize,  ///< replay buffers built (seconds, bytes)
    ProfilePhase, ///< one shared profiling run executed
    CellBegin,    ///< a matrix cell started on some worker thread
    CellEnd,      ///< cell finished: timing, path taken, stat snapshot
    CellError,    ///< cell failed: error code, message, attempts
    FusedGroup,   ///< one fused pass executed: membership, timing,
                  ///< per-cell branch/misprediction snapshots
    ScenarioCell, ///< multi-context summary of a scenario cell:
                  ///< context count, cross- vs self-context collision
                  ///< and destructive totals (the full NxN matrix
                  ///< goes to the runner/bench JSON, not the journal)
    Cache,        ///< artifact-cache traffic: a replay buffer or
                  ///< profile phase was served from / stored to the
                  ///< content-addressed cache
    CacheCorrupt, ///< a cache file existed but failed validation and
                  ///< was regenerated (never fatal)
    RunEnd,       ///< last event: aggregate totals

    // Service-mode events (bpsim_serve). Label = request id.
    RequestBegin,    ///< a request was admitted and started executing
    RequestCell,     ///< one cell of a request reached a final outcome
    RequestEnd,      ///< a request finished (ok or structured error)
    RequestRejected, ///< a request was refused at admission (shed,
                     ///< quarantine, malformed, draining)
    ServiceState,    ///< daemon lifecycle: listening / draining /
                     ///< stopped, with queue-depth snapshots
};

/** Wire name of @p kind ("run_begin", "cell_end", ...). */
const char *eventKindName(EventKind kind);

/** One typed key/value payload entry of an event. */
class Field
{
  public:
    enum class Type
    {
        U64,
        F64,
        Bool,
        Str,
    };

    static Field u64(std::string key, Count value);
    static Field f64(std::string key, double value);
    static Field boolean(std::string key, bool value);
    static Field str(std::string key, std::string value);

    const std::string &key() const { return fieldKey; }
    Type type() const { return fieldType; }

    Count u64Value() const { return u64Field; }
    double f64Value() const { return f64Field; }
    bool boolValue() const { return boolField; }
    const std::string &strValue() const { return strField; }

    /** Append `"key": value` (no braces/comma) to @p out. */
    void appendJson(std::string &out) const;

  private:
    std::string fieldKey;
    Type fieldType = Type::U64;
    Count u64Field = 0;
    double f64Field = 0.0;
    bool boolField = false;
    std::string strField;
};

/** One recorded event. */
struct Event
{
    /** Monotonic per-journal sequence number (assigned by record()). */
    Count sequence = 0;

    /** Seconds since the journal's epoch (its construction). */
    double seconds = 0.0;

    /** Worker-thread index the event was recorded from (0 = the
     * coordinating thread / pool worker zero). */
    unsigned thread = 0;

    EventKind kind = EventKind::RunBegin;

    /** Cell label, phase name, or program name — the event's subject. */
    std::string label;

    std::vector<Field> fields;

    /** Payload field lookup (null when absent). */
    const Field *find(const std::string &key) const;

    /** Numeric payload value; 0 when absent or non-numeric. */
    Count u64(const std::string &key) const;
    double f64(const std::string &key) const;
    bool boolean(const std::string &key) const;
};

/** Aggregates computed by RunJournal::summary(). */
struct JournalSummary
{
    Count totalEvents = 0;

    /** Events per taxonomy kind (wire names). */
    std::map<std::string, Count> eventsByKind;

    /** Events per recording thread index. */
    std::map<unsigned, Count> eventsByThread;

    Count cellsBegun = 0;
    Count cellsEnded = 0;

    /** cell_error events: cells whose execution failed. Every
     * cell_begin is closed by exactly one cell_end or cell_error, so
     * cellsBegun == cellsEnded + cellsFailed on a complete journal. */
    Count cellsFailed = 0;

    /** cell_end events restored from a checkpoint (resume) rather
     * than executed in this run. */
    Count cellsRestored = 0;

    Count phaseBegins = 0;
    Count phaseEnds = 0;

    /** Every phase_begin had a later phase_end with the same label
     * and no phase closed more often than it opened. */
    bool phasesBalanced = true;

    /** Sum of profile_phase seconds. */
    double profileSeconds = 0.0;

    /** Sum of cell_end seconds. */
    double cellSeconds = 0.0;

    /** Sum of materialize seconds. */
    double materializeSeconds = 0.0;

    /** run_end wall seconds (0 when the run never ended). */
    double wallSeconds = 0.0;

    /** Cells whose evaluation ran the devirtualized kernels. */
    Count kernelCells = 0;

    /** Cells whose simulations ran the batched SIMD kernels. */
    Count simdCells = 0;

    /** run_begin dispatch level ("scalar"/"avx2"/"neon"; empty when
     * the run_begin event predates the field). */
    std::string dispatch;

    /** run_begin nominal vector width in 32-bit lanes (0 when the
     * run_begin event predates the field). */
    Count simdWidth = 0;

    /** Cells that consumed a shared (cached or fresh) profile phase. */
    Count cachedCells = 0;

    /** fused_group events: fused passes executed by the sweep. */
    Count fusedGroups = 0;

    /** Sum of fused_group member counts (cells + profiling phases
     * that ran inside a fused pass). */
    Count fusedMembers = 0;

    /** Sum of cell_end measured branches. */
    Count branches = 0;

    /** Collision classification totals summed over cell_end events.
     * neutral is the unclassified remainder, so
     * constructive + destructive + neutral == collisions by
     * construction at the emitter — the validator and property suite
     * re-check it. */
    Count collisions = 0;
    Count constructive = 0;
    Count destructive = 0;
    Count neutral = 0;
};

/**
 * Thread-safe structured event log for one run, with an embedded
 * timer registry (fed by spans and the runner's scoped timers)
 * serialized into the metrics summary.
 */
class RunJournal
{
  public:
    explicit RunJournal(std::string run_label = "run");

    const std::string &runLabel() const { return label; }

    /** Scoped-timer accumulator attached to this run. */
    TimerRegistry &timers() { return timerRegistry; }
    const TimerRegistry &timers() const { return timerRegistry; }

    /**
     * Record one event (thread-safe). @p thread is the recording
     * worker's index; sequence number and timestamp are assigned
     * here, under the journal lock, so sequences are strictly
     * increasing and timestamps monotonic per journal.
     */
    void record(EventKind kind, unsigned thread, std::string label,
                std::vector<Field> fields = {});

    /**
     * record() and return the event's serialized JSONL line. The
     * serialization happens under the journal lock so a subscriber
     * stream sees lines in the same order as the on-disk journal.
     */
    std::string recordAndRender(EventKind kind, unsigned thread,
                                std::string label,
                                std::vector<Field> fields = {});

    /** Number of events recorded so far. */
    Count eventCount() const;

    /** Snapshot copy of the event log, in sequence order. */
    std::vector<Event> events() const;

    /** Aggregate the current event log. */
    JournalSummary summary() const;

    /** Serialize one event as its JSONL line (no trailing newline). */
    static std::string toJsonLine(const Event &event);

    /**
     * Write the event log as JSONL to @p path and the aggregated
     * metrics summary (plus the timer snapshot) next to it
     * ("x.jsonl" -> "x.metrics.json"), each by atomic temp + rename;
     * fatal() if either is unwritable. Returns the metrics path.
     */
    std::string writeFiles(const std::string &path) const;

  private:
    double secondsSinceStart() const;

    /** Append one event to the log; the caller holds the lock. */
    const Event &append(EventKind kind, unsigned thread,
                        std::string label, std::vector<Field> fields);

    void writeJsonl(const std::string &path) const;
    void writeMetrics(const std::string &path) const;

    std::string label;
    std::chrono::steady_clock::time_point epoch;
    TimerRegistry timerRegistry;

    mutable std::mutex lock;
    std::vector<Event> log;
};

/**
 * Worker index of the calling thread: its position in the TaskPool
 * running it, or 0 on any thread outside a pool (the coordinating
 * thread doubles as worker 0). Events are attributed to it.
 */
unsigned workerIndex();

/** Set the calling thread's worker index (TaskPool does so on each of
 * its workers). */
void setWorkerIndex(unsigned index);

/** Record one event from the calling worker; nothing on a null
 * journal. */
void note(RunJournal *journal, EventKind kind, std::string label,
          std::vector<Field> fields = {});

/** The journal's timer registry; null for a null journal. */
TimerRegistry *timersOf(RunJournal *journal);

/**
 * RAII bracket over a whole run or one named phase of it. Building a
 * span records its opening event; its closing event is recorded
 * exactly once, by close() or on scope exit (exceptions included),
 * and carries {"seconds": <the span's own elapsed time>} ahead of any
 * fields passed to close(). On a null journal a span records nothing
 * but still measures.
 */
class Span
{
  public:
    /** Run form: run_begin under the journal's run label with
     * @p fields now, run_end at close. */
    static Span run(RunJournal *journal, std::vector<Field> fields);

    /** Phase form: phase_begin @p name now, phase_end at close. A
     * non-empty @p timer also folds the elapsed time into that
     * timers() entry. */
    static Span phase(RunJournal *journal, std::string name,
                      std::string timer = {});

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span() { close(); }

    /** Seconds since the span opened. */
    double seconds() const;

    /** Record the closing event (first call only) and return the
     * span's elapsed seconds. */
    double close(std::vector<Field> fields = {});

  private:
    Span(RunJournal *journal, EventKind begin, EventKind end,
         std::string label, std::vector<Field> fields,
         std::string timer);

    RunJournal *journal;
    EventKind endKind;
    std::string label;
    std::string timer;
    std::chrono::steady_clock::time_point start;
    bool open = true;
    double elapsed = 0.0;
};

} // namespace bpsim::obs

#endif // BPSIM_OBS_RUN_JOURNAL_HH
