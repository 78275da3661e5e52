#include "obs/run_journal.hh"

#include <cstdio>

#include "support/atomic_file.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace bpsim::obs
{

namespace
{

void
appendF64(std::string &out, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    out += buf;
}

void
appendU64(std::string &out, Count value)
{
    out += std::to_string(value);
}

thread_local unsigned currentWorker = 0;

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::RunBegin:
        return "run_begin";
      case EventKind::PhaseBegin:
        return "phase_begin";
      case EventKind::PhaseEnd:
        return "phase_end";
      case EventKind::Materialize:
        return "materialize";
      case EventKind::ProfilePhase:
        return "profile_phase";
      case EventKind::CellBegin:
        return "cell_begin";
      case EventKind::CellEnd:
        return "cell_end";
      case EventKind::CellError:
        return "cell_error";
      case EventKind::FusedGroup:
        return "fused_group";
      case EventKind::ScenarioCell:
        return "scenario_cell";
      case EventKind::Cache:
        return "cache";
      case EventKind::CacheCorrupt:
        return "cache_corrupt";
      case EventKind::RunEnd:
        return "run_end";
      case EventKind::RequestBegin:
        return "request_begin";
      case EventKind::RequestCell:
        return "request_cell";
      case EventKind::RequestEnd:
        return "request_end";
      case EventKind::RequestRejected:
        return "request_rejected";
      case EventKind::ServiceState:
        return "service_state";
    }
    return "?";
}

Field
Field::u64(std::string key, Count value)
{
    Field field;
    field.fieldKey = std::move(key);
    field.fieldType = Type::U64;
    field.u64Field = value;
    return field;
}

Field
Field::f64(std::string key, double value)
{
    Field field;
    field.fieldKey = std::move(key);
    field.fieldType = Type::F64;
    field.f64Field = value;
    return field;
}

Field
Field::boolean(std::string key, bool value)
{
    Field field;
    field.fieldKey = std::move(key);
    field.fieldType = Type::Bool;
    field.boolField = value;
    return field;
}

Field
Field::str(std::string key, std::string value)
{
    Field field;
    field.fieldKey = std::move(key);
    field.fieldType = Type::Str;
    field.strField = std::move(value);
    return field;
}

void
Field::appendJson(std::string &out) const
{
    out += jsonQuote(fieldKey);
    out += ": ";
    switch (fieldType) {
      case Type::U64:
        appendU64(out, u64Field);
        break;
      case Type::F64:
        appendF64(out, f64Field);
        break;
      case Type::Bool:
        out += boolField ? "true" : "false";
        break;
      case Type::Str:
        out += jsonQuote(strField);
        break;
    }
}

const Field *
Event::find(const std::string &key) const
{
    for (const Field &field : fields) {
        if (field.key() == key)
            return &field;
    }
    return nullptr;
}

Count
Event::u64(const std::string &key) const
{
    const Field *field = find(key);
    return field != nullptr && field->type() == Field::Type::U64
               ? field->u64Value()
               : 0;
}

double
Event::f64(const std::string &key) const
{
    const Field *field = find(key);
    return field != nullptr && field->type() == Field::Type::F64
               ? field->f64Value()
               : 0.0;
}

bool
Event::boolean(const std::string &key) const
{
    const Field *field = find(key);
    return field != nullptr && field->type() == Field::Type::Bool &&
           field->boolValue();
}

RunJournal::RunJournal(std::string run_label)
    : label(std::move(run_label)),
      epoch(std::chrono::steady_clock::now())
{
}

double
RunJournal::secondsSinceStart() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

const Event &
RunJournal::append(EventKind kind, unsigned thread, std::string label,
                   std::vector<Field> fields)
{
    Event event;
    event.sequence = log.size();
    event.seconds = secondsSinceStart();
    event.thread = thread;
    event.kind = kind;
    event.label = std::move(label);
    event.fields = std::move(fields);
    log.push_back(std::move(event));
    return log.back();
}

void
RunJournal::record(EventKind kind, unsigned thread, std::string label,
                   std::vector<Field> fields)
{
    std::lock_guard<std::mutex> guard(lock);
    append(kind, thread, std::move(label), std::move(fields));
}

std::string
RunJournal::recordAndRender(EventKind kind, unsigned thread,
                            std::string label,
                            std::vector<Field> fields)
{
    std::lock_guard<std::mutex> guard(lock);
    return toJsonLine(
        append(kind, thread, std::move(label), std::move(fields)));
}

Count
RunJournal::eventCount() const
{
    std::lock_guard<std::mutex> guard(lock);
    return log.size();
}

std::vector<Event>
RunJournal::events() const
{
    std::lock_guard<std::mutex> guard(lock);
    return log;
}

JournalSummary
RunJournal::summary() const
{
    const std::vector<Event> snapshot = events();

    JournalSummary sum;
    sum.totalEvents = snapshot.size();
    std::map<std::string, long long> open_phases;
    for (const Event &event : snapshot) {
        ++sum.eventsByKind[eventKindName(event.kind)];
        ++sum.eventsByThread[event.thread];
        switch (event.kind) {
          case EventKind::PhaseBegin:
            ++sum.phaseBegins;
            ++open_phases[event.label];
            break;
          case EventKind::PhaseEnd:
            ++sum.phaseEnds;
            if (--open_phases[event.label] < 0)
                sum.phasesBalanced = false;
            break;
          case EventKind::Materialize:
            sum.materializeSeconds += event.f64("seconds");
            break;
          case EventKind::ProfilePhase:
            sum.profileSeconds += event.f64("seconds");
            break;
          case EventKind::CellBegin:
            ++sum.cellsBegun;
            break;
          case EventKind::CellError:
            ++sum.cellsFailed;
            break;
          case EventKind::CellEnd:
            ++sum.cellsEnded;
            if (event.boolean("restored"))
                ++sum.cellsRestored;
            sum.cellSeconds += event.f64("seconds");
            sum.branches += event.u64("branches");
            sum.collisions += event.u64("collisions");
            sum.constructive += event.u64("constructive");
            sum.destructive += event.u64("destructive");
            sum.neutral += event.u64("neutral");
            if (event.boolean("kernel"))
                ++sum.kernelCells;
            if (event.boolean("simd"))
                ++sum.simdCells;
            if (event.boolean("profile_cached"))
                ++sum.cachedCells;
            break;
          case EventKind::FusedGroup:
            ++sum.fusedGroups;
            sum.fusedMembers += event.u64("members");
            break;
          case EventKind::Cache:
          case EventKind::CacheCorrupt:
          case EventKind::ScenarioCell:
          case EventKind::RequestBegin:
          case EventKind::RequestCell:
          case EventKind::RequestEnd:
          case EventKind::RequestRejected:
          case EventKind::ServiceState:
            // Counted in eventsByKind; run_end carries the totals.
            break;
          case EventKind::RunEnd:
            sum.wallSeconds = event.f64("seconds");
            break;
          case EventKind::RunBegin:
            if (const Field *field = event.find("dispatch");
                field != nullptr && field->type() == Field::Type::Str)
                sum.dispatch = field->strValue();
            sum.simdWidth = event.u64("simd_width");
            break;
        }
    }
    for (const auto &[name, net] : open_phases) {
        if (net != 0)
            sum.phasesBalanced = false;
    }
    return sum;
}

std::string
RunJournal::toJsonLine(const Event &event)
{
    std::string out = "{\"seq\": ";
    appendU64(out, event.sequence);
    out += ", \"t\": ";
    appendF64(out, event.seconds);
    out += ", \"thread\": ";
    appendU64(out, event.thread);
    out += ", \"event\": ";
    out += jsonQuote(eventKindName(event.kind));
    out += ", \"label\": ";
    out += jsonQuote(event.label);
    for (const Field &field : event.fields) {
        out += ", ";
        field.appendJson(out);
    }
    out += "}";
    return out;
}

void
RunJournal::writeJsonl(const std::string &path) const
{
    AtomicFile writer(path);
    if (!writer.ok())
        bpsim_fatal("cannot write '", path, "'");
    for (const Event &event : events()) {
        const std::string line = toJsonLine(event);
        std::fprintf(writer.stream(), "%s\n", line.c_str());
    }
    const Result<void> committed = writer.commit();
    if (!committed.ok())
        bpsim_fatal(committed.error().describe());
}

void
RunJournal::writeMetrics(const std::string &path) const
{
    const JournalSummary sum = summary();

    AtomicFile writer(path);
    if (!writer.ok())
        bpsim_fatal("cannot write '", path, "'");
    std::FILE *file = writer.stream();

    std::fprintf(file, "{\n");
    std::fprintf(file, "  \"schema\": \"bpsim-metrics-v1\",\n");
    std::fprintf(file, "  \"run\": %s,\n",
                 jsonQuote(label).c_str());
    std::fprintf(file, "  \"total_events\": %llu,\n",
                 static_cast<unsigned long long>(sum.totalEvents));

    std::fprintf(file, "  \"events_by_kind\": {");
    bool first = true;
    for (const auto &[kind, count] : sum.eventsByKind) {
        std::fprintf(file, "%s\n    %s: %llu", first ? "" : ",",
                     jsonQuote(kind).c_str(),
                     static_cast<unsigned long long>(count));
        first = false;
    }
    std::fprintf(file, "\n  },\n");

    std::fprintf(file, "  \"events_by_thread\": {");
    first = true;
    for (const auto &[thread, count] : sum.eventsByThread) {
        std::fprintf(file, "%s\n    \"%u\": %llu", first ? "" : ",",
                     thread,
                     static_cast<unsigned long long>(count));
        first = false;
    }
    std::fprintf(file, "\n  },\n");

    const auto count = [file](const char *key, unsigned long long value) {
        std::fprintf(file, "  \"%s\": %llu,\n", key, value);
    };
    const auto seconds = [file](const char *key, double value) {
        std::fprintf(file, "  \"%s\": %.6f,\n", key, value);
    };
    count("cells_begun", sum.cellsBegun);
    count("cells_ended", sum.cellsEnded);
    count("cells_failed", sum.cellsFailed);
    count("cells_restored", sum.cellsRestored);
    count("phase_begins", sum.phaseBegins);
    count("phase_ends", sum.phaseEnds);
    std::fprintf(file, "  \"phases_balanced\": %s,\n",
                 sum.phasesBalanced ? "true" : "false");
    seconds("materialize_seconds", sum.materializeSeconds);
    seconds("profile_seconds", sum.profileSeconds);
    seconds("cell_seconds", sum.cellSeconds);
    seconds("wall_seconds", sum.wallSeconds);
    count("kernel_cells", sum.kernelCells);
    count("simd_cells", sum.simdCells);
    std::fprintf(file, "  \"dispatch\": %s,\n",
                 jsonQuote(sum.dispatch).c_str());
    count("simd_width", sum.simdWidth);
    count("cached_cells", sum.cachedCells);
    count("fused_groups", sum.fusedGroups);
    count("fused_members", sum.fusedMembers);
    count("branches", sum.branches);
    count("collisions", sum.collisions);
    count("constructive", sum.constructive);
    count("destructive", sum.destructive);
    count("neutral", sum.neutral);

    std::fprintf(file, "  \"timers\": {");
    first = true;
    for (const auto &[name, stat] : timerRegistry.snapshot()) {
        std::fprintf(file,
                     "%s\n    %s: {\"count\": %llu, "
                     "\"seconds\": %.6f}",
                     first ? "" : ",", jsonQuote(name).c_str(),
                     static_cast<unsigned long long>(stat.count),
                     stat.seconds);
        first = false;
    }
    std::fprintf(file, "\n  }\n");
    std::fprintf(file, "}\n");
    const Result<void> committed = writer.commit();
    if (!committed.ok())
        bpsim_fatal(committed.error().describe());
}

std::string
RunJournal::writeFiles(const std::string &path) const
{
    const std::string suffix = ".jsonl";
    const bool jsonl = path.size() > suffix.size() &&
                       path.compare(path.size() - suffix.size(),
                                    suffix.size(), suffix) == 0;
    const std::string metrics =
        (jsonl ? path.substr(0, path.size() - suffix.size()) : path) +
        ".metrics.json";
    writeJsonl(path);
    writeMetrics(metrics);
    return metrics;
}

unsigned
workerIndex()
{
    return currentWorker;
}

void
setWorkerIndex(unsigned index)
{
    currentWorker = index;
}

void
note(RunJournal *journal, EventKind kind, std::string label,
     std::vector<Field> fields)
{
    if (journal != nullptr)
        journal->record(kind, currentWorker, std::move(label),
                        std::move(fields));
}

TimerRegistry *
timersOf(RunJournal *journal)
{
    return journal != nullptr ? &journal->timers() : nullptr;
}

Span
Span::run(RunJournal *journal, std::vector<Field> fields)
{
    return Span(journal, EventKind::RunBegin, EventKind::RunEnd,
                journal != nullptr ? journal->runLabel() : "",
                std::move(fields), {});
}

Span
Span::phase(RunJournal *journal, std::string name, std::string timer)
{
    return Span(journal, EventKind::PhaseBegin, EventKind::PhaseEnd,
                std::move(name), {}, std::move(timer));
}

Span::Span(RunJournal *journal, EventKind begin, EventKind end,
           std::string label, std::vector<Field> fields,
           std::string timer)
    : journal(journal), endKind(end), label(std::move(label)),
      timer(std::move(timer))
{
    note(journal, begin, this->label, std::move(fields));
    // Started after the opening event, so the measured time never
    // exceeds the bracket's.
    start = std::chrono::steady_clock::now();
}

double
Span::seconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
Span::close(std::vector<Field> fields)
{
    if (!open)
        return elapsed;
    open = false;
    elapsed = seconds();
    if (TimerRegistry *timers = timersOf(journal);
        timers != nullptr && !timer.empty())
        timers->add(timer, elapsed);
    fields.insert(fields.begin(), Field::f64("seconds", elapsed));
    note(journal, endKind, label, std::move(fields));
    return elapsed;
}

} // namespace bpsim::obs
