/**
 * @file
 * Per-job lifecycle events and the sweep event log (DESIGN.md §12).
 *
 * The SweepRunner appends one SweepEvent per lifecycle transition to
 * its SweepEventLog (SweepOptions::eventLog, the harnesses' --event-log
 * FILE):
 *
 *   sweep-begin            once per run(), carrying total_jobs/threads
 *   queued                 every job, in submission order
 *   running                each attempt's start (attempt = 1, 2, ...)
 *   retrying               a transient failure with attempts left
 *   done                   terminal success (wall_ms, ops filled in;
 *                          from_checkpoint marks restored jobs)
 *   failed                 terminal failure (error, timed_out)
 *
 * The log is a JSONL file, one event per line. append() assigns the
 * sequence number under the log's mutex, so `seq` runs 0, 1, 2, ... in
 * file order across every sweep written into one log (a harness such
 * as ablation runs several). Each line is flushed as it is written.
 *
 * The JSONL schema is stable and replayable: every field is emitted on
 * every line in a fixed order, and fromJson()/writeJsonLine() round-
 * trip byte-exactly (tests/sim/sweep_events_test.cc enforces this), so
 * downstream tooling can parse, transform and re-emit logs without
 * drift.
 */

#ifndef REST_SIM_SWEEP_EVENTS_HH
#define REST_SIM_SWEEP_EVENTS_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

namespace rest::util
{
struct JsonValue;
} // namespace rest::util

namespace rest::sim
{

enum class SweepEventKind
{
    SweepBegin,
    Queued,
    Running,
    Retrying,
    Done,
    Failed,
};

/** Stable wire name ("sweep-begin", "queued", ...). */
const char *sweepEventName(SweepEventKind kind);

/** Inverse of sweepEventName(); nullopt for unknown names. */
std::optional<SweepEventKind>
sweepEventFromName(const std::string &name);

struct SweepEvent
{
    /** Position in its log, from 0 (assigned by SweepEventLog). */
    std::uint64_t seq = 0;
    SweepEventKind kind = SweepEventKind::Queued;
    /** Sweep display name (SweepOptions::sweepName). */
    std::string sweep;
    /** Job submission index (0 for sweep-begin). */
    std::size_t job = 0;
    std::string bench;
    std::string label;
    /** Attempt number for running/retrying/done/failed (1-based). */
    unsigned attempt = 0;
    /** sweep-begin only. */
    std::size_t totalJobs = 0;
    unsigned threads = 0;
    bool fromCheckpoint = false;
    bool timedOut = false;
    /** Final attempt's wall time (done/failed). */
    double wallMs = 0.0;
    /** Simulated ops of a done job. */
    std::uint64_t ops = 0;
    /** Empty unless retrying/failed. */
    std::string error;

    /** One compact JSON object + '\n', every field, fixed key order. */
    void writeJsonLine(std::ostream &os) const;

    /** Parse one logged object; nullopt when the schema is violated. */
    static std::optional<SweepEvent>
    fromJson(const util::JsonValue &v);
};

/**
 * The --event-log sink: one JSONL line per event, flushed per line so
 * a killed sweep's log is complete up to the last event appended.
 * Thread-safe; several runners (one after another or concurrently)
 * may share one log.
 */
class SweepEventLog
{
  public:
    /** Opens (truncates) `path`; warns and disables itself on failure. */
    explicit SweepEventLog(const std::string &path);

    bool ok() const { return os_.is_open(); }

    /** Assign the next sequence number and write the event. */
    void append(SweepEvent event);

  private:
    std::ofstream os_;
    std::mutex mutex_;
    std::uint64_t next_seq_ = 0;
};

} // namespace rest::sim

#endif // REST_SIM_SWEEP_EVENTS_HH
