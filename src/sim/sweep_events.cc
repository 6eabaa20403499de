#include "sim/sweep_events.hh"

#include "util/json_reader.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"

namespace rest::sim
{

const char *
sweepEventName(SweepEventKind kind)
{
    switch (kind) {
      case SweepEventKind::SweepBegin: return "sweep-begin";
      case SweepEventKind::Queued: return "queued";
      case SweepEventKind::Running: return "running";
      case SweepEventKind::Retrying: return "retrying";
      case SweepEventKind::Done: return "done";
      case SweepEventKind::Failed: return "failed";
    }
    rest_panic("bad SweepEventKind");
}

std::optional<SweepEventKind>
sweepEventFromName(const std::string &name)
{
    for (auto kind : {SweepEventKind::SweepBegin,
                      SweepEventKind::Queued, SweepEventKind::Running,
                      SweepEventKind::Retrying, SweepEventKind::Done,
                      SweepEventKind::Failed})
        if (name == sweepEventName(kind))
            return kind;
    return std::nullopt;
}

void
SweepEvent::writeJsonLine(std::ostream &os) const
{
    util::JsonWriter w(os, /*indent=*/0);
    w.beginObject();
    w.field("seq", seq);
    w.field("event", sweepEventName(kind));
    w.field("sweep", sweep);
    w.field("job", std::uint64_t(job));
    w.field("bench", bench);
    w.field("label", label);
    w.field("attempt", attempt);
    w.field("total_jobs", std::uint64_t(totalJobs));
    w.field("threads", threads);
    w.field("from_checkpoint", fromCheckpoint);
    w.field("timed_out", timedOut);
    w.field("wall_ms", wallMs);
    w.field("ops", ops);
    w.field("error", error);
    w.endObject();
    os << '\n';
}

std::optional<SweepEvent>
SweepEvent::fromJson(const util::JsonValue &v)
{
    using K = util::JsonValue;
    if (v.kind != K::Object)
        return std::nullopt;
    auto want = [&v](const char *key, K::Kind kind) {
        return v.has(key) && v.at(key).kind == kind;
    };
    if (!want("seq", K::Number) || !want("event", K::String) ||
        !want("sweep", K::String) || !want("job", K::Number) ||
        !want("bench", K::String) || !want("label", K::String) ||
        !want("attempt", K::Number) ||
        !want("total_jobs", K::Number) ||
        !want("threads", K::Number) ||
        !want("from_checkpoint", K::Bool) ||
        !want("timed_out", K::Bool) || !want("wall_ms", K::Number) ||
        !want("ops", K::Number) || !want("error", K::String))
        return std::nullopt;
    auto kind = sweepEventFromName(v.at("event").str);
    if (!kind)
        return std::nullopt;

    SweepEvent e;
    e.seq = v.at("seq").u64();
    e.kind = *kind;
    e.sweep = v.at("sweep").str;
    e.job = std::size_t(v.at("job").u64());
    e.bench = v.at("bench").str;
    e.label = v.at("label").str;
    e.attempt = unsigned(v.at("attempt").u64());
    e.totalJobs = std::size_t(v.at("total_jobs").u64());
    e.threads = unsigned(v.at("threads").u64());
    e.fromCheckpoint = v.at("from_checkpoint").boolean;
    e.timedOut = v.at("timed_out").boolean;
    e.wallMs = v.at("wall_ms").number;
    e.ops = v.at("ops").u64();
    e.error = v.at("error").str;
    return e;
}

SweepEventLog::SweepEventLog(const std::string &path) : os_(path)
{
    if (!os_.is_open())
        rest_warn("cannot open event log \"", path,
                  "\"; event logging disabled");
}

void
SweepEventLog::append(SweepEvent event)
{
    if (!os_.is_open())
        return;
    std::lock_guard lock(mutex_);
    event.seq = next_seq_++;
    event.writeJsonLine(os_);
    os_.flush();
}

} // namespace rest::sim
