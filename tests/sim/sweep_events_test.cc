/**
 * @file
 * The sweep event log end to end (DESIGN.md §12): lifecycle events in
 * the --event-log JSONL file (byte-exact round-trip, contiguous seq
 * across concurrent appends and across sweeps), and the per-job sweep
 * status rebuilt from the log alone over a faulty, resumed sweep.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "sim/sweep_events.hh"
#include "util/json_reader.hh"

namespace rest::sim
{

namespace
{

/** Cheap, distinguishable jobs, one per named benchmark. */
std::vector<SweepJob>
sweepOf(std::initializer_list<const char *> benches)
{
    std::vector<SweepJob> jobs;
    for (const char *bench : benches) {
        auto p = workload::profileByName(bench);
        p.targetKiloInsts = 10;
        jobs.push_back(makePresetJob(p, ExpConfig::Plain));
    }
    return jobs;
}

std::vector<SweepJob>
twoJobSweep()
{
    return sweepOf({"sjeng", "hmmer"});
}

std::string
tmpPath(const std::string &name)
{
    std::string path = ::testing::TempDir() + "rest_telemetry_" +
                       name + ".jsonl";
    std::remove(path.c_str());
    return path;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

util::JsonValue
parseJson(const std::string &text)
{
    util::JsonReader reader(text);
    util::JsonValue v = reader.parse();
    EXPECT_TRUE(reader.ok()) << text;
    return v;
}

/** Every event of a log file, parsed back in file order. */
std::vector<SweepEvent>
readEvents(const std::string &path)
{
    std::vector<SweepEvent> events;
    for (const auto &line : readLines(path)) {
        auto e = SweepEvent::fromJson(parseJson(line));
        EXPECT_TRUE(e.has_value()) << line;
        if (e)
            events.push_back(*e);
    }
    return events;
}

/** One job's state as a status view would show it. */
struct JobStatus
{
    std::string state;
    unsigned attempts = 0;
    bool fromCheckpoint = false;
    bool timedOut = false;
    std::uint64_t ops = 0;
    std::string error;
};

/** A sweep's status, rebuilt from its events alone. */
struct SweepStatus
{
    std::string sweep;
    std::size_t totalJobs = 0;
    unsigned threads = 0;
    std::vector<JobStatus> jobs;

    std::map<std::string, std::size_t>
    stateCounts() const
    {
        std::map<std::string, std::size_t> counts;
        for (const auto &j : jobs)
            ++counts[j.state];
        return counts;
    }
};

/** Replay a log: one SweepStatus per sweep-begin, in log order. */
std::vector<SweepStatus>
rebuildStatus(const std::vector<SweepEvent> &events)
{
    std::vector<SweepStatus> sweeps;
    for (const auto &e : events) {
        if (e.kind == SweepEventKind::SweepBegin) {
            SweepStatus s;
            s.sweep = e.sweep;
            s.totalJobs = e.totalJobs;
            s.threads = e.threads;
            s.jobs.resize(e.totalJobs);
            sweeps.push_back(std::move(s));
            continue;
        }
        EXPECT_FALSE(sweeps.empty()) << "event before sweep-begin";
        if (sweeps.empty() || e.job >= sweeps.back().jobs.size())
            continue;
        JobStatus &j = sweeps.back().jobs[e.job];
        j.state = sweepEventName(e.kind);
        if (e.kind == SweepEventKind::Queued)
            continue;
        j.attempts = e.attempt;
        j.fromCheckpoint = e.fromCheckpoint;
        j.timedOut = e.timedOut;
        j.ops = e.ops;
        j.error = e.error;
    }
    return sweeps;
}

/** The rebuilt status must say exactly what the runner returned. */
void
expectStatusMatches(const SweepStatus &status, const std::string &name,
                    unsigned threads,
                    const std::vector<JobResult> &results)
{
    SCOPED_TRACE("sweep " + name);
    EXPECT_EQ(status.sweep, name);
    EXPECT_EQ(status.totalJobs, results.size());
    EXPECT_EQ(status.threads, threads);
    ASSERT_EQ(status.jobs.size(), results.size());
    std::map<std::string, std::size_t> want_counts;
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const JobResult &r = results[i];
        const JobStatus &j = status.jobs[i];
        EXPECT_EQ(j.state, r.ok ? "done" : "failed");
        EXPECT_EQ(j.attempts, r.attempts);
        EXPECT_EQ(j.fromCheckpoint, r.fromCheckpoint);
        EXPECT_EQ(j.timedOut, r.timedOut);
        EXPECT_EQ(j.error, r.error);
        EXPECT_EQ(j.ops, r.ok ? r.measurement.ops : 0u);
        ++want_counts[j.state];
    }
    EXPECT_EQ(status.stateCounts(), want_counts);
}

} // namespace

// ---------------------------------------------------------------------
// The JSONL log
// ---------------------------------------------------------------------

TEST(SweepEvents, NamesRoundTrip)
{
    for (auto kind : {SweepEventKind::SweepBegin,
                      SweepEventKind::Queued, SweepEventKind::Running,
                      SweepEventKind::Retrying, SweepEventKind::Done,
                      SweepEventKind::Failed}) {
        auto back = sweepEventFromName(sweepEventName(kind));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(sweepEventFromName("exploded").has_value());
}

TEST(SweepEvents, LogAssignsContiguousSeqUnderConcurrentAppends)
{
    const std::string path = tmpPath("concurrent");
    {
        SweepEventLog log(path);
        ASSERT_TRUE(log.ok());
        std::vector<std::thread> writers;
        for (std::size_t t = 0; t < 4; ++t) {
            writers.emplace_back([&log, t] {
                for (std::size_t i = 0; i < 50; ++i) {
                    SweepEvent e;
                    e.job = t * 50 + i;
                    log.append(e);
                }
            });
        }
        for (auto &w : writers)
            w.join();
    }

    // One whole line per event, seq 0..199 in file order, each event
    // logged exactly once.
    const auto events = readEvents(path);
    ASSERT_EQ(events.size(), 200u);
    std::vector<bool> seen(200, false);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i);
        ASSERT_LT(events[i].job, seen.size());
        EXPECT_FALSE(seen[events[i].job]);
        seen[events[i].job] = true;
    }
}

TEST(SweepTelemetry, EventLogIsReplayableByteExactly)
{
    const std::string path = tmpPath("event_log");
    SweepEventLog log(path);
    ASSERT_TRUE(log.ok());

    SweepOptions opts;
    opts.sweepName = "unit";
    opts.eventLog = &log;
    const auto jobs = twoJobSweep();
    const auto results = SweepRunner(1, opts).run(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[1].ok);

    const auto lines = readLines(path);
    // sweep-begin + 2 queued + 2 running + 2 done.
    ASSERT_EQ(lines.size(), 7u);

    for (std::size_t i = 0; i < lines.size(); ++i) {
        util::JsonValue v = parseJson(lines[i]);
        auto event = SweepEvent::fromJson(v);
        ASSERT_TRUE(event.has_value()) << lines[i];
        // Sequence numbers are monotonic in file order.
        EXPECT_EQ(event->seq, i);
        EXPECT_EQ(event->sweep, "unit");
        // Byte-exact replay: parse -> re-serialise reproduces the
        // logged line exactly.
        std::ostringstream os;
        event->writeJsonLine(os);
        EXPECT_EQ(os.str(), lines[i] + "\n");
    }

    // The lifecycle shape: begin first (with the totals), then both
    // queued events, then running/done per job in submission order.
    std::vector<SweepEvent> events;
    for (const auto &l : lines)
        events.push_back(*SweepEvent::fromJson(parseJson(l)));
    EXPECT_EQ(events[0].kind, SweepEventKind::SweepBegin);
    EXPECT_EQ(events[0].totalJobs, 2u);
    EXPECT_EQ(events[0].threads, 1u);
    EXPECT_EQ(events[1].kind, SweepEventKind::Queued);
    EXPECT_EQ(events[2].kind, SweepEventKind::Queued);
    std::size_t done_seen = 0;
    for (const auto &e : events) {
        if (e.kind != SweepEventKind::Done)
            continue;
        ++done_seen;
        EXPECT_EQ(e.attempt, 1u);
        EXPECT_GT(e.ops, 0u);
        EXPECT_FALSE(e.fromCheckpoint);
    }
    EXPECT_EQ(done_seen, 2u);
}

TEST(SweepTelemetry, RetryLifecycleShowsInEvents)
{
    const std::string path = tmpPath("retry");
    SweepEventLog log(path);

    SweepOptions opts;
    opts.sweepName = "retry";
    opts.eventLog = &log;
    opts.retries = 1;
    opts.fault = SweepFaultInjector::parse("fail-once:0").value();
    const auto results = SweepRunner(1, opts).run(twoJobSweep());
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 2u);

    const auto events = readEvents(path);

    std::vector<SweepEventKind> job0;
    for (const auto &e : events)
        if (e.kind != SweepEventKind::SweepBegin && e.job == 0)
            job0.push_back(e.kind);
    EXPECT_EQ(job0, (std::vector<SweepEventKind>{
                        SweepEventKind::Queued, SweepEventKind::Running,
                        SweepEventKind::Retrying,
                        SweepEventKind::Running, SweepEventKind::Done}));
}

TEST(SweepTelemetry, FromJsonRejectsSchemaViolations)
{
    // A well-formed line...
    SweepEvent e;
    e.kind = SweepEventKind::Done;
    std::ostringstream os;
    e.writeJsonLine(os);
    ASSERT_TRUE(
        SweepEvent::fromJson(parseJson(os.str())).has_value());
    // ...but unknown event names and missing fields are rejected.
    EXPECT_FALSE(SweepEvent::fromJson(
                     parseJson("{\"seq\": 0, \"event\": \"nope\"}"))
                     .has_value());
    EXPECT_FALSE(
        SweepEvent::fromJson(parseJson("{\"seq\": 0}")).has_value());
    EXPECT_FALSE(
        SweepEvent::fromJson(parseJson("[1, 2]")).has_value());
}

// ---------------------------------------------------------------------
// Sweep status rebuilt from the log
// ---------------------------------------------------------------------

TEST(SweepTelemetry, LogRebuildsStatusOfFaultyResumedSweeps)
{
    const auto jobs = sweepOf({"sjeng", "hmmer", "lbm"});
    const std::string path = tmpPath("status");
    const std::string ck = tmpPath("status_ck");
    SweepEventLog log(path);
    ASSERT_TRUE(log.ok());

    // Sweep 1: job 2 fails for good; jobs 0 and 1 complete and are
    // checkpointed.
    SweepOptions first;
    first.sweepName = "first";
    first.eventLog = &log;
    first.retries = 1;
    first.checkpointPath = ck;
    first.fault = SweepFaultInjector::parse("fail-hard:2").value();
    const auto r1 = SweepRunner(2, first).run(jobs);
    ASSERT_FALSE(r1[2].ok);
    EXPECT_EQ(r1[2].attempts, 1u);

    // Sweep 2, same log: jobs 0 and 1 are restored from the
    // checkpoint, job 2 fails once and succeeds on its retry.
    SweepOptions second = first;
    second.sweepName = "resumed";
    second.resumePath = ck;
    second.fault = SweepFaultInjector::parse("fail-once:2").value();
    const auto r2 = SweepRunner(2, second).run(jobs);
    ASSERT_TRUE(r2[0].fromCheckpoint && r2[1].fromCheckpoint);
    ASSERT_TRUE(r2[2].ok);
    EXPECT_EQ(r2[2].attempts, 2u);

    // seq is contiguous across both sweeps in one log.
    const auto events = readEvents(path);
    ASSERT_FALSE(events.empty());
    std::size_t begins = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i);
        if (events[i].kind != SweepEventKind::SweepBegin)
            continue;
        EXPECT_EQ(events[i].sweep, begins++ ? "resumed" : "first");
    }
    EXPECT_EQ(begins, 2u);

    // What a live status view reported, rebuilt from the log alone,
    // equals the runner's JobResults.
    const auto status = rebuildStatus(events);
    ASSERT_EQ(status.size(), 2u);
    expectStatusMatches(status[0], "first", 2, r1);
    expectStatusMatches(status[1], "resumed", 2, r2);
    EXPECT_EQ(status[1].stateCounts(),
              (std::map<std::string, std::size_t>{{"done", 3}}));
    EXPECT_EQ(status[0].stateCounts(),
              (std::map<std::string, std::size_t>{{"done", 2},
                                                  {"failed", 1}}));
    std::remove(ck.c_str());
}

// ---------------------------------------------------------------------
// Byte-identity with the event log off
// ---------------------------------------------------------------------

TEST(SweepTelemetry, ResultsIdenticalWithAndWithoutTelemetry)
{
    const auto jobs = twoJobSweep();

    SweepOptions plain_opts;
    const auto plain = SweepRunner(1, plain_opts).run(jobs);

    const std::string path = tmpPath("identity");
    SweepEventLog log(path);
    SweepOptions log_opts;
    log_opts.sweepName = "identity";
    log_opts.eventLog = &log;
    const auto observed = SweepRunner(2, log_opts).run(jobs);

    ASSERT_EQ(plain.size(), observed.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].ok, observed[i].ok);
        EXPECT_EQ(plain[i].attempts, observed[i].attempts);
        EXPECT_EQ(plain[i].measurement.cycles,
                  observed[i].measurement.cycles);
        EXPECT_EQ(plain[i].measurement.ops,
                  observed[i].measurement.ops);
    }
}

} // namespace rest::sim
