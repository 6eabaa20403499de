#include "sim/sweep.hh"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/checkpoint.hh"
#include "sim/sweep_events.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace rest::sim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     since)
        .count();
}

/** The column label the event log reports for a job (matches what the
 *  Measurement will carry). */
std::string
eventLabel(const SweepJob &job)
{
    if (!job.label.empty())
        return job.label;
    return job.useCustomConfig ? std::string("custom")
                               : expConfigName(job.config);
}

/** Start a lifecycle event for one job (the log assigns seq). */
SweepEvent
jobEvent(const SweepOptions &options, SweepEventKind kind,
         const SweepJob &job, std::size_t index)
{
    SweepEvent e;
    e.kind = kind;
    e.sweep = options.sweepName;
    e.job = index;
    e.bench = job.profile.name;
    e.label = eventLabel(job);
    return e;
}

Measurement
runJob(const SweepJob &job, std::size_t index)
{
    REST_DPRINTF(trace::Flag::Sweep, index, "sweep",
                 "job ", index, " start bench=", job.profile.name);
    Measurement m;
    if (job.useCustomConfig) {
        SystemConfig cfg = job.customConfig;
        // A non-default job-level mode wins; the default leaves
        // whatever the custom config already carries untouched.
        if (!job.exec.detailed())
            cfg.exec = job.exec;
        m = runCustom(job.profile, cfg,
                      job.label.empty() ? std::string("custom")
                                        : job.label);
    } else {
        m = runBench(job.profile, job.config, job.width, job.inorder,
                     job.exec);
        if (!job.label.empty())
            m.label = job.label;
    }
    REST_DPRINTF(trace::Flag::Sweep, index, "sweep",
                 "job ", index, " done bench=", m.bench, " label=",
                 m.label, " cycles=", m.cycles);
    return m;
}

/**
 * Watches in-flight jobs and warns (once per job) when one overruns
 * the soft timeout. Purely advisory — the attempt itself is judged
 * against the deadline by executeJob() once it finishes; the watchdog
 * exists so a wedged sweep tells the operator which job is stuck
 * while it is stuck, not an hour later.
 */
class Watchdog
{
  public:
    explicit Watchdog(std::uint64_t timeout_ms) : timeout_ms_(timeout_ms)
    {
        if (timeout_ms_ == 0)
            return;
        thread_ = std::thread([this] { loop(); });
    }

    ~Watchdog()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void
    jobStarted(std::size_t index)
    {
        if (timeout_ms_ == 0)
            return;
        std::lock_guard lock(mutex_);
        inflight_[index] = {Clock::now(), false};
    }

    void
    jobFinished(std::size_t index)
    {
        if (timeout_ms_ == 0)
            return;
        std::lock_guard lock(mutex_);
        inflight_.erase(index);
    }

  private:
    struct Inflight
    {
        Clock::time_point start;
        bool warned = false;
    };

    void
    loop()
    {
        const auto period = std::chrono::milliseconds(
            std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                           timeout_ms_ / 2, 200)));
        std::unique_lock lock(mutex_);
        while (!cv_.wait_for(lock, period,
                             [this] { return stopping_; })) {
            for (auto &[index, fl] : inflight_) {
                if (fl.warned ||
                    elapsedMs(fl.start) <= double(timeout_ms_))
                    continue;
                fl.warned = true;
                rest_warn("sweep job ", index,
                          " exceeded the soft timeout of ",
                          timeout_ms_, " ms and is still running");
            }
        }
    }

    const std::uint64_t timeout_ms_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::size_t, Inflight> inflight_;
    bool stopping_ = false;
    std::thread thread_;
};

/**
 * Serialises completed JobResults to the checkpoint file after every
 * completion. Thread-safe; whole-file rewrite, atomic on disk.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter(std::string path, std::size_t total_jobs)
        : path_(std::move(path))
    {
        ck_.totalJobs = total_jobs;
    }

    bool enabled() const { return !path_.empty(); }

    /** Record one finished (or restored) job and flush to disk. */
    void
    record(std::size_t index, const SweepJob &job, const JobResult &r,
           bool flush = true)
    {
        if (!enabled())
            return;
        std::lock_guard lock(mutex_);
        CheckpointEntry e;
        e.index = index;
        e.key = checkpointJobKey(job);
        e.ok = r.ok;
        e.timedOut = r.timedOut;
        e.attempts = r.attempts;
        e.starts = r.starts;
        e.wallMs = r.wallMs;
        e.error = r.error;
        if (r.ok)
            e.measurement = r.measurement;
        ck_.entries[index] = std::move(e);
        if (flush)
            ck_.save(path_);
    }

    void
    flush()
    {
        if (!enabled())
            return;
        std::lock_guard lock(mutex_);
        ck_.save(path_);
    }

  private:
    const std::string path_;
    std::mutex mutex_;
    SweepCheckpoint ck_;
};

} // namespace

SweepJob
makePresetJob(workload::BenchProfile profile, ExpConfig config,
              core::TokenWidth width, bool inorder)
{
    SweepJob job;
    job.profile = std::move(profile);
    job.config = config;
    job.width = width;
    job.inorder = inorder;
    return job;
}

SweepJob
makeCustomJob(workload::BenchProfile profile, const SystemConfig &cfg,
              std::string label)
{
    SweepJob job;
    job.profile = std::move(profile);
    job.useCustomConfig = true;
    job.customConfig = cfg;
    job.label = std::move(label);
    return job;
}

// ---------------------------------------------------------------------
// SweepFaultInjector
// ---------------------------------------------------------------------

std::optional<SweepFaultInjector>
SweepFaultInjector::parse(const std::string &spec)
{
    auto bad = [&spec]() -> std::optional<SweepFaultInjector> {
        rest_warn("bad fault-injection spec \"", spec,
                  "\" (want fail-once:IDX, fail-always:IDX, "
                  "fail-hard:IDX or slow:IDX:MS); ignoring it");
        return std::nullopt;
    };

    std::size_t colon = spec.find(':');
    if (colon == std::string::npos)
        return bad();
    const std::string name = spec.substr(0, colon);
    std::string rest = spec.substr(colon + 1);

    SweepFaultInjector inj;
    if (name == "fail-once")
        inj.mode = Mode::FailOnce;
    else if (name == "fail-always")
        inj.mode = Mode::FailAlways;
    else if (name == "fail-hard")
        inj.mode = Mode::FailHard;
    else if (name == "slow")
        inj.mode = Mode::Slow;
    else
        return bad();

    std::string ms;
    if (inj.mode == Mode::Slow) {
        std::size_t colon2 = rest.find(':');
        if (colon2 == std::string::npos)
            return bad();
        ms = rest.substr(colon2 + 1);
        rest = rest.substr(0, colon2);
    }

    auto parseU64 = [](const std::string &s, std::uint64_t *out) {
        if (s.empty() || s.find_first_not_of("0123456789") !=
                             std::string::npos)
            return false;
        *out = std::strtoull(s.c_str(), nullptr, 10);
        return true;
    };
    std::uint64_t index = 0;
    if (!parseU64(rest, &index))
        return bad();
    inj.jobIndex = std::size_t(index);
    if (inj.mode == Mode::Slow && !parseU64(ms, &inj.slowMs))
        return bad();
    return inj;
}

SweepFaultInjector
SweepFaultInjector::fromEnv()
{
    const char *env = std::getenv("REST_SWEEP_FAULT");
    if (!env || !*env)
        return {};
    return parse(env).value_or(SweepFaultInjector{});
}

void
SweepFaultInjector::inject(std::size_t job_index,
                           unsigned attempt) const
{
    if (!active() || job_index != jobIndex)
        return;
    switch (mode) {
      case Mode::FailOnce:
        if (attempt == 1)
            throw TransientJobError(
                "injected fault (fail-once) at job " +
                std::to_string(job_index));
        break;
      case Mode::FailAlways:
        throw TransientJobError("injected fault (fail-always) at job " +
                                std::to_string(job_index));
      case Mode::FailHard:
        throw std::runtime_error("injected fault (fail-hard) at job " +
                                 std::to_string(job_index));
      case Mode::Slow:
        if (attempt == 1)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slowMs));
        break;
      case Mode::None:
        break;
    }
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

SweepRunner::SweepRunner(unsigned num_threads, SweepOptions options)
    : num_threads_(std::max(1u, num_threads)),
      options_(std::move(options))
{}

JobResult
SweepRunner::executeJob(const SweepJob &job, std::size_t index,
                        unsigned prior_starts) const
{
    JobResult r;
    const unsigned max_attempts = 1 + options_.retries;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        r.attempts = attempt;
        r.starts = prior_starts + attempt;
        if (options_.eventLog) {
            SweepEvent e = jobEvent(options_, SweepEventKind::Running,
                                    job, index);
            e.attempt = attempt;
            options_.eventLog->append(std::move(e));
        }
        const auto t0 = Clock::now();
        bool transient = false;
        try {
            // rest_fatal inside the job (workload generators, the
            // instrumentation verifier) becomes util::FatalError here
            // instead of exiting the process.
            util::ScopedFatalThrow fatal_throws;
            options_.fault.inject(index, attempt);
            Measurement m = runJob(job, index);
            r.wallMs = elapsedMs(t0);
            if (options_.jobTimeoutMs == 0 ||
                r.wallMs <= double(options_.jobTimeoutMs)) {
                r.ok = true;
                r.timedOut = false;
                r.error.clear();
                r.measurement = std::move(m);
                if (options_.eventLog) {
                    SweepEvent e = jobEvent(
                        options_, SweepEventKind::Done, job, index);
                    e.attempt = attempt;
                    e.wallMs = r.wallMs;
                    e.ops = r.measurement.ops;
                    options_.eventLog->append(std::move(e));
                }
                return r;
            }
            // Completed, but over the soft deadline: the measurement
            // is discarded and the overrun treated as transient.
            r.timedOut = true;
            transient = true;
            r.error = "soft timeout: attempt took " +
                      std::to_string(std::uint64_t(r.wallMs)) +
                      " ms (budget " +
                      std::to_string(options_.jobTimeoutMs) + " ms)";
        } catch (const TransientJobError &e) {
            r.wallMs = elapsedMs(t0);
            r.timedOut = false;
            r.error = e.what();
            transient = true;
        } catch (const std::exception &e) {
            r.wallMs = elapsedMs(t0);
            r.timedOut = false;
            r.error = e.what();
        } catch (...) {
            r.wallMs = elapsedMs(t0);
            r.timedOut = false;
            r.error = "unknown exception";
        }

        rest_warn("sweep job ", index, " (", job.profile.name,
                  ") attempt ", attempt, "/", max_attempts,
                  " failed: ", r.error);
        const bool terminal = !transient || attempt == max_attempts;
        if (options_.eventLog) {
            SweepEvent e = jobEvent(options_,
                                    terminal ? SweepEventKind::Failed
                                             : SweepEventKind::Retrying,
                                    job, index);
            e.attempt = attempt;
            e.wallMs = r.wallMs;
            e.timedOut = r.timedOut;
            e.error = r.error;
            options_.eventLog->append(std::move(e));
        }
        if (terminal)
            return r;
        if (options_.backoffBaseMs) {
            std::uint64_t delay = std::min<std::uint64_t>(
                options_.backoffBaseMs << (attempt - 1), 10000);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
    return r; // unreachable; the loop always returns
}

std::vector<JobResult>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<JobResult> results(jobs.size());
    std::vector<unsigned> prior_starts(jobs.size(), 0);
    CheckpointWriter writer(options_.checkpointPath, jobs.size());

    if (options_.eventLog) {
        SweepEvent begin;
        begin.kind = SweepEventKind::SweepBegin;
        begin.sweep = options_.sweepName;
        begin.totalJobs = jobs.size();
        begin.threads = num_threads_;
        options_.eventLog->append(std::move(begin));
        for (std::size_t i = 0; i < jobs.size(); ++i)
            options_.eventLog->append(
                jobEvent(options_, SweepEventKind::Queued, jobs[i], i));
    }

    // Restore completed jobs from the resume file, if any.
    if (!options_.resumePath.empty()) {
        if (auto ck = SweepCheckpoint::load(options_.resumePath)) {
            std::size_t restored = 0;
            for (const auto &[index, entry] : ck->entries) {
                if (index >= jobs.size())
                    continue;
                if (entry.key != checkpointJobKey(jobs[index])) {
                    rest_warn("checkpoint entry ", index, " key \"",
                              entry.key, "\" does not match this "
                              "sweep; re-running the job");
                    continue;
                }
                prior_starts[index] = entry.starts;
                if (!entry.ok)
                    continue; // failed last time: execute again
                JobResult &r = results[index];
                r.ok = true;
                r.fromCheckpoint = true;
                r.attempts = entry.attempts;
                r.starts = entry.starts;
                r.wallMs = entry.wallMs;
                r.measurement = entry.measurement;
                writer.record(index, jobs[index], r, /*flush=*/false);
                ++restored;
                if (options_.eventLog) {
                    SweepEvent e = jobEvent(
                        options_, SweepEventKind::Done, jobs[index],
                        index);
                    e.attempt = r.attempts;
                    e.wallMs = r.wallMs;
                    e.ops = r.measurement.ops;
                    e.fromCheckpoint = true;
                    options_.eventLog->append(std::move(e));
                }
            }
            rest_inform("resumed ", restored, " of ", jobs.size(),
                        " sweep jobs from ", options_.resumePath);
        }
    }

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!results[i].fromCheckpoint)
            todo.push_back(i);

    Watchdog watchdog(options_.jobTimeoutMs);
    auto exec = [&](std::size_t i) {
        watchdog.jobStarted(i);
        results[i] = executeJob(jobs[i], i, prior_starts[i]);
        watchdog.jobFinished(i);
        writer.record(i, jobs[i], results[i]);
    };

    if (num_threads_ <= 1 || todo.size() <= 1) {
        for (std::size_t i : todo)
            exec(i);
    } else {
        util::ThreadPool pool(
            std::min<std::size_t>(num_threads_, todo.size()));
        for (std::size_t i : todo)
            pool.submit([&exec, i] { exec(i); });
        pool.wait();
    }

    // Ensure the file exists (and reflects restores) even when
    // everything was resumed and nothing executed.
    writer.flush();
    return results;
}

} // namespace rest::sim
