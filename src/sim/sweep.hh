/**
 * @file
 * SweepRunner: a fault-tolerant parallel experiment-sweep engine.
 *
 * A sweep is a list of SweepJobs — each one a pure function of
 * (profile, configuration, token width, seed). The runner executes the
 * jobs on a work-stealing thread pool (util::ThreadPool), one
 * sim::System per job, and returns per-job JobResults *in submission
 * order*, so successful measurements are bit-identical to running the
 * same jobs serially through runBench()/runCustom() regardless of
 * thread count or scheduling (tests/sim/sweep_test.cc proves the
 * invariance).
 *
 * Fault tolerance (SweepOptions): a job that throws — including a
 * rest_fatal from a workload generator or the instrumentation
 * verifier, converted to util::FatalError by a ScopedFatalThrow guard
 * around each attempt — is recorded as a failed JobResult instead of
 * killing the sweep. Failures classified transient (TransientJobError,
 * soft-timeout overruns) are retried up to `retries` extra attempts
 * with exponential backoff; everything else fails permanently on the
 * first attempt. A watchdog thread warns when a running job exceeds
 * the soft timeout (the attempt still runs to completion — jobs are
 * never killed mid-flight — but its result is discarded and the job
 * is retried or failed).
 *
 * Checkpointing: with `checkpointPath` set, every completed JobResult
 * is persisted (atomically, whole-file rewrite) so a killed sweep
 * loses nothing already measured; with `resumePath` set, jobs recorded
 * ok in that file are restored instead of re-executed. See
 * sim/checkpoint.hh for the file format.
 *
 * Deterministic fault injection (SweepFaultInjector, REST_SWEEP_FAULT)
 * makes every recovery path testable: fail-once / fail-always /
 * fail-hard / slow, selected by job submission index.
 */

#ifndef REST_SIM_SWEEP_HH
#define REST_SIM_SWEEP_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace rest::sim
{

class SweepEventLog;

/** One cell of a sweep: a benchmark run under one configuration. */
struct SweepJob
{
    workload::BenchProfile profile;

    // Preset path (the common case).
    ExpConfig config = ExpConfig::Plain;
    core::TokenWidth width = core::TokenWidth::Bytes64;
    bool inorder = false;

    /** When set, run customConfig via runCustom() instead of the
     *  preset — Figure 3 levels and the ablations need this. */
    bool useCustomConfig = false;
    SystemConfig customConfig;

    /** Execution mode for this cell. Applied to preset jobs directly;
     *  for custom jobs a non-default value overrides
     *  customConfig.exec (the default leaves customConfig alone). */
    ExecutionConfig exec;

    /** Column label recorded in the Measurement; defaults to
     *  expConfigName(config) when empty. */
    std::string label;
};

/** Convenience builders. */
SweepJob makePresetJob(workload::BenchProfile profile, ExpConfig config,
                       core::TokenWidth width =
                           core::TokenWidth::Bytes64,
                       bool inorder = false);
SweepJob makeCustomJob(workload::BenchProfile profile,
                       const SystemConfig &cfg, std::string label);

/**
 * A job failure the retry policy treats as transient (worth retrying):
 * injected faults and soft-timeout overruns. Deterministic failures —
 * bad configurations, contract violations — should NOT use this type;
 * they fail the job on the first attempt.
 */
class TransientJobError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Deterministic fault injection, keyed by job submission index, so
 * every recovery path of the runner (and of the figure harnesses
 * downstream) is exercisable from tests and CI.
 *
 * Spec syntax (flag --fault-inject or env REST_SWEEP_FAULT):
 *   fail-once:IDX     throw TransientJobError on attempt 1 of job IDX
 *   fail-always:IDX   throw TransientJobError on every attempt
 *   fail-hard:IDX     throw a permanent error (no retry) on job IDX
 *   slow:IDX:MS       sleep MS milliseconds on attempt 1 of job IDX
 *                     (drives the soft-timeout path)
 */
struct SweepFaultInjector
{
    enum class Mode { None, FailOnce, FailAlways, FailHard, Slow };

    Mode mode = Mode::None;
    std::size_t jobIndex = 0;
    std::uint64_t slowMs = 0;

    bool active() const { return mode != Mode::None; }

    /** Parse a spec string; nullopt (with a warning) on bad syntax. */
    static std::optional<SweepFaultInjector>
    parse(const std::string &spec);

    /** REST_SWEEP_FAULT, or an inactive injector when unset/bad. */
    static SweepFaultInjector fromEnv();

    /**
     * Called at the start of every attempt. May throw (fail modes) or
     * sleep (slow mode); does nothing for non-matching jobs.
     */
    void inject(std::size_t job_index, unsigned attempt) const;
};

/** Execution policy for one SweepRunner. */
struct SweepOptions
{
    /** Extra attempts after a transient failure (0 = no retry). */
    unsigned retries = 1;
    /** Exponential backoff base between attempts; attempt k sleeps
     *  backoffBaseMs << (k-1), capped at 10 s. 0 disables backoff. */
    std::uint64_t backoffBaseMs = 0;
    /** Soft per-job timeout. An attempt that finishes over budget is
     *  treated as a transient failure; 0 disables. */
    std::uint64_t jobTimeoutMs = 0;
    /** Persist completed JobResults to this file ("" = off). */
    std::string checkpointPath;
    /** Restore completed jobs from this file ("" = off). */
    std::string resumePath;
    SweepFaultInjector fault;

    // --- event log (DESIGN.md §12; off by default) --------------------
    /** Sweep display name carried on every logged event. */
    std::string sweepName;
    /** Lifecycle event log (nullptr = no events; the runner's output
     *  and results are byte-identical either way). */
    SweepEventLog *eventLog = nullptr;
};

/** The per-job outcome of a fault-tolerant sweep. */
struct JobResult
{
    bool ok = false;
    /** Restored from --resume instead of executed this process. */
    bool fromCheckpoint = false;
    /** Final attempt exceeded the soft timeout (implies !ok). */
    bool timedOut = false;
    /** Execution attempts that produced this result (including the
     *  checkpointed run's attempts for restored jobs). */
    unsigned attempts = 0;
    /** Total executions across checkpointed runs of this sweep:
     *  prior runs' starts plus this process's attempts. */
    unsigned starts = 0;
    /** Wall-clock time of the final attempt, milliseconds. */
    double wallMs = 0;
    /** Empty iff ok. */
    std::string error;
    /** Valid iff ok. Restored results carry the aggregate fields
     *  (bench/label/config/seed/cycles/ops/scalars) but not `detail`
     *  or `statSeries` — see sim/checkpoint.hh. */
    Measurement measurement;
};

class SweepRunner
{
  public:
    /**
     * @param num_threads worker threads; 0 or 1 runs the jobs inline
     *        on the calling thread (no pool is created).
     * @param options retry/timeout/checkpoint/fault-injection policy.
     */
    explicit SweepRunner(unsigned num_threads = 1,
                         SweepOptions options = {});

    unsigned numThreads() const { return num_threads_; }
    const SweepOptions &options() const { return options_; }

    /**
     * Run every job; the result vector is indexed like `jobs`
     * (submission order), independent of execution interleaving. Never
     * throws for job-level failures — inspect JobResult::ok.
     */
    std::vector<JobResult> run(const std::vector<SweepJob> &jobs) const;

  private:
    JobResult executeJob(const SweepJob &job, std::size_t index,
                         unsigned prior_starts) const;

    unsigned num_threads_;
    SweepOptions options_;
};

} // namespace rest::sim

#endif // REST_SIM_SWEEP_HH
