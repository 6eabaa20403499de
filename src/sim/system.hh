/**
 * @file
 * System: the paper's single-core evaluation machine. It is a 1-core
 * MultiCoreSystem (sim/multicore.hh, the one place a machine is wired
 * and run) that takes one program and reports the single-core
 * SystemResult; the per-core accessors default to its only core.
 */

#ifndef REST_SIM_SYSTEM_HH
#define REST_SIM_SYSTEM_HH

#include "sim/multicore.hh"

namespace rest::sim
{

/** Outcome of a System::run(). */
struct SystemResult
{
    cpu::RunResult run;
    runtime::InstrumentationSummary instrumentation;
    /** Run retired functionally (cycles are nominal, CPI == 1). */
    bool fastFunctional = false;
    /** Run was sampled; `run.cycles` is the extrapolated estimate
     *  and `sampling` carries the window/error breakdown. */
    bool sampled = false;
    SamplingEstimate sampling;
    std::uint64_t armsExecuted = 0;
    std::uint64_t disarmsExecuted = 0;
    std::uint64_t mallocCalls = 0;
    std::uint64_t freeCalls = 0;

    bool faulted() const { return run.faulted(); }
    Cycles cycles() const { return run.cycles; }
};

/** One simulated single-core machine. */
class System : public MultiCoreSystem
{
  public:
    /**
     * @param program un-instrumented program (copied, then finalised
     *        for the configured scheme).
     * @param cfg machine + scheme configuration.
     */
    System(isa::Program program, const SystemConfig &cfg);

    /** Run to completion / fault / op cap. */
    SystemResult run();

    const SystemConfig &config() const
    { return MultiCoreSystem::config().base; }
};

} // namespace rest::sim

#endif // REST_SIM_SYSTEM_HH
