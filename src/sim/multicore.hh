/**
 * @file
 * MultiCoreSystem: the one place a simulated machine is wired and run.
 *
 * It assembles guest memory, the token configuration register + REST
 * engine, the DRAM/L2 hierarchy, the configured allocator, access
 * policy and instrumentation, and per core a private L1-I/L1-D pair
 * (the L1-D is the REST-modified cache, so token detection stays a
 * per-L1 fill-path property), a functional emulator and a timing CPU
 * (out-of-order or in-order) or the fast-functional driver.
 *
 * The 1-core machine is the paper's evaluation machine; sim::System
 * (sim/system.hh) is a thin facade over it. It attaches no bus, runs
 * its program in a single unsliced call, and alone supports sampled
 * execution and the per-run TraceSink.
 *
 * With N > 1 cores, every L1-D snoops one MESI CoherenceBus
 * (mem/coherence.hh) over the shared L2 and DRAM. Guest memory, the
 * token config register, the REST engine and the allocator are shared
 * machine-wide: core B touching a granule that core A's free() armed
 * traps exactly like a local dangling access, through the coherence
 * transfer of the token-bearing line. Each core runs its own guest
 * program (its "thread": a server request handler, an attack victim,
 * ...) on its own emulator with a disjoint stack slice. Execution
 * interleaves the cores round-robin in fixed op quanta on one host
 * thread — the per-core pipeline clocks (both timing models keep
 * their commit clock across run() calls) and the shared hierarchy
 * make the interleaving deterministic: same seed, same programs, same
 * schedule, byte-identical results.
 */

#ifndef REST_SIM_MULTICORE_HH
#define REST_SIM_MULTICORE_HH

#include <memory>
#include <vector>

#include "core/rest_engine.hh"
#include "core/token.hh"
#include "cpu/inorder_cpu.hh"
#include "cpu/o3_cpu.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/guest_memory.hh"
#include "mem/rest_l1_cache.hh"
#include "runtime/allocator.hh"
#include "runtime/instrumentation.hh"
#include "runtime/runtime_config.hh"
#include "sim/emulator.hh"
#include "sim/fast_functional.hh"
#include "sim/sampling.hh"
#include "util/trace.hh"

namespace rest::sim
{

/** Everything configurable about one single-core run; also the
 *  per-core base of a MultiCoreConfig. */
struct SystemConfig
{
    runtime::SchemeConfig scheme;
    core::RestMode mode = core::RestMode::Secure;
    core::TokenWidth tokenWidth = core::TokenWidth::Bytes64;
    bool useInOrderCpu = false;

    cpu::CpuConfig cpuConfig;
    cpu::InOrderConfig inorderConfig;
    mem::CacheConfig l1iConfig = mem::CacheConfig::l1i();
    mem::CacheConfig l1dConfig = mem::CacheConfig::l1d();
    mem::CacheConfig l2Config = mem::CacheConfig::l2();
    mem::DramConfig dramConfig;

    std::uint64_t maxOps = ~std::uint64_t(0);
    std::uint64_t tokenSeed = 0xc0ffee;

    /**
     * Execution mode: detailed (default), fast-functional, or
     * sampled (see sim/sampling.hh). The default takes exactly the
     * historical all-detailed code path.
     */
    ExecutionConfig exec;

    /**
     * Tracing/metrics for this machine. Default-constructed
     * (inactive) means no sink is created and run() costs nothing
     * extra.
     */
    trace::TraceConfig trace;
};

/** Configuration of one multicore machine. */
struct MultiCoreConfig
{
    /** Per-core machine + scheme configuration. Sampled execution
     *  and per-run tracing need cores == 1. `base.maxOps` caps each
     *  core individually. */
    SystemConfig base;
    /** Number of cores; must equal the number of programs. */
    unsigned cores = 1;
    /** Ops per round-robin scheduling slice (cores > 1 only). */
    std::uint64_t quantumOps = 8192;
    /** Stack bytes reserved per core below AddressMap::stackTop. */
    std::uint64_t perCoreStackBytes = std::uint64_t(1) << 20;
};

/** Outcome of one MultiCoreSystem::run(). */
struct MultiCoreResult
{
    /** Per-core timing results. cycles is that core's commit clock;
     *  committedOps its retirement count; violation.seq is core-local
     *  (the core's own retirement sequence). */
    std::vector<cpu::RunResult> cores;
    /** Index of the first faulting core in schedule order, or ~0u
     *  when the run retired cleanly. */
    unsigned faultCore = ~0u;
    /** Machine cycles: the slowest core's commit clock. */
    Cycles cycles = 0;
    /** Ops retired machine-wide (sum over cores). */
    std::uint64_t committedOps = 0;
    /** Run retired functionally (cycles are nominal, CPI == 1). */
    bool fastFunctional = false;
    /** Per-core instrumentation summaries (index == core). */
    std::vector<runtime::InstrumentationSummary> instrumentation;
    std::uint64_t armsExecuted = 0;
    std::uint64_t disarmsExecuted = 0;
    std::uint64_t mallocCalls = 0;
    std::uint64_t freeCalls = 0;

    bool faulted() const { return faultCore != ~0u; }

    /** The first (and only — the machine stops) violation. */
    const core::Violation &
    violation() const
    {
        return cores.at(faultCore).violation;
    }
};

/** One simulated N-core machine. */
class MultiCoreSystem
{
  public:
    /**
     * @param programs one un-instrumented program per core (each is
     *        copied, then finalised for the configured scheme).
     * @param cfg machine configuration; cfg.cores must match
     *        programs.size(). Invalid configs are rest_fatal.
     */
    MultiCoreSystem(std::vector<isa::Program> programs,
                    const MultiCoreConfig &cfg);

    /** Run all cores to completion / first fault / per-core op cap. */
    MultiCoreResult run();

    unsigned numCores() const { return cfg_.cores; }
    mem::GuestMemory &memory() { return memory_; }
    core::RestEngine &engine() { return engine_; }
    const core::TokenConfigRegister &tokenRegister() const
    { return tcr_; }
    runtime::Allocator &allocator() { return *allocator_; }
    Emulator &emulator(unsigned core = 0) { return *emulators_[core]; }
    mem::RestL1Cache &dcache(unsigned core = 0) { return *l1d_[core]; }
    mem::Cache &icache(unsigned core = 0) { return *l1i_[core]; }
    mem::Cache &l2cache() { return l2_; }
    mem::Dram &dram() { return dram_; }
    /** The snooping bus; nullptr on a 1-core machine. */
    mem::CoherenceBus *bus() { return bus_.get(); }
    /** One core's program, finalised for the configured scheme. */
    const isa::Program &program(unsigned core = 0) const
    { return programs_[core]; }
    const MultiCoreConfig &config() const { return cfg_; }

    /** Timing/functional stats of one core's model. */
    const stats::StatGroup &
    cpuStats(unsigned core = 0) const
    {
        return *statGroups_[3 * std::size_t(core)];
    }

    /** Dump all component stats (per-core models + shared levels). */
    void dumpStats(std::ostream &os) const;

    /** The per-run trace sink (nullptr when tracing is off). */
    trace::TraceSink *traceSink() { return traceSink_.get(); }

    /**
     * Periodic stat snapshots from every component group, merged by
     * cycle (all groups snapshot on the same statsTick boundaries).
     * Empty unless cfg.base.trace.statsEvery was set.
     */
    std::vector<stats::StatSnapshot> statSnapshots() const;

    /** The last sampled run's window/error breakdown. */
    const SamplingEstimate &sampling() const { return sampling_; }

  private:
    /** Run up to 'ops' more ops on 'core'; fold into res.cores. */
    void runSlice(unsigned core, std::uint64_t ops,
                  MultiCoreResult &res);
    /** The sampled-mode interleave on core 0: detailed O3 windows,
     *  functional fast-forward between them. */
    void runSampled(MultiCoreResult &res);

    MultiCoreConfig cfg_;
    mem::GuestMemory memory_;
    Xoshiro256ss rng_;
    core::TokenConfigRegister tcr_;
    core::RestEngine engine_;
    mem::Dram dram_;
    mem::Cache l2_;
    std::unique_ptr<mem::CoherenceBus> bus_;
    std::unique_ptr<runtime::Allocator> allocator_;
    /** Tag-check predicate for mte/pauth; owned by allocator_. */
    const runtime::AccessPolicy *policy_ = nullptr;
    std::vector<isa::Program> programs_;
    std::vector<runtime::InstrumentationSummary> instrumentation_;
    std::vector<std::unique_ptr<mem::Cache>> l1i_;
    std::vector<std::unique_ptr<mem::RestL1Cache>> l1d_;
    std::vector<std::unique_ptr<Emulator>> emulators_;
    std::vector<std::unique_ptr<cpu::O3Cpu>> o3_;
    std::vector<std::unique_ptr<cpu::InOrderCpu>> inorder_;
    std::vector<std::unique_ptr<FastFunctional>> fast_;
    /** Every component stat group, in dumpStats() order: per core
     *  its model (O3, in-order or functional), L1-I and L1-D; then
     *  the L2, DRAM and, with N > 1 cores, the bus. */
    std::vector<stats::StatGroup *> statGroups_;
    std::unique_ptr<trace::TraceSink> traceSink_;
    SamplingEstimate sampling_;
};

} // namespace rest::sim

#endif // REST_SIM_MULTICORE_HH
