/**
 * @file
 * Repository benchmark: simulator host speed and simulated protection
 * overheads, end to end and layer by layer.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 [--tiny]
 *   perfbench --selftest
 *
 * One single-threaded process runs one workload (see NOTES.md for why
 * each was chosen):
 *   spec_detailed    xalancbmk/lbm/sjeng on sim::System, detailed O3
 *   spec_functional  the same profiles in fast-functional mode
 *   server_4core     the Zipf server mix on a 4-core MultiCoreSystem
 *   attack_verdicts  the nine-scenario matrix for every registered
 *                    backend over many token seeds, plus the 4-core
 *                    concurrency matrix
 *
 * A workload is a fixed list of cells (program x scheme x machine).
 * One pass generates, builds and runs every cell; passes repeat until
 * --seconds have elapsed. Untraced host times take each cell's fastest
 * pass, traced ones the median pass. Every pass must reproduce the
 * first pass's simulated results exactly, so the simulated metrics are
 * deterministic per seed.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 prints the
 * per-layer metrics: each cell is run untraced, then again on a
 * machine assembled here from the same public parts as sim::System /
 * sim::MultiCoreSystem with timing decorators on the allocator and on
 * the memory devices below the L1s and below the L2. That machine must
 * reproduce the untraced run exactly. Per-op layers (emulator, O3
 * core) are timed by difference: the same emulator is drained alone
 * with nextBatch() on a second copy of the machine.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 */

#include <sys/resource.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rest_engine.hh"
#include "core/token.hh"
#include "cpu/o3_cpu.hh"
#include "isa/opcode.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/guest_memory.hh"
#include "mem/rest_l1_cache.hh"
#include "runtime/allocator.hh"
#include "runtime/protection_scheme.hh"
#include "sim/emulator.hh"
#include "sim/experiment.hh"
#include "sim/fast_functional.hh"
#include "sim/multicore.hh"
#include "sim/scheme_matrix.hh"
#include "sim/system.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/attack_scenarios.hh"
#include "workload/server_mix.hh"
#include "workload/spec_profiles.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace
{

using namespace rest;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * This thread's CPU time. Runs, set-up and passes are timed on it, so
 * time the host spends running other processes does not count: the
 * benchmark runs on shared machines. The decorators, which time short
 * calls many times, use the cheaper steady clock.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** splitmix64 finaliser: independent sub-seeds from one --seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Schemes
// ---------------------------------------------------------------------

/** The scheme configurations the metrics are named after. */
sim::SystemConfig
schemeConfig(const std::string &key)
{
    using sim::ExpConfig;
    if (key == "plain")
        return sim::makeSystemConfig(ExpConfig::Plain);
    if (key == "asan_opt") {
        // fig7's ASanOpt column: asan + elide + hoist + coalesce.
        sim::SystemConfig cfg = sim::makeSystemConfig(ExpConfig::Asan);
        cfg.scheme.elideRedundantChecks = true;
        cfg.scheme.hoistLoopChecks = true;
        cfg.scheme.coalesceChecks = true;
        return cfg;
    }
    if (key == "rest_secure")
        return sim::makeSystemConfig(ExpConfig::RestSecureFull);
    if (key == "rest_debug")
        return sim::makeSystemConfig(ExpConfig::RestDebugFull);
    sim::SystemConfig cfg;
    if (key == "mte")
        cfg.scheme = runtime::SchemeConfig::mte();
    else if (key == "pauth")
        cfg.scheme = runtime::SchemeConfig::pauth();
    else
        throw std::runtime_error("unknown scheme key " + key);
    return cfg;
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

enum class Source { Spec, Server, Attack, Concurrency };

/**
 * One simulation: a program set, a scheme and a machine. 'group'
 * pairs cells for the overhead metrics: "main" cells are timed and
 * paired; "speed" cells are timed only; "companion" cells run once per
 * untraced invocation, untimed, to give a workload the overheads its
 * timed cells do not; "attack" cells have no benign pairing.
 */
struct Cell
{
    std::string bench;
    std::string scheme;
    std::string group = "main";
    unsigned pairKey = 0; ///< cells with one pairKey share inputs
    Source source = Source::Spec;
    unsigned cores = 1;
    sim::SystemConfig cfg;
    workload::BenchProfile profile;
    workload::ServerMixConfig server;
    unsigned scenario = 0;
    std::uint64_t tokenSeed = 0;
};

/** The scenario matrix of sim::measureScheme(), rebuilt here so the
 *  benchmark can time generation, construction and run separately.
 *  Untraced runs check their verdicts against measureScheme(). */
constexpr std::uint32_t smallBuf = 64;
constexpr std::uint32_t uafBuf = 96;

isa::Program
attackProgram(unsigned scenario)
{
    namespace attacks = workload::attacks;
    switch (scenario) {
      case 0: return attacks::heapOverflowWrite(smallBuf, 32);
      case 1: return attacks::heapJumpOverRedzone(smallBuf, 4096, 2048);
      case 2: return attacks::pointerDiffJump(smallBuf, smallBuf);
      case 3: return attacks::rawPointerLoad(smallBuf);
      case 4: return attacks::useAfterFree(uafBuf);
      case 5: return attacks::useAfterRecycle(uafBuf, 80);
      case 6: return attacks::doubleFree(smallBuf);
      case 7: return attacks::stackOverflowWrite(smallBuf, 24);
      case 8: return attacks::heartbleed(smallBuf, 256);
    }
    throw std::runtime_error("bad attack scenario");
}

std::vector<isa::Program>
concurrencyPrograms(unsigned scenario, unsigned cores)
{
    namespace attacks = workload::attacks;
    std::vector<isa::Program> progs;
    switch (scenario) {
      case 0: progs = attacks::crossThreadUseAfterFree(uafBuf); break;
      case 1: progs = attacks::racyDoubleFree(uafBuf); break;
      case 2: progs = attacks::handoffThenOverflow(smallBuf, 32); break;
      default: throw std::runtime_error("bad concurrency scenario");
    }
    workload::ServerMixConfig filler;
    filler.cores = cores;
    filler.requestsPerCore = 8;
    filler.handoffEvery = 0;
    std::vector<isa::Program> handlers = workload::serverMix(filler);
    for (unsigned i = 2; i < cores; ++i)
        progs.push_back(std::move(handlers[i]));
    return progs;
}

std::vector<isa::Program>
makePrograms(const Cell &c)
{
    switch (c.source) {
      case Source::Spec: {
          std::vector<isa::Program> v;
          v.push_back(workload::generate(c.profile));
          return v;
      }
      case Source::Server:
        return workload::serverMix(c.server);
      case Source::Attack: {
          std::vector<isa::Program> v;
          v.push_back(attackProgram(c.scenario));
          return v;
      }
      case Source::Concurrency:
        return concurrencyPrograms(c.scenario, c.cores);
    }
    return {};
}

// ---------------------------------------------------------------------
// Simulated outcome of one cell
// ---------------------------------------------------------------------

struct Outcome
{
    Cycles cycles = 0;
    std::uint64_t ops = 0;
    std::array<std::uint64_t, isa::numOpSources> bySource{};
    std::vector<std::uint64_t> coreOps;
    std::vector<Cycles> coreCycles;
    bool faulted = false;
    unsigned faultCore = ~0u;
    Addr faultPc = 0;
    std::uint64_t faultSeq = 0;
    std::uint64_t arms = 0;
    std::uint64_t disarms = 0;
    std::uint64_t mallocs = 0;
    std::uint64_t frees = 0;
};

bool
sameSimulation(const Outcome &a, const Outcome &b)
{
    return a.cycles == b.cycles && a.ops == b.ops &&
           a.bySource == b.bySource && a.coreOps == b.coreOps &&
           a.coreCycles == b.coreCycles && a.faulted == b.faulted &&
           a.faultCore == b.faultCore && a.faultPc == b.faultPc &&
           a.faultSeq == b.faultSeq && a.arms == b.arms &&
           a.disarms == b.disarms && a.mallocs == b.mallocs &&
           a.frees == b.frees;
}

void
addCore(Outcome &o, const cpu::RunResult &r, unsigned core)
{
    o.coreOps.push_back(r.committedOps);
    o.coreCycles.push_back(r.cycles);
    o.ops += r.committedOps;
    o.cycles = std::max(o.cycles, r.cycles);
    for (unsigned s = 0; s < isa::numOpSources; ++s)
        o.bySource[s] += r.opsBySource[s];
    if (r.faulted() && !o.faulted) {
        o.faulted = true;
        o.faultCore = core;
        o.faultPc = r.violation.pc;
        o.faultSeq = r.violation.seq;
    }
}

/** Host seconds of one cell, split at the public-call boundaries. */
struct HostSplit
{
    double generate = 0.0;
    double build = 0.0;
    double run = 0.0;
};

/** The untraced run: sim::System (1 core) or sim::MultiCoreSystem. */
Outcome
runUntraced(const Cell &c, std::vector<isa::Program> progs, HostSplit &h)
{
    Outcome o;
    if (c.cores == 1) {
        double t0 = cpuSeconds();
        sim::System sys(std::move(progs.at(0)), c.cfg);
        h.build += (cpuSeconds() - t0);
        t0 = cpuSeconds();
        const sim::SystemResult r = sys.run();
        h.run += (cpuSeconds() - t0);
        addCore(o, r.run, 0);
        o.arms = r.armsExecuted;
        o.disarms = r.disarmsExecuted;
        o.mallocs = r.mallocCalls;
        o.frees = r.freeCalls;
        return o;
    }
    sim::MultiCoreConfig mc;
    mc.base = c.cfg;
    mc.cores = c.cores;
    double t0 = cpuSeconds();
    sim::MultiCoreSystem sys(std::move(progs), mc);
    h.build += (cpuSeconds() - t0);
    t0 = cpuSeconds();
    const sim::MultiCoreResult r = sys.run();
    h.run += (cpuSeconds() - t0);
    for (unsigned i = 0; i < r.cores.size(); ++i)
        addCore(o, r.cores[i], i);
    // The machine stops at its first fault; report the core it names.
    if (r.faulted()) {
        o.faultCore = r.faultCore;
        o.faultPc = r.violation().pc;
        o.faultSeq = r.violation().seq;
    }
    o.arms = r.armsExecuted;
    o.disarms = r.disarmsExecuted;
    o.mallocs = r.mallocCalls;
    o.frees = r.freeCalls;
    return o;
}

// ---------------------------------------------------------------------
// The traced machine
// ---------------------------------------------------------------------

/** Host-time accumulators filled by the decorators. */
struct Probes
{
    std::int64_t allocNs = 0;
    std::uint64_t allocCalls = 0;
    std::int64_t belowL1Ns = 0;
    std::uint64_t belowL1 = 0;
    std::int64_t belowL2Ns = 0;
    std::uint64_t belowL2 = 0;
};

/** Times every access a cache level sends to the level below. */
class TimedDevice : public mem::MemoryDevice
{
  public:
    TimedDevice(mem::MemoryDevice &below, std::int64_t &ns,
                std::uint64_t &count)
        : below_(below), ns_(ns), count_(count)
    {}

    Cycles
    access(Addr line_addr, bool is_write, Cycles now) override
    {
        const auto t0 = Clock::now();
        const Cycles done = below_.access(line_addr, is_write, now);
        ns_ += nsSince(t0);
        ++count_;
        return done;
    }

    void resetTiming() override { below_.resetTiming(); }

  private:
    mem::MemoryDevice &below_;
    std::int64_t &ns_;
    std::uint64_t &count_;
};

/** Times every malloc/free the emulator sends to the allocator. */
class TimedAllocator : public runtime::Allocator
{
  public:
    TimedAllocator(runtime::Allocator &inner, Probes &p)
        : inner_(inner), p_(p)
    {}

    Addr
    malloc(std::size_t size, runtime::OpEmitter &em) override
    {
        const auto t0 = Clock::now();
        const Addr a = inner_.malloc(size, em);
        p_.allocNs += nsSince(t0);
        ++p_.allocCalls;
        return a;
    }

    void
    free(Addr payload, runtime::OpEmitter &em) override
    {
        const auto t0 = Clock::now();
        inner_.free(payload, em);
        p_.allocNs += nsSince(t0);
        ++p_.allocCalls;
    }

    const char *name() const override { return inner_.name(); }
    std::size_t
    allocationSize(Addr payload) const override
    {
        return inner_.allocationSize(payload);
    }
    std::size_t
    liveAllocations() const override
    {
        return inner_.liveAllocations();
    }
    const runtime::HeapState &
    heapState() const override
    {
        return inner_.heapState();
    }

  private:
    runtime::Allocator &inner_;
    Probes &p_;
};

/**
 * sim::MultiCoreSystem's wiring (which for one core is sim::System's
 * detailed / fast-functional wiring), rebuilt from public parts with
 * the decorators above spliced in. Only the modes the workloads use
 * are supported: detailed O3 or fast-functional, no sampling, no
 * in-order core, no trace sink.
 */
class TracedMachine
{
  public:
    TracedMachine(std::vector<isa::Program> programs,
                  const sim::SystemConfig &cfg, unsigned cores,
                  Probes &probes, double &instrument_s)
        : cfg_(cfg), cores_(cores), rng_(cfg.tokenSeed), engine_(tcr_),
          dram_(cfg.dramConfig),
          belowL2_(dram_, probes.belowL2Ns, probes.belowL2),
          l2_(cfg.l2Config, belowL2_),
          belowL1_(l2_, probes.belowL1Ns, probes.belowL1),
          programs_(std::move(programs))
    {
        if (programs_.size() != cores_ || cfg_.exec.sampling.active() ||
            cfg_.useInOrderCpu || cfg_.trace.active())
            throw std::runtime_error("traced machine: unsupported config");
        tcr_.writePrivileged(
            core::TokenValue::generate(rng_, cfg_.tokenWidth), cfg_.mode);
        const runtime::ProtectionScheme &ps =
            runtime::schemeForConfig(cfg_.scheme);
        runtime::SchemeParts parts = ps.instantiate(
            {memory_, engine_, cfg_.scheme, cfg_.tokenSeed});
        inner_ = std::move(parts.allocator);
        allocator_ = std::make_unique<TimedAllocator>(*inner_, probes);
        if (cores_ > 1)
            bus_ = std::make_unique<mem::CoherenceBus>();

        for (unsigned i = 0; i < cores_; ++i) {
            const double t0 = cpuSeconds();
            instrumentation_.push_back(ps.instrument(
                programs_[i], cfg_.scheme, tcr_.granule()));
            instrument_s += (cpuSeconds() - t0);

            l1i_.push_back(
                std::make_unique<mem::Cache>(cfg_.l1iConfig, belowL1_));
            auto l1d = std::make_unique<mem::RestL1Cache>(
                cfg_.l1dConfig, belowL1_, memory_, tcr_);
            if (bus_) {
                l1d->attachBus(bus_.get());
                bus_->attach(*l1d);
            }
            l1d_.push_back(std::move(l1d));
            emulators_.push_back(std::make_unique<sim::Emulator>(
                programs_[i], memory_, engine_, *allocator_, cfg_.scheme,
                parts.policy,
                runtime::AddressMap::stackTop - Addr(i) * stackBytes));
            if (cfg_.exec.fastFunctional)
                fast_.push_back(
                    std::make_unique<sim::FastFunctional>(cfg_.mode));
            else
                o3_.push_back(std::make_unique<cpu::O3Cpu>(
                    cfg_.cpuConfig, cfg_.mode, *l1i_[i], *l1d_[i]));
        }
    }

    /** Run to completion: one unsliced call on one core, round-robin
     *  quanta on several (sim::MultiCoreSystem::run). */
    Outcome
    run()
    {
        std::vector<cpu::RunResult> acc(cores_);
        unsigned fault_core = ~0u;
        auto slice = [&](unsigned c, std::uint64_t ops) {
            const std::uint64_t before = acc[c].committedOps;
            const std::uint64_t want =
                std::min(ops, cfg_.maxOps - before);
            if (want == 0)
                return;
            const bool functional = !fast_.empty();
            const cpu::RunResult r =
                functional ? fast_[c]->run(*emulators_[c], want)
                           : o3_[c]->run(*emulators_[c], want);
            acc[c].committedOps += r.committedOps;
            for (unsigned s = 0; s < r.opsBySource.size(); ++s)
                acc[c].opsBySource[s] += r.opsBySource[s];
            acc[c].cycles =
                functional ? acc[c].cycles + r.cycles : r.cycles;
            if (r.faulted()) {
                acc[c].violation = r.violation;
                if (!functional)
                    acc[c].violation.seq += before;
                if (fault_core == ~0u)
                    fault_core = c;
            }
        };
        if (cores_ == 1) {
            slice(0, cfg_.maxOps);
        } else {
            bool active = true;
            while (active && fault_core == ~0u) {
                active = false;
                for (unsigned c = 0; c < cores_ && fault_core == ~0u;
                     ++c) {
                    if (emulators_[c]->halted() ||
                        acc[c].committedOps >= cfg_.maxOps)
                        continue;
                    active = true;
                    slice(c, quantumOps);
                }
            }
        }
        Outcome o;
        for (unsigned c = 0; c < cores_; ++c)
            addCore(o, acc[c], c);
        if (fault_core != ~0u) {
            o.faultCore = fault_core;
            o.faultPc = acc[fault_core].violation.pc;
            o.faultSeq = acc[fault_core].violation.seq;
        }
        o.arms = engine_.armsExecuted();
        o.disarms = engine_.disarmsExecuted();
        o.mallocs = inner_->heapState().mallocCalls;
        o.frees = inner_->heapState().freeCalls;
        return o;
    }

    /**
     * The emulators alone: drain every core with nextBatch() in the
     * same quanta run() interleaves them in, so each core produces the
     * op stream its timing model would consume. Returns ops per core.
     */
    std::vector<std::uint64_t>
    drain()
    {
        std::vector<std::uint64_t> ops(cores_, 0);
        std::vector<isa::DynOp> buf(sim::FastFunctional::batchOps);
        auto pull = [&](unsigned c, std::uint64_t max) {
            std::uint64_t got = 0;
            while (got < max && !emulators_[c]->halted()) {
                const std::size_t n = emulators_[c]->nextBatch(
                    buf.data(),
                    std::min<std::uint64_t>(buf.size(), max - got));
                got += n;
                if (n == 0)
                    break;
                if (buf[n - 1].fault != isa::FaultKind::None)
                    return std::make_pair(got, true);
            }
            return std::make_pair(got, false);
        };
        if (cores_ == 1) {
            ops[0] = pull(0, cfg_.maxOps).first;
            return ops;
        }
        bool active = true, faulted = false;
        while (active && !faulted) {
            active = false;
            for (unsigned c = 0; c < cores_ && !faulted; ++c) {
                if (emulators_[c]->halted() || ops[c] >= cfg_.maxOps)
                    continue;
                active = true;
                const auto [n, f] = pull(c, quantumOps);
                ops[c] += n;
                faulted = f;
            }
        }
        return ops;
    }

    /** Every component counter, summed over cores by name. */
    std::map<std::string, std::uint64_t>
    counters() const
    {
        std::map<std::string, std::uint64_t> out;
        auto add = [&out](const std::string &name, std::uint64_t v) {
            out[name] += v;
        };
        for (unsigned c = 0; c < cores_; ++c) {
            if (!o3_.empty())
                o3_[c]->statGroup().forEachScalar(add);
            else
                fast_[c]->statGroup().forEachScalar(add);
            l1i_[c]->statGroup().forEachScalar(add);
            l1d_[c]->statGroup().forEachScalar(add);
        }
        l2_.statGroup().forEachScalar(add);
        dram_.statGroup().forEachScalar(add);
        if (bus_)
            bus_->statGroup().forEachScalar(add);
        for (const auto &s : instrumentation_) {
            add("instr.checks_emitted", s.accessChecksInserted);
            add("instr.checks_elided", s.accessChecksElided);
            add("instr.checks_hoisted", s.accessChecksHoisted);
            add("instr.checks_coalesced", s.accessChecksCoalesced);
        }
        return out;
    }

  private:
    /** sim::MultiCoreConfig defaults. */
    static constexpr std::uint64_t quantumOps = 8192;
    static constexpr std::uint64_t stackBytes = std::uint64_t(1) << 20;

    sim::SystemConfig cfg_;
    unsigned cores_;
    mem::GuestMemory memory_;
    Xoshiro256ss rng_;
    core::TokenConfigRegister tcr_;
    core::RestEngine engine_;
    mem::Dram dram_;
    TimedDevice belowL2_;
    mem::Cache l2_;
    TimedDevice belowL1_;
    std::unique_ptr<mem::CoherenceBus> bus_;
    std::unique_ptr<runtime::Allocator> inner_;
    std::unique_ptr<TimedAllocator> allocator_;
    std::vector<isa::Program> programs_;
    std::vector<runtime::InstrumentationSummary> instrumentation_;
    std::vector<std::unique_ptr<mem::Cache>> l1i_;
    std::vector<std::unique_ptr<mem::RestL1Cache>> l1d_;
    std::vector<std::unique_ptr<sim::Emulator>> emulators_;
    std::vector<std::unique_ptr<cpu::O3Cpu>> o3_;
    std::vector<std::unique_ptr<sim::FastFunctional>> fast_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Work per cell. The defaults are the benchmark; tiny() is for the
 *  self-test. */
struct Sizes
{
    std::uint64_t detailedKInsts = 50;
    unsigned detailedSeeds = 4;
    std::uint64_t functionalKInsts = 300;
    unsigned functionalSeeds = 6;
    std::uint64_t serverRequests = 25;
    unsigned serverSeeds = 1;
    std::uint64_t serverOverheadRequests = 800;
    unsigned serverOverheadSeeds = 3;
    unsigned attackTokenSeeds = 8;
    std::uint64_t probeKInsts = 30;
    unsigned probeSeeds = 4;

    static Sizes
    tiny()
    {
        return {10, 1, 20, 1, 8, 1, 8, 1, 1, 10, 1};
    }
};

const std::vector<std::string> workloadNames = {
    "spec_detailed", "spec_functional", "server_4core",
    "attack_verdicts"};

const std::vector<std::string> specProfiles = {"xalancbmk", "lbm",
                                               "sjeng"};

/** Spec cells: profiles x profile seeds x schemes, in one mode. */
void
addSpecCells(std::vector<Cell> &cells, std::uint64_t seed,
             std::uint64_t kinsts, unsigned profile_seeds, bool functional,
             const std::vector<std::string> &schemes,
             const std::string &group)
{
    unsigned pair = 0;
    for (unsigned p = 0; p < specProfiles.size(); ++p) {
        for (unsigned k = 0; k < profile_seeds; ++k, ++pair) {
            workload::BenchProfile prof =
                workload::profileByName(specProfiles[p]);
            prof.targetKiloInsts = kinsts;
            prof.seed = mixSeed(seed, 100 + 16 * p + k);
            for (const std::string &s : schemes) {
                Cell c;
                c.bench = prof.name;
                c.scheme = s;
                c.group = group;
                c.pairKey = pair;
                c.source = Source::Spec;
                c.cfg = schemeConfig(s);
                c.cfg.tokenSeed = mixSeed(seed, 200 + pair);
                c.cfg.exec.fastFunctional = functional;
                c.profile = prof;
                cells.push_back(c);
            }
        }
    }
}

void
addServerCells(std::vector<Cell> &cells, std::uint64_t seed,
               std::uint64_t requests, unsigned mixes, bool functional,
               const std::vector<std::string> &schemes,
               const std::string &group)
{
    for (unsigned k = 0; k < mixes; ++k) {
        for (const std::string &s : schemes) {
            Cell c;
            c.bench = "server_mix";
            c.scheme = s;
            c.group = group;
            c.pairKey = k;
            c.source = Source::Server;
            c.cores = 4;
            c.cfg = schemeConfig(s);
            c.cfg.tokenSeed = mixSeed(seed, 300 + 2 * k);
            c.cfg.exec.fastFunctional = functional;
            c.server.cores = 4;
            c.server.requestsPerCore = requests;
            c.server.seed = mixSeed(seed, 301 + 2 * k);
            cells.push_back(c);
        }
    }
}

const std::vector<std::string> allSchemeKeys = {
    "plain", "asan_opt", "rest_secure", "rest_debug", "mte", "pauth"};

/** The cells of one workload. */
std::vector<Cell>
workloadCells(const std::string &w, std::uint64_t seed, const Sizes &sz)
{
    std::vector<Cell> cells;
    if (w == "spec_detailed") {
        addSpecCells(cells, seed, sz.detailedKInsts, sz.detailedSeeds,
                     false,
                     {"plain", "asan_opt", "rest_secure", "rest_debug"},
                     "main");
        // Op overheads of the two tagging backends: committed ops do
        // not depend on the execution mode.
        addSpecCells(cells, seed, sz.detailedKInsts, sz.detailedSeeds,
                     true, {"plain", "mte", "pauth"}, "companion");
    } else if (w == "spec_functional") {
        addSpecCells(cells, seed, sz.functionalKInsts,
                     sz.functionalSeeds, true, allSchemeKeys, "main");
    } else if (w == "server_4core") {
        // Host speed from one short mix, so each cell gets many passes;
        // overheads from long mixes, untimed: the rest_secure cycle
        // overhead is a timing effect that only settles over ~800
        // requests per core, and still moves ~9% from mix to mix.
        addServerCells(cells, seed, sz.serverRequests, sz.serverSeeds,
                       false,
                       {"plain", "rest_secure", "asan_opt", "rest_debug"},
                       "speed");
        addServerCells(cells, seed, sz.serverOverheadRequests,
                       sz.serverOverheadSeeds, false, allSchemeKeys,
                       "companion");
    } else if (w == "attack_verdicts") {
        for (unsigned t = 0; t < sz.attackTokenSeeds; ++t) {
            const std::uint64_t token = mixSeed(seed, 400 + t);
            for (const runtime::ProtectionScheme *ps :
                 runtime::allSchemes()) {
                for (unsigned i = 0; i < sim::attackScenarios().size();
                     ++i) {
                    Cell c;
                    c.bench = sim::attackScenarios()[i].key;
                    c.scheme = ps->id();
                    c.group = "attack";
                    c.source = Source::Attack;
                    c.scenario = i;
                    c.tokenSeed = token;
                    c.cfg.scheme = ps->baseConfig();
                    if (i == 5) // use-after-recycle: drain quarantine
                        c.cfg.scheme.quarantineBudget = 0;
                    c.cfg.tokenSeed = token;
                    c.cfg.exec.fastFunctional = true;
                    cells.push_back(c);
                }
                for (unsigned i = 0;
                     i < sim::concurrencyScenarios().size(); ++i) {
                    Cell c;
                    c.bench = sim::concurrencyScenarios()[i].key;
                    c.scheme = ps->id();
                    c.group = "attack";
                    c.source = Source::Concurrency;
                    c.scenario = i;
                    c.cores = 4;
                    c.tokenSeed = token;
                    c.cfg.scheme = ps->baseConfig();
                    c.cfg.tokenSeed = token;
                    cells.push_back(c);
                }
            }
        }
        // Table III's overhead column: a small detailed spec run per
        // scheme against plain.
        addSpecCells(cells, seed, sz.probeKInsts, sz.probeSeeds, false,
                     allSchemeKeys, "companion");
    } else {
        throw std::runtime_error("unknown workload " + w);
    }
    return cells;
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/** Verdicts of one scheme under one token seed, as measured. */
struct VerdictRow
{
    sim::SchemeVerdicts single;
    sim::ConcurrencyVerdicts concurrency;
};

using VerdictTable =
    std::map<std::pair<std::string, std::uint64_t>, VerdictRow>;

void
recordVerdict(VerdictTable &table, const Cell &c, bool faulted)
{
    VerdictRow &row = table[{c.scheme, c.tokenSeed}];
    row.single.scheme = row.concurrency.scheme = c.scheme;
    if (c.source == Source::Attack)
        row.single.*(sim::attackScenarios()[c.scenario].measured) =
            faulted;
    else
        row.concurrency.*(
            sim::concurrencyScenarios()[c.scenario].measured) = faulted;
}

/** Does a measured verdict row conform to the scheme's declaration? */
bool
rowConforms(const VerdictRow &row)
{
    const runtime::ProtectionScheme *ps =
        runtime::findScheme(row.single.scheme);
    if (ps == nullptr)
        return false;
    const runtime::DetectionProfile p = ps->declaredProfile();
    return sim::matchesProfile(row.single, p) &&
           sim::matchesConcurrencyProfile(row.concurrency, p);
}

bool
sameVerdicts(const sim::SchemeVerdicts &a, const sim::SchemeVerdicts &b)
{
    for (const sim::ScenarioInfo &s : sim::attackScenarios())
        if (a.*(s.measured) != b.*(s.measured))
            return false;
    return true;
}

bool
sameVerdicts(const sim::ConcurrencyVerdicts &a,
             const sim::ConcurrencyVerdicts &b)
{
    for (const sim::ConcurrencyScenarioInfo &s :
         sim::concurrencyScenarios())
        if (a.*(s.measured) != b.*(s.measured))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> endToEndMetrics = {
    {"kips", "kops/s"},
    {"verdicts_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_overhead_pct.asan_opt", "%"},
    {"sim_overhead_pct.rest_secure", "%"},
    {"sim_overhead_pct.rest_debug", "%"},
    {"extra_ops_pct.asan_opt", "%"},
    {"extra_ops_pct.rest", "%"},
    {"extra_ops_pct.mte", "%"},
    {"extra_ops_pct.pauth", "%"},
};

const std::vector<MetricDef> perLayerMetrics = {
    {"workload.generate_s", "s"},
    {"workload.server.ops_per_request", "ops"},
    {"workload.server.bus_txn_per_kop", "1/kop"},
    {"analysis.instrument_s", "s"},
    {"analysis.checks_emitted", "count"},
    {"analysis.checks_elided", "count"},
    {"analysis.checks_hoisted", "count"},
    {"analysis.checks_coalesced", "count"},
    {"runtime.alloc_calls", "count"},
    {"runtime.alloc_ns_per_call", "ns"},
    {"runtime.alloc_share_pct", "%"},
    {"runtime.ops.access_check", "count"},
    {"runtime.ops.stack_setup", "count"},
    {"runtime.ops.allocator", "count"},
    {"runtime.ops.interceptor", "count"},
    {"sim.emulator_ns_per_op", "ns"},
    {"sim.emulator_share_pct", "%"},
    {"sim.fastfunc_ns_per_op", "ns"},
    {"sim.fastfunc_share_pct", "%"},
    {"cpu.o3_ns_per_op", "ns"},
    {"cpu.o3_share_pct", "%"},
    {"cpu.cycles", "count"},
    {"cpu.rob_full_stall_cycles", "count"},
    {"cpu.iq_full_stall_cycles", "count"},
    {"cpu.sq_full_stall_cycles", "count"},
    {"cpu.rob_store_blocked_cycles", "count"},
    {"cpu.branch_mispredicts", "count"},
    {"mem.below_l1_accesses", "count"},
    {"mem.below_l1_ns_per_access", "ns"},
    {"mem.l2_share_pct", "%"},
    {"mem.dram_share_pct", "%"},
    {"mem.l1d.misses", "count"},
    {"mem.l2.misses", "count"},
    {"mem.l1d.token_fills", "count"},
    {"mem.l1d.token_evictions", "count"},
    {"mem.dram.reads", "count"},
    {"mem.dram.queue_cycles", "count"},
    {"mem.coherence_bus.invalidations", "count"},
    {"mem.coherence_bus.transfers", "count"},
    {"mem.coherence_bus.dirty_flushes", "count"},
    {"mem.l1d.token_coherence_flushes", "count"},
    {"core.arms", "count"},
    {"core.disarms", "count"},
    {"sim.build_s", "s"},
    {"sim.run_s", "s"},
    {"trace.untraced_run_s", "s"},
    {"trace.traced_run_s", "s"},
    {"trace.overhead_pct", "%"},
};

struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> errors;
    unsigned passes = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
            if (errors.size() < 20)
                errors.push_back(what);
        }
    }
};

std::string
cellName(const Cell &c)
{
    std::ostringstream os;
    os << c.bench << "/" << c.scheme << "/" << c.group << "#" << c.pairKey
       << "/tok" << c.tokenSeed;
    return os.str();
}

/** Weighted-mean overhead of 'scheme' over plain (paper footnote 5):
 *  sum(scheme)/sum(plain) - 1 over the cells of one group. */
bool
overheadPct(const std::vector<Cell> &cells,
            const std::vector<Outcome> &outs, const std::string &group,
            const std::string &scheme, bool use_cycles, double &pct)
{
    std::map<unsigned, double> plain, other;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].group != group)
            continue;
        const double v = use_cycles ? double(outs[i].cycles)
                                    : double(outs[i].ops);
        if (cells[i].scheme == "plain")
            plain[cells[i].pairKey] += v;
        else if (cells[i].scheme == scheme)
            other[cells[i].pairKey] += v;
    }
    if (plain.empty() || plain.size() != other.size())
        return false;
    double sp = 0, so = 0;
    for (const auto &[k, v] : plain) {
        if (!other.count(k))
            return false;
        sp += v;
        so += other[k];
    }
    if (sp <= 0)
        return false;
    pct = (so / sp - 1.0) * 100.0;
    return true;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** Run one cell on the traced machine; times go into 'split'. */
struct TracedSplit
{
    double generate = 0, instrument = 0, build = 0, run = 0;
    double drain = 0, drainAlloc = 0;
    Probes probes;
};

Outcome
runTraced(const Cell &c, std::vector<isa::Program> progs, TracedSplit &t,
          std::map<std::string, std::uint64_t> *counters,
          std::vector<std::uint64_t> *drained)
{
    double instrument = 0;
    double t0 = cpuSeconds();
    TracedMachine m(progs, c.cfg, c.cores, t.probes, instrument);
    t.build += (cpuSeconds() - t0) - instrument;
    t.instrument += instrument;
    t0 = cpuSeconds();
    Outcome o = m.run();
    t.run += (cpuSeconds() - t0);
    if (counters)
        *counters = m.counters();
    if (drained) {
        Probes dp;
        double unused = 0;
        TracedMachine d(std::move(progs), c.cfg, c.cores, dp, unused);
        t0 = cpuSeconds();
        *drained = d.drain();
        t.drain += (cpuSeconds() - t0);
        t.drainAlloc += dp.allocNs * 1e-9;
    }
    return o;
}

/** Run one workload. */
Result
runWorkload(const std::string &w, std::uint64_t seed, double seconds,
            bool trace, const Sizes &sz)
{
    util::ScopedFatalThrow fatal_throws;
    Result res;
    const std::vector<Cell> cells = workloadCells(w, seed, sz);
    std::vector<std::size_t> timed;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].group != "companion")
            timed.push_back(i);

    std::vector<Outcome> first(cells.size());
    std::vector<bool> have(cells.size(), false);
    VerdictTable verdicts;

    // Benign cells must not fault; every repeat must match the first.
    auto judge = [&](std::size_t i, const Outcome &o, const char *how) {
        const Cell &c = cells[i];
        bool ok = c.group == "attack" || !o.faulted;
        if (!have[i]) {
            first[i] = o;
            have[i] = true;
            if (c.group == "attack")
                recordVerdict(verdicts, c, o.faulted);
        } else {
            ok = ok && sameSimulation(first[i], o);
        }
        res.check(ok, std::string(how) + " " + cellName(c));
    };
    auto guarded = [&](std::size_t i, const std::function<void()> &fn) {
        try {
            fn();
        } catch (const std::exception &e) {
            res.check(false, cellName(cells[i]) + ": " + e.what());
        }
    };

    // Untraced host times: each cell's fastest pass. On a shared host
    // other tenants only ever slow a run down; the per-cell minimum
    // over the passes tracks the simulator, a per-pass median tracks
    // the neighbours.
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> best_setup(cells.size(), inf);
    std::vector<double> best_run(cells.size(), inf);
    std::vector<double> gen_s, instr_s, build_s, run_s,
        untraced_s, overhead, alloc_ns, emu_ns, ff_ns, o3_ns, below_ns;
    // Per traced pass: allocator, emulator, fast-functional loop, O3,
    // L2 and DRAM shares of the traced run time (they sum to 100).
    std::vector<std::array<double, 6>> shares;
    // One cell's component counters, and (tally) their sums over the
    // first traced pass.
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> tally;
    std::uint64_t alloc_calls = 0, below_l1 = 0;

    const auto start = Clock::now();
    unsigned passes = 0;
    do {
        HostSplit h;
        TracedSplit t;
        double det_run = 0, det_emu = 0, det_alloc = 0, det_below = 0;
        double ff_run = 0, ff_emu = 0, ff_alloc = 0;
        std::uint64_t det_ops = 0, ff_ops = 0;
        for (std::size_t i : timed) {
            const Cell &c = cells[i];
            guarded(i, [&] {
                HostSplit cell;
                const double g0 = cpuSeconds();
                std::vector<isa::Program> progs = makePrograms(c);
                cell.generate = cpuSeconds() - g0;
                if (!trace) {
                    judge(i, runUntraced(c, std::move(progs), cell),
                          "untraced");
                    best_setup[i] = std::min(best_setup[i],
                                             cell.generate + cell.build);
                    best_run[i] = std::min(best_run[i], cell.run);
                    return;
                }
                const Outcome u = runUntraced(c, progs, cell);
                h.generate += cell.generate;
                h.build += cell.build;
                h.run += cell.run;
                judge(i, u, "untraced");
                const TracedSplit prev = t;
                std::vector<std::uint64_t> drained;
                const Outcome o =
                    runTraced(c, std::move(progs), t,
                              passes == 0 ? &counters : nullptr,
                              &drained);
                res.check(sameSimulation(u, o),
                          "traced machine differs: " + cellName(c));
                if (!o.faulted)
                    res.check(drained == o.coreOps,
                              "emulator drain differs: " + cellName(c));
                if (passes == 0) {
                    for (const auto &[k, v] : counters)
                        tally[k] += double(v);
                    tally["ops.access_check"] += double(
                        o.bySource[unsigned(isa::OpSource::AccessCheck)]);
                    tally["ops.stack_setup"] += double(
                        o.bySource[unsigned(isa::OpSource::StackSetup)]);
                    tally["ops.allocator"] += double(
                        o.bySource[unsigned(isa::OpSource::Allocator)]);
                    tally["ops.interceptor"] += double(
                        o.bySource[unsigned(isa::OpSource::Interceptor)]);
                    tally["arms"] += double(o.arms);
                    tally["disarms"] += double(o.disarms);
                    if (c.source == Source::Server &&
                        c.scheme == "plain") {
                        tally["server.plain_ops"] += double(o.ops);
                        tally["server.requests"] += double(
                            c.server.cores * c.server.requestsPerCore);
                    }
                    if (c.source == Source::Server) {
                        tally["server.ops"] += double(o.ops);
                        tally["server.bus_txn"] += double(
                            counters["coherence_bus.bus_reads"] +
                            counters["coherence_bus.bus_readxs"] +
                            counters["coherence_bus.upgrades"]);
                    }
                }
                // Per-cell self times, by difference.
                const double run = t.run - prev.run;
                const double emu = (t.drain - prev.drain) -
                                   (t.drainAlloc - prev.drainAlloc);
                const double alloc =
                    (t.probes.allocNs - prev.probes.allocNs) * 1e-9;
                const double below =
                    (t.probes.belowL1Ns - prev.probes.belowL1Ns) * 1e-9;
                if (c.cfg.exec.fastFunctional) {
                    ff_run += run;
                    ff_emu += emu;
                    ff_alloc += alloc;
                    ff_ops += o.ops;
                } else {
                    det_run += run;
                    det_emu += emu;
                    det_alloc += alloc;
                    det_below += below;
                    det_ops += o.ops;
                }
            });
        }
        ++passes;
        if (!trace)
            continue;
        const double total = t.run;
        const double below_l2 = t.probes.belowL2Ns * 1e-9;
        const double below_all = t.probes.belowL1Ns * 1e-9;
        gen_s.push_back(h.generate);
        instr_s.push_back(t.instrument);
        build_s.push_back(t.build);
        run_s.push_back(total);
        untraced_s.push_back(h.run);
        overhead.push_back(h.run > 0 ? (total / h.run - 1.0) * 100.0 : 0);
        alloc_calls = t.probes.allocCalls;
        below_l1 = t.probes.belowL1;
        alloc_ns.push_back(alloc_calls ? t.probes.allocNs /
                                             double(alloc_calls)
                                       : 0.0);
        below_ns.push_back(below_l1 ? t.probes.belowL1Ns / double(below_l1)
                                    : 0.0);
        const double ops_all = double(det_ops + ff_ops);
        emu_ns.push_back(ops_all ? (det_emu + ff_emu) * 1e9 / ops_all : 0);
        ff_ns.push_back(ff_ops ? ff_run * 1e9 / double(ff_ops) : 0.0);
        const double o3_self = det_run - det_emu - det_alloc - det_below;
        o3_ns.push_back(det_ops ? o3_self * 1e9 / double(det_ops) : 0.0);
        const double ff_self = ff_run - ff_emu - ff_alloc;
        auto share = [total](double s) {
            return total > 0 ? 100.0 * s / total : 0.0;
        };
        shares.push_back({share(det_alloc + ff_alloc),
                          share(det_emu + ff_emu), share(ff_self),
                          share(o3_self), share(below_all - below_l2),
                          share(below_l2)});
    } while (secondsSince(start) < seconds);

    // Untimed: the companion cells, which give this workload the
    // overheads of schemes its timed loop does not run.
    if (!trace) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].group != "companion")
                continue;
            guarded(i, [&] {
                HostSplit h;
                judge(i, runUntraced(cells[i], makePrograms(cells[i]), h),
                      "companion");
            });
        }
    }

    // Attack verdicts: conformance to each scheme's declared profile,
    // and agreement with the library's own matrix on the first seed.
    for (const auto &[key, row] : verdicts) {
        res.check(rowConforms(row),
                  "nonconforming verdicts: " + key.first);
    }
    if (!trace && !verdicts.empty()) {
        const std::uint64_t tok = cells.front().tokenSeed;
        for (const runtime::ProtectionScheme *ps : runtime::allSchemes()) {
            const auto it = verdicts.find({ps->id(), tok});
            if (it == verdicts.end()) {
                res.check(false, std::string("no verdicts: ") + ps->id());
                continue;
            }
            const sim::SchemeVerdicts lib =
                sim::measureScheme(ps->baseConfig(), tok);
            const sim::ConcurrencyVerdicts lib_mc =
                sim::measureSchemeMulticore(ps->baseConfig(), 4, true,
                                            tok);
            res.check(sameVerdicts(lib, it->second.single) &&
                          sameVerdicts(lib_mc, it->second.concurrency),
                      std::string("verdicts differ from "
                                  "sim::measureScheme: ") +
                          ps->id());
        }
    }

    auto &m = res.metrics;
    if (!trace) {
        double ops_sum = 0, run_sum = 0, setup_sum = 0;
        for (std::size_t i : timed) {
            ops_sum += double(first[i].ops);
            run_sum += best_run[i];
            setup_sum += best_setup[i];
        }
        m["kips"] = ops_sum / run_sum / 1e3;
        m["verdicts_per_s"] = double(timed.size()) / (setup_sum + run_sum);
        m["setup_s"] = setup_sum;
        m["peak_rss_mb"] = peakRssMb();
        const char *cyc[][2] = {{"asan_opt", "asan_opt"},
                                {"rest_secure", "rest_secure"},
                                {"rest_debug", "rest_debug"}};
        const char *ops[][2] = {{"asan_opt", "asan_opt"},
                                {"rest", "rest_secure"},
                                {"mte", "mte"},
                                {"pauth", "pauth"}};
        auto fill = [&](const std::string &name, const char *scheme,
                        bool use_cycles) {
            double pct = 0;
            const bool ok =
                overheadPct(cells, first, "main", scheme, use_cycles,
                            pct) ||
                overheadPct(cells, first, "companion", scheme,
                            use_cycles, pct);
            res.check(ok, "no cells for " + name);
            m[name] = pct;
        };
        for (const auto &p : cyc)
            fill(std::string("sim_overhead_pct.") + p[0], p[1], true);
        for (const auto &p : ops)
            fill(std::string("extra_ops_pct.") + p[0], p[1], false);
    } else {
        auto pick = [&tally](const std::string &k) {
            const auto it = tally.find(k);
            return it == tally.end() ? 0.0 : it->second;
        };
        auto &out = m;
        out["workload.generate_s"] = median(gen_s);
        const double requests = pick("server.requests");
        out["workload.server.ops_per_request"] =
            requests > 0 ? pick("server.plain_ops") / requests : 0.0;
        const double server_kops = pick("server.ops") / 1e3;
        out["workload.server.bus_txn_per_kop"] =
            server_kops > 0 ? pick("server.bus_txn") / server_kops : 0.0;
        out["analysis.instrument_s"] = median(instr_s);
        out["analysis.checks_emitted"] = pick("instr.checks_emitted");
        out["analysis.checks_elided"] = pick("instr.checks_elided");
        out["analysis.checks_hoisted"] = pick("instr.checks_hoisted");
        out["analysis.checks_coalesced"] = pick("instr.checks_coalesced");
        out["runtime.alloc_calls"] = double(alloc_calls);
        out["runtime.alloc_ns_per_call"] = median(alloc_ns);
        // The shares of the median pass, so they still sum to 100.
        std::array<double, 6> mid{};
        if (!shares.empty()) {
            std::vector<std::size_t> order(shares.size());
            std::iota(order.begin(), order.end(), std::size_t(0));
            std::sort(order.begin(), order.end(),
                      [&run_s](std::size_t a, std::size_t b) {
                          return run_s[a] < run_s[b];
                      });
            mid = shares[order[(order.size() - 1) / 2]];
        }
        out["runtime.alloc_share_pct"] = mid[0];
        out["runtime.ops.access_check"] = pick("ops.access_check");
        out["runtime.ops.stack_setup"] = pick("ops.stack_setup");
        out["runtime.ops.allocator"] = pick("ops.allocator");
        out["runtime.ops.interceptor"] = pick("ops.interceptor");
        out["sim.emulator_ns_per_op"] = median(emu_ns);
        out["sim.emulator_share_pct"] = mid[1];
        out["sim.fastfunc_ns_per_op"] = median(ff_ns);
        out["sim.fastfunc_share_pct"] = mid[2];
        out["cpu.o3_ns_per_op"] = median(o3_ns);
        out["cpu.o3_share_pct"] = mid[3];
        out["cpu.cycles"] = pick("o3cpu.cycles");
        out["cpu.rob_full_stall_cycles"] = pick("o3cpu.rob_full_stall_cycles");
        out["cpu.iq_full_stall_cycles"] = pick("o3cpu.iq_full_stall_cycles");
        out["cpu.sq_full_stall_cycles"] = pick("o3cpu.sq_full_stall_cycles");
        out["cpu.rob_store_blocked_cycles"] =
            pick("o3cpu.rob_store_blocked_cycles");
        out["cpu.branch_mispredicts"] = pick("o3cpu.branch_mispredicts");
        out["mem.below_l1_accesses"] = double(below_l1);
        out["mem.below_l1_ns_per_access"] = median(below_ns);
        out["mem.l2_share_pct"] = mid[4];
        out["mem.dram_share_pct"] = mid[5];
        out["mem.l1d.misses"] = pick("l1d.misses");
        out["mem.l2.misses"] = pick("l2.misses");
        out["mem.l1d.token_fills"] = pick("l1d.token_fills");
        out["mem.l1d.token_evictions"] = pick("l1d.token_evictions");
        out["mem.dram.reads"] = pick("dram.reads");
        out["mem.dram.queue_cycles"] = pick("dram.queue_cycles");
        out["mem.coherence_bus.invalidations"] =
            pick("coherence_bus.invalidations");
        out["mem.coherence_bus.transfers"] =
            pick("coherence_bus.transfers");
        out["mem.coherence_bus.dirty_flushes"] =
            pick("coherence_bus.dirty_flushes");
        out["mem.l1d.token_coherence_flushes"] =
            pick("l1d.token_coherence_flushes");
        out["core.arms"] = pick("arms");
        out["core.disarms"] = pick("disarms");
        out["sim.build_s"] = median(build_s);
        out["sim.run_s"] = median(run_s);
        out["trace.untraced_run_s"] = median(untraced_s);
        out["trace.traced_run_s"] = median(run_s);
        out["trace.overhead_pct"] = median(overhead);
    }
    for (const auto &[name, v] : m)
        res.check(std::isfinite(v), "non-finite metric " + name);
    res.passes = passes;
    return res;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
resultJson(const Result &r, bool trace)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": "
       << r.failed << ", \"metrics\": {";
    bool firstm = true;
    for (const MetricDef &d : trace ? perLayerMetrics : endToEndMetrics) {
        const auto it = r.metrics.find(d.name);
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        os << (firstm ? "" : ", ") << "\"" << d.name
           << "\": {\"value\": " << v << ", \"unit\": \"" << d.unit
           << "\"}";
        firstm = false;
    }
    os << "}}";
    return os.str();
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2],
                    &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
fingerprintJson()
{
    std::ostringstream os;
    os << "{\"host\": {\"cpu_model\": \"" << cpuModel()
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << PERFBENCH_COMPILER
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}}";
    return os.str();
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

int
selfTest()
{
    int bad = 0;
    auto expect = [&bad](bool ok, const std::string &what) {
        if (!ok) {
            std::cerr << "selftest FAILED: " << what << "\n";
            ++bad;
        }
    };
    const std::regex name_re("^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$");
    for (const auto *list : {&endToEndMetrics, &perLayerMetrics})
        for (const MetricDef &d : *list)
            expect(std::regex_match(d.name, name_re),
                   std::string("bad metric name ") + d.name);

    // Every workload, tiny, both modes: correct, every metric present
    // and finite.
    for (const std::string &w : workloadNames) {
        for (bool trace : {false, true}) {
            const Result r = runWorkload(w, 7, 0.0, trace, Sizes::tiny());
            for (const std::string &e : r.errors)
                std::cerr << "  " << w << ": " << e << "\n";
            expect(r.correct && r.failed == 0 && r.attempted > 0,
                   w + " tiny run not correct");
            for (const MetricDef &d :
                 trace ? perLayerMetrics : endToEndMetrics)
                expect(r.metrics.count(d.name) != 0,
                       w + " missing metric " + d.name);
        }
    }

    // The output checks must reject wrong results.
    VerdictRow row;
    row.single = sim::measureScheme(
        runtime::findScheme("rest")->baseConfig(), 7);
    row.concurrency = sim::measureSchemeMulticore(
        runtime::findScheme("rest")->baseConfig(), 4, true, 7);
    expect(rowConforms(row), "rest verdicts do not conform");
    VerdictRow wrong = row;
    wrong.single.linearOverflow = !wrong.single.linearOverflow;
    expect(!rowConforms(wrong), "flipped spatial verdict accepted");
    wrong = row;
    wrong.concurrency.crossThreadUaf = !wrong.concurrency.crossThreadUaf;
    expect(!rowConforms(wrong), "flipped concurrency verdict accepted");
    expect(!sameVerdicts(row.single, wrong.single) ||
               !sameVerdicts(row.concurrency, wrong.concurrency),
           "verdict comparison blind to a flip");

    Outcome a;
    a.cycles = 100;
    a.ops = 50;
    Outcome b = a;
    expect(sameSimulation(a, b), "identical outcomes differ");
    b.cycles += 1;
    expect(!sameSimulation(a, b), "cycle difference accepted");
    b = a;
    b.faulted = true;
    expect(!sameSimulation(a, b), "verdict difference accepted");
    b = a;
    b.bySource[1] = 1;
    expect(!sameSimulation(a, b), "opsBySource difference accepted");

    std::cout << (bad ? "selftest: FAILED" : "selftest: ok") << "\n";
    return bad ? 1 : 0;
}

int
usage()
{
    std::cerr << "usage: perfbench --workload "
                 "{spec_detailed|spec_functional|server_4core|"
                 "attack_verdicts} --seed N --seconds S --trace 0|1 "
                 "[--tiny]\n"
                 "       perfbench --selftest\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string w;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    bool tiny = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " + a);
                return argv[++i];
            };
            if (a == "--selftest")
                return selfTest();
            if (a == "--workload")
                w = value();
            else if (a == "--seed")
                seed = std::stoull(value());
            else if (a == "--seconds")
                seconds = std::stod(value());
            else if (a == "--trace")
                trace = std::stoi(value());
            else if (a == "--tiny")
                tiny = true;
            else
                return usage();
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return usage();
    }
    if (std::find(workloadNames.begin(), workloadNames.end(), w) ==
            workloadNames.end() ||
        seconds < 0 || (trace != 0 && trace != 1))
        return usage();

    const Result r = runWorkload(w, seed, seconds, trace == 1,
                                 tiny ? Sizes::tiny() : Sizes{});
    for (const std::string &e : r.errors)
        std::cerr << "perfbench: check failed: " << e << "\n";
    std::cout << fingerprintJson() << "\n";
    std::cout << "{\"passes\": " << r.passes << "}\n";
    std::cout << resultJson(r, trace == 1) << std::endl;
    return 0;
}
