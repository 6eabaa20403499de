/**
 * @file
 * MultiCoreSystem invariants (DESIGN.md §16):
 *
 *   - the System facade is the 1-core MultiCoreSystem: the same
 *     program and config give equal cycles/ops and identical L1-D and
 *     L2 counters whether built as a System (SystemConfig in,
 *     SystemResult out) or as a 1-core MultiCoreSystem;
 *   - the 1-core machine (the single-core System, the paper's
 *     evaluation machine) is pinned: for plain/asan/rest/mte/pauth in
 *     detailed, in-order, fast-functional and sampled mode, its
 *     cycles, retired ops, violation record and full stats dump match
 *     values recorded before System became a MultiCoreSystem facade;
 *   - an N-core run is deterministic: two fresh machines over the
 *     same config produce byte-identical results, including the full
 *     stats dump and — for the attack pairs — the same faulting core
 *     and violation record;
 *   - the round-robin quantum changes timing interleaving but never
 *     the architectural outcome of independent benign programs;
 *   - every invalid machine config is a rest_fatal, not an abort.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/multicore.hh"
#include "sim/system.hh"
#include "util/logging.hh"
#include "workload/attack_scenarios.hh"
#include "workload/server_mix.hh"
#include "workload/spec_profiles.hh"

namespace rest::sim
{

namespace
{

/** A small single-core benchmark program. */
isa::Program
benchProgram()
{
    workload::BenchProfile p = workload::specSuite().front();
    p.targetKiloInsts = 30;
    return workload::generate(p);
}

/** The 4-core server mix at test size. */
std::vector<isa::Program>
mix4()
{
    workload::ServerMixConfig wl;
    wl.cores = 4;
    wl.requestsPerCore = 12;
    return workload::serverMix(wl);
}

MultiCoreConfig
machineConfig(unsigned cores, const runtime::SchemeConfig &scheme,
              bool fast = false)
{
    MultiCoreConfig mc;
    mc.base.scheme = scheme;
    mc.base.exec.fastFunctional = fast;
    mc.cores = cores;
    return mc;
}

/** Full machine state fingerprint: every component's stat dump. */
std::string
statsDump(MultiCoreSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

/** 64-bit FNV-1a over a string. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** How the 1-core machine executes: the four execution modes. */
enum class Mode { Detailed, InOrder, FastFunctional, Sampled };

/** One pinned 1-core run and its outcome. */
struct PinnedRun
{
    /** Program: the heap-overflow attack, else the bench program. */
    bool overflow;
    /** Protection scheme: plain, asan, rest, mte or pauth. */
    const char *scheme;
    Mode mode;
    Cycles cycles;
    std::uint64_t ops;
    /** Violation::toString(), or "" for a clean run. */
    std::string violation;
    /** fnv1a() of the full dumpStats() text. */
    std::uint64_t statsDigest;
};

runtime::SchemeConfig
pinnedScheme(const std::string &name)
{
    if (name == "asan")
        return runtime::SchemeConfig::asanFull();
    if (name == "rest")
        return runtime::SchemeConfig::restFull();
    if (name == "mte")
        return runtime::SchemeConfig::mte();
    if (name == "pauth")
        return runtime::SchemeConfig::pauth();
    return runtime::SchemeConfig::plain();
}

/** Run one pinned configuration on a fresh System. */
PinnedRun
measurePinned(bool overflow, const char *scheme, Mode mode)
{
    SystemConfig cfg;
    cfg.scheme = pinnedScheme(scheme);
    cfg.useInOrderCpu = mode == Mode::InOrder;
    cfg.exec.fastFunctional = mode == Mode::FastFunctional;
    if (mode == Mode::Sampled) {
        // Short periods put the attack's faults both in a detailed
        // window (asan) and in a fast-forward gap (rest, mte).
        cfg.exec.sampling.warmupOps = 10;
        cfg.exec.sampling.windowOps = 40;
        cfg.exec.sampling.intervalOps = 60;
    }
    System sys(overflow ? workload::attacks::heapOverflowWrite(64, 64)
                        : benchProgram(),
               cfg);
    const SystemResult r = sys.run();
    return {overflow,
            scheme,
            mode,
            r.run.cycles,
            r.run.committedOps,
            r.faulted() ? r.run.violation.toString() : "",
            fnv1a(statsDump(sys))};
}

/** A PinnedRun in the table syntax of OneCoreMachineIsPinned. */
std::string
pinnedRow(const PinnedRun &p)
{
    static const char *const modes[] = {
        "Mode::Detailed", "Mode::InOrder", "Mode::FastFunctional",
        "Mode::Sampled"};
    std::ostringstream os;
    os << "{" << (p.overflow ? "true" : "false") << ", \"" << p.scheme
       << "\", " << modes[static_cast<int>(p.mode)] << ", " << p.cycles
       << ", " << p.ops << ", \"" << p.violation << "\", 0x" << std::hex
       << p.statsDigest << "ull},";
    return os.str();
}

} // namespace

TEST(MultiCore, OneCoreMachineMatchesSystemDetailed)
{
    // System maps SystemConfig into a 1-core MultiCoreConfig and
    // reshapes MultiCoreResult into SystemResult; both mappings must
    // be lossless.
    for (const runtime::SchemeConfig &scheme :
         {runtime::SchemeConfig::plain(),
          runtime::SchemeConfig::restFull(),
          runtime::SchemeConfig::asanFull()}) {
        isa::Program prog = benchProgram();

        SystemConfig sc;
        sc.scheme = scheme;
        System single(prog, sc);
        SystemResult sr = single.run();

        MultiCoreSystem multi({prog}, machineConfig(1, scheme));
        MultiCoreResult mr = multi.run();

        ASSERT_FALSE(sr.run.faulted()) << scheme.name();
        ASSERT_FALSE(mr.faulted()) << scheme.name();
        EXPECT_EQ(mr.cycles, sr.run.cycles) << scheme.name();
        EXPECT_EQ(mr.committedOps, sr.run.committedOps)
            << scheme.name();
        EXPECT_EQ(mr.cores[0].cycles, sr.run.cycles);
        EXPECT_EQ(nullptr, multi.bus());
        EXPECT_EQ(nullptr, single.bus());

        // The private hierarchy behaves identically: same L1-D and
        // L2 counters op for op.
        std::ostringstream a, b;
        single.dcache().statGroup().dump(a);
        multi.dcache(0).statGroup().dump(b);
        EXPECT_EQ(a.str(), b.str()) << scheme.name();
        std::ostringstream c, d;
        single.l2cache().statGroup().dump(c);
        multi.l2cache().statGroup().dump(d);
        EXPECT_EQ(c.str(), d.str()) << scheme.name();
    }
}

TEST(MultiCore, OneCoreMachineMatchesSystemFastFunctional)
{
    isa::Program prog = benchProgram();

    SystemConfig sc;
    sc.scheme = runtime::SchemeConfig::restFull();
    sc.exec.fastFunctional = true;
    System single(prog, sc);
    SystemResult sr = single.run();

    MultiCoreSystem multi(
        {prog},
        machineConfig(1, runtime::SchemeConfig::restFull(), true));
    MultiCoreResult mr = multi.run();

    ASSERT_FALSE(mr.faulted());
    ASSERT_FALSE(sr.run.faulted());
    EXPECT_TRUE(mr.fastFunctional);
    EXPECT_EQ(mr.cycles, sr.run.cycles);
    EXPECT_EQ(mr.committedOps, sr.run.committedOps);
}

TEST(MultiCore, OneCoreMachineIsPinned)
{
    // Expected values were recorded by running this body on the
    // commit before System became a 1-core MultiCoreSystem facade,
    // when System still wired and ran its own machine. They pin the
    // paper's single-core machine across that fold and every later
    // change: any drift in cycles, retired ops, the violation record
    // or any counter of the full stats dump fails here. A mismatch
    // prints the row as measured, in table syntax.
    static const PinnedRun pinned[] = {
        {false, "plain", Mode::Detailed, 43620, 29694,
         "", 0x49297e7d3eec767dull},
        {false, "plain", Mode::InOrder, 193345, 29694,
         "", 0xc0205b4990c87328ull},
        {false, "plain", Mode::FastFunctional, 29694, 29694,
         "", 0x45072100ad82d83bull},
        {false, "plain", Mode::Sampled, 136258, 29694,
         "", 0xf2040dba9ef713edull},
        {false, "asan", Mode::Detailed, 71174, 82748,
         "", 0xb9e9b0e93578a3ull},
        {false, "asan", Mode::InOrder, 253372, 82748,
         "", 0x5692e05604102208ull},
        {false, "asan", Mode::FastFunctional, 82748, 82748,
         "", 0xe794907fc36099f1ull},
        {false, "asan", Mode::Sampled, 238901, 82748,
         "", 0xf5d09aa15e1e9c73ull},
        {false, "rest", Mode::Detailed, 45423, 30386,
         "", 0xedfc5064f0823d63ull},
        {false, "rest", Mode::InOrder, 198930, 30386,
         "", 0xcbee5b48ac2ddec5ull},
        {false, "rest", Mode::FastFunctional, 30386, 30386,
         "", 0xc91a6bb9d0e729cull},
        {false, "rest", Mode::Sampled, 139660, 30386,
         "", 0xf7d4210da3ca7e9cull},
        {false, "mte", Mode::Detailed, 179778, 65570,
         "", 0x155a4a8c41795f37ull},
        {false, "mte", Mode::InOrder, 647543, 65570,
         "", 0xf53145aa06e3fb40ull},
        {false, "mte", Mode::FastFunctional, 65570, 65570,
         "", 0xf6e179ebef87f50aull},
        {false, "mte", Mode::Sampled, 256430, 65570,
         "", 0xf433ee1cf970cdf9ull},
        {false, "pauth", Mode::Detailed, 43693, 29710,
         "", 0x4785465dff8ece09ull},
        {false, "pauth", Mode::InOrder, 193359, 29710,
         "", 0x55a718e9e210c96eull},
        {false, "pauth", Mode::FastFunctional, 29710, 29710,
         "", 0x33076a3312a03292ull},
        {false, "pauth", Mode::Sampled, 136571, 29710,
         "", 0xdc08dcb1da14e8dcull},
        {true, "plain", Mode::Detailed, 691, 275,
         "", 0xc88d8e9a818f7cb5ull},
        {true, "plain", Mode::InOrder, 1473, 275,
         "", 0xce3db6999172e8d0ull},
        {true, "plain", Mode::FastFunctional, 275, 275,
         "", 0x7802553f59e8f2bbull},
        {true, "plain", Mode::Sampled, 529, 275,
         "", 0x8e4b23321ee74515ull},
        {true, "asan", Mode::Detailed, 1546, 153,
         "asan-check @addr=0xffffffffffffffff pc=0x40002c seq=152"
         " (precise, cycle 1546)",
         0xe61780c1a0b906d8ull},
        {true, "asan", Mode::InOrder, 1882, 153,
         "asan-check @addr=0xffffffffffffffff pc=0x40002c seq=152"
         " (precise, cycle 1882)",
         0xf8b474a344acc954ull},
        {true, "asan", Mode::FastFunctional, 153, 153,
         "asan-check @addr=0xffffffffffffffff pc=0x40002c seq=152"
         " (precise, cycle 153)",
         0x3f63b71f6acfadd1ull},
        {true, "asan", Mode::Sampled, 1887, 153,
         "asan-check @addr=0xffffffffffffffff pc=0x40002c seq=152"
         " (precise, cycle 25)",
         0xdcf257c697f11defull},
        {true, "rest", Mode::Detailed, 434, 57,
         "token-access @addr=0x20000080 pc=0x40001c seq=56"
         " (imprecise, cycle 434)",
         0x641de7dd5b995a08ull},
        {true, "rest", Mode::InOrder, 679, 57,
         "token-access @addr=0x20000080 pc=0x40001c seq=56"
         " (precise, cycle 679)",
         0x2931fbfe7853be1cull},
        {true, "rest", Mode::FastFunctional, 57, 57,
         "token-access @addr=0x20000080 pc=0x40001c seq=56"
         " (imprecise, cycle 57)",
         0x681d2a1fa7fd1653ull},
        {true, "rest", Mode::Sampled, 459, 57,
         "token-access @addr=0x20000080 pc=0x40001c seq=56"
         " (imprecise, cycle 7)",
         0x7e0bcefe95206087ull},
        {true, "mte", Mode::Detailed, 558, 59,
         "tag-mismatch @addr=0x20000040 pc=0x40001c seq=58"
         " (precise, cycle 558)",
         0xaa057667f343fe4cull},
        {true, "mte", Mode::InOrder, 581, 59,
         "tag-mismatch @addr=0x20000040 pc=0x40001c seq=58"
         " (precise, cycle 581)",
         0x484350f6eb1b9632ull},
        {true, "mte", Mode::FastFunctional, 59, 59,
         "tag-mismatch @addr=0x20000040 pc=0x40001c seq=58"
         " (precise, cycle 59)",
         0x5f6e66b43703a553ull},
        {true, "mte", Mode::Sampled, 618, 59,
         "tag-mismatch @addr=0x20000040 pc=0x40001c seq=58"
         " (precise, cycle 9)",
         0x9549c511c099a7c3ull},
        {true, "pauth", Mode::Detailed, 590, 279,
         "", 0x7a02ae45a726630full},
        {true, "pauth", Mode::InOrder, 1372, 279,
         "", 0xf2c4a37954bc15beull},
        {true, "pauth", Mode::FastFunctional, 279, 279,
         "", 0x1e651a9ace48e013ull},
        {true, "pauth", Mode::Sampled, 529, 279,
         "", 0xcfd208a2472709bbull},
    };
    for (const PinnedRun &want : pinned) {
        const PinnedRun got =
            measurePinned(want.overflow, want.scheme, want.mode);
        const bool same = got.cycles == want.cycles &&
                          got.ops == want.ops &&
                          got.violation == want.violation &&
                          got.statsDigest == want.statsDigest;
        EXPECT_TRUE(same) << "measured: " << pinnedRow(got);
    }
}

TEST(MultiCore, FourCoreServerMixIsByteIdenticallyDeterministic)
{
    const MultiCoreConfig mc =
        machineConfig(4, runtime::SchemeConfig::restFull());

    MultiCoreSystem a(mix4(), mc);
    MultiCoreResult ra = a.run();
    MultiCoreSystem b(mix4(), mc);
    MultiCoreResult rb = b.run();

    ASSERT_FALSE(ra.faulted());
    ASSERT_FALSE(rb.faulted());
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.committedOps, rb.committedOps);
    EXPECT_EQ(ra.armsExecuted, rb.armsExecuted);
    EXPECT_EQ(ra.mallocCalls, rb.mallocCalls);
    EXPECT_EQ(ra.freeCalls, rb.freeCalls);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(ra.cores[c].cycles, rb.cores[c].cycles) << c;
        EXPECT_EQ(ra.cores[c].committedOps, rb.cores[c].committedOps)
            << c;
    }
    // The whole machine, counter for counter.
    EXPECT_EQ(statsDump(a), statsDump(b));
    // And real sharing happened: the run is a coherence workload,
    // not four isolated cores.
    EXPECT_GT(ra.committedOps, 0u);
    ASSERT_NE(nullptr, a.bus());
}

TEST(MultiCore, FaultingRunIsDeterministic)
{
    const MultiCoreConfig mc =
        machineConfig(2, runtime::SchemeConfig::restFull());

    auto run_once = [&mc] {
        MultiCoreSystem sys(
            workload::attacks::crossThreadUseAfterFree(96), mc);
        return sys.run();
    };
    MultiCoreResult ra = run_once();
    MultiCoreResult rb = run_once();

    ASSERT_TRUE(ra.faulted());
    ASSERT_TRUE(rb.faulted());
    EXPECT_EQ(ra.faultCore, rb.faultCore);
    EXPECT_EQ(ra.violation().kind, rb.violation().kind);
    EXPECT_EQ(ra.violation().faultAddr, rb.violation().faultAddr);
    EXPECT_EQ(ra.violation().pc, rb.violation().pc);
    EXPECT_EQ(ra.violation().seq, rb.violation().seq);
    EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST(MultiCore, QuantumDoesNotChangeArchitecturalOutcome)
{
    // Benign independent handlers: any round-robin quantum must
    // retire the same ops and heap traffic (timing may differ — the
    // interleaving over the shared hierarchy changes — but the
    // architectural outcome may not).
    workload::ServerMixConfig wl;
    wl.cores = 2;
    wl.requestsPerCore = 8;
    wl.handoffEvery = 0; // no cross-core blocking: quanta independent

    MultiCoreResult base;
    bool first = true;
    for (std::uint64_t quantum : {std::uint64_t(512),
                                  std::uint64_t(8192)}) {
        MultiCoreConfig mc =
            machineConfig(2, runtime::SchemeConfig::restFull());
        mc.quantumOps = quantum;
        MultiCoreSystem sys(workload::serverMix(wl), mc);
        MultiCoreResult r = sys.run();
        ASSERT_FALSE(r.faulted()) << quantum;
        if (first) {
            base = r;
            first = false;
            continue;
        }
        EXPECT_EQ(base.committedOps, r.committedOps) << quantum;
        EXPECT_EQ(base.mallocCalls, r.mallocCalls) << quantum;
        EXPECT_EQ(base.freeCalls, r.freeCalls) << quantum;
        EXPECT_EQ(base.armsExecuted, r.armsExecuted) << quantum;
        for (unsigned c = 0; c < 2; ++c)
            EXPECT_EQ(base.cores[c].committedOps,
                      r.cores[c].committedOps)
                << quantum << " core " << c;
    }
}

TEST(MultiCore, InvalidConfigsAreFatal)
{
    // Every machine-config check is a rest_fatal, so a sweep cell
    // under ScopedFatalThrow fails alone instead of aborting the run.
    util::ScopedFatalThrow guard;
    auto build = [](std::vector<isa::Program> progs,
                    const MultiCoreConfig &mc) {
        MultiCoreSystem sys(std::move(progs), mc);
    };
    auto two = [] {
        return std::vector<isa::Program>{benchProgram(), benchProgram()};
    };
    const runtime::SchemeConfig plain = runtime::SchemeConfig::plain();

    EXPECT_THROW(build({}, machineConfig(0, plain)), util::FatalError);
    EXPECT_THROW(build({benchProgram()}, machineConfig(2, plain)),
                 util::FatalError);

    MultiCoreConfig no_quantum = machineConfig(2, plain);
    no_quantum.quantumOps = 0;
    EXPECT_THROW(build(two(), no_quantum), util::FatalError);

    MultiCoreConfig huge_stacks = machineConfig(2, plain);
    huge_stacks.perCoreStackBytes = runtime::AddressMap::stackTop / 2;
    EXPECT_THROW(build(two(), huge_stacks), util::FatalError);

    // Sampling: a valid geometry, the O3 core, not fast-functional,
    // and one core only.
    MultiCoreConfig sampled = machineConfig(1, plain);
    sampled.base.exec.sampling.warmupOps = 100;
    sampled.base.exec.sampling.windowOps = 100;
    sampled.base.exec.sampling.intervalOps = 1000;

    MultiCoreConfig bad_geometry = sampled;
    bad_geometry.base.exec.sampling.windowOps = 1000;
    EXPECT_THROW(build({benchProgram()}, bad_geometry), util::FatalError);

    MultiCoreConfig sampled_inorder = sampled;
    sampled_inorder.base.useInOrderCpu = true;
    EXPECT_THROW(build({benchProgram()}, sampled_inorder),
                 util::FatalError);

    MultiCoreConfig sampled_fast = sampled;
    sampled_fast.base.exec.fastFunctional = true;
    EXPECT_THROW(build({benchProgram()}, sampled_fast), util::FatalError);

    MultiCoreConfig sampled_two = sampled;
    sampled_two.cores = 2;
    EXPECT_THROW(build(two(), sampled_two), util::FatalError);

    // Per-run tracing: one core only.
    MultiCoreConfig traced_two = machineConfig(2, plain);
    traced_two.base.trace.statsEvery = 1000;
    EXPECT_THROW(build(two(), traced_two), util::FatalError);
}

} // namespace rest::sim
