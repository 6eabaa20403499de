#include "sim/multicore.hh"

#include <algorithm>
#include <map>

#include "runtime/protection_scheme.hh"
#include "util/logging.hh"

namespace rest::sim
{

namespace
{

/**
 * Fold one run() segment of 'core' into its running total — a
 * round-robin quantum, a sampled window or a fast-forward gap alike.
 * A timing model's violation.seq is local to its run() call, so it is
 * offset by the ops the core retired before the segment; the
 * functional driver already reports the emulator's global sequence
 * number. The timing models keep their commit clock across run()
 * calls, so their r.cycles is already the core's cumulative clock;
 * the functional driver reports per-call nominal cycles (== ops).
 */
void
fold(MultiCoreResult &res, unsigned core, const cpu::RunResult &r,
     bool functional)
{
    cpu::RunResult &acc = res.cores[core];
    if (r.faulted()) {
        acc.violation = r.violation;
        if (!functional)
            acc.violation.seq += acc.committedOps;
        if (!res.faulted())
            res.faultCore = core;
    }
    acc.committedOps += r.committedOps;
    for (unsigned s = 0; s < r.opsBySource.size(); ++s)
        acc.opsBySource[s] += r.opsBySource[s];
    acc.cycles = functional ? acc.cycles + r.cycles : r.cycles;
}

} // namespace

MultiCoreSystem::MultiCoreSystem(std::vector<isa::Program> programs,
                                 const MultiCoreConfig &cfg)
    : cfg_(cfg), rng_(cfg.base.tokenSeed), engine_(tcr_),
      dram_(cfg.base.dramConfig), l2_(cfg.base.l2Config, dram_),
      programs_(std::move(programs))
{
    const SystemConfig &base = cfg_.base;
    const SamplingConfig &sc = base.exec.sampling;
    if (cfg_.cores < 1)
        rest_fatal("multicore machine needs >= 1 core");
    if (programs_.size() != cfg_.cores)
        rest_fatal("need exactly one program per core");
    if (cfg_.quantumOps == 0)
        rest_fatal("scheduling quantum must be > 0");
    // Stacks are carved downward from the historical single-core
    // stack top; they must not reach down into the heap segment
    // (cores * perCoreStackBytes < stackTop - heapBase, overflow-free).
    if (cfg_.perCoreStackBytes >
        (runtime::AddressMap::stackTop - runtime::AddressMap::heapBase -
         1) / cfg_.cores)
        rest_fatal("per-core stacks would overlap the heap");
    if (!sc.valid()) {
        rest_fatal("bad sampling config: need windowOps > 0 and "
                   "warmupOps + windowOps <= intervalOps");
    }
    if (base.exec.fastFunctional && sc.active()) {
        rest_fatal("fast-functional and sampled execution are "
                   "mutually exclusive");
    }
    if (sc.active() && base.useInOrderCpu) {
        rest_fatal("sampled execution requires the out-of-order "
                   "cpu (the in-order model has no window "
                   "checkpoint/restore)");
    }
    if (sc.active() && cfg_.cores > 1) {
        rest_fatal("sampled execution is not supported on the "
                   "multicore machine (detailed or fast-functional "
                   "only)");
    }
    if (base.trace.active() && cfg_.cores > 1) {
        rest_fatal("per-run tracing is not supported on the "
                   "multicore machine");
    }

    // Install a fresh random token at the configured width/mode
    // (privileged memory-mapped write, §III-A).
    tcr_.writePrivileged(
        core::TokenValue::generate(rng_, base.tokenWidth), base.mode);

    // One shared runtime: the registered backend's allocator, check
    // policy and instrumentation pass serve every core, exactly like
    // one mapped libc in a multi-threaded server process.
    const runtime::ProtectionScheme &ps =
        runtime::schemeForConfig(base.scheme);
    runtime::SchemeParts parts = ps.instantiate(
        {memory_, engine_, base.scheme, base.tokenSeed});
    allocator_ = std::move(parts.allocator);
    policy_ = parts.policy;

    // The snooping bus exists only when there is something to snoop;
    // a detached 1-core hierarchy is the exact historical machine.
    if (cfg_.cores > 1)
        bus_ = std::make_unique<mem::CoherenceBus>();

    for (unsigned i = 0; i < cfg_.cores; ++i) {
        instrumentation_.push_back(
            ps.instrument(programs_[i], base.scheme, tcr_.granule()));

        l1i_.push_back(std::make_unique<mem::Cache>(base.l1iConfig, l2_));
        auto l1d = std::make_unique<mem::RestL1Cache>(
            base.l1dConfig, l2_, memory_, tcr_);
        if (bus_) {
            l1d->attachBus(bus_.get());
            bus_->attach(*l1d);
        }
        l1d_.push_back(std::move(l1d));

        const Addr stack_top = runtime::AddressMap::stackTop -
                               Addr(i) * cfg_.perCoreStackBytes;
        emulators_.push_back(std::make_unique<Emulator>(
            programs_[i], memory_, engine_, *allocator_, base.scheme,
            policy_, stack_top));

        // Fast-functional runs need no timing CPU at all; sampled
        // runs need both the O3 core and the functional driver.
        if (!base.exec.fastFunctional) {
            if (base.useInOrderCpu) {
                inorder_.push_back(std::make_unique<cpu::InOrderCpu>(
                    base.inorderConfig, *l1i_[i], *l1d_[i]));
            } else {
                o3_.push_back(std::make_unique<cpu::O3Cpu>(
                    base.cpuConfig, base.mode, *l1i_[i], *l1d_[i]));
            }
        }
        if (!base.exec.detailed())
            fast_.push_back(std::make_unique<FastFunctional>(base.mode));

        stats::StatGroup &cpu_stats =
            !o3_.empty()        ? o3_[i]->statGroup()
            : !inorder_.empty() ? inorder_[i]->statGroup()
                                : fast_[i]->statGroup();
        statGroups_.insert(statGroups_.end(),
                           {&cpu_stats, &l1i_[i]->statGroup(),
                            &l1d_[i]->statGroup()});
    }
    statGroups_.insert(statGroups_.end(),
                       {&l2_.statGroup(), &dram_.statGroup()});
    if (bus_)
        statGroups_.push_back(&bus_->statGroup());

    if (base.trace.active()) {
        traceSink_ = std::make_unique<trace::TraceSink>(base.trace);
        for (stats::StatGroup *g : statGroups_)
            traceSink_->registerStatGroup(g);
    }
}

void
MultiCoreSystem::runSlice(unsigned core, std::uint64_t ops,
                          MultiCoreResult &res)
{
    const std::uint64_t want = std::min(
        ops, cfg_.base.maxOps - res.cores[core].committedOps);
    if (want == 0)
        return;
    Emulator &emu = *emulators_[core];
    if (!fast_.empty())
        fold(res, core, fast_[core]->run(emu, want), true);
    else if (!o3_.empty())
        fold(res, core, o3_[core]->run(emu, want), false);
    else
        fold(res, core, inorder_[core]->run(emu, want), false);
}

void
MultiCoreSystem::runSampled(MultiCoreResult &res)
{
    const SamplingConfig &sc = cfg_.base.exec.sampling;
    const std::uint64_t max_ops = cfg_.base.maxOps;
    const cpu::RunResult &total = res.cores[0];
    Emulator &emu = *emulators_[0];
    cpu::O3Cpu &o3 = *o3_[0];
    std::vector<WindowSample> windows;
    std::uint64_t detailed_ops = 0, ff_ops = 0;
    Cycles detailed_cycles = 0;

    auto more = [&] {
        return !res.faulted() && !emu.halted() &&
               total.committedOps < max_ops;
    };

    while (more()) {
        // Detailed segment: warmup (cycles discarded) + window. The
        // pipeline clock restarts at 0, so the memory hierarchy must
        // drop any absolute in-flight timestamps recorded under the
        // previous segment's clock (contents survive; only fills that
        // would otherwise read as still-pending are forgotten).
        o3.resetPipeline();
        l1i_[0]->resetTiming();
        l1d_[0]->resetTiming();
        Cycles seg_cycles = 0, warm_cycles = 0;
        const std::uint64_t warm =
            std::min(sc.warmupOps, max_ops - total.committedOps);
        if (warm != 0) {
            const cpu::RunResult r = o3.run(emu, warm);
            warm_cycles = seg_cycles = r.cycles;
            detailed_ops += r.committedOps;
            fold(res, 0, r, false);
        }
        if (more()) {
            const cpu::RunResult r = o3.run(
                emu, std::min(sc.windowOps, max_ops - total.committedOps));
            // O3 pipeline state persists across run() calls, so
            // r.cycles is the commit clock since resetPipeline();
            // the window's own cost is the delta past the warmup.
            if (r.committedOps != 0)
                windows.push_back(
                    {r.committedOps, r.cycles - warm_cycles});
            seg_cycles = r.cycles;
            detailed_ops += r.committedOps;
            fold(res, 0, r, false);
        }
        detailed_cycles += seg_cycles;

        // Functional fast-forward to the end of the period. Fault
        // detection is architectural (the emulator), so a violation
        // inside the gap surfaces identically.
        if (more()) {
            const std::uint64_t skip =
                std::min(sc.intervalOps - sc.warmupOps - sc.windowOps,
                         max_ops - total.committedOps);
            if (skip != 0) {
                const cpu::RunResult r = fast_[0]->run(emu, skip);
                ff_ops += r.committedOps;
                fold(res, 0, r, true);
            }
        }
    }

    sampling_ =
        estimateCycles(windows, detailed_ops, detailed_cycles, ff_ops);
    res.cores[0].cycles = sampling_.extrapolatedCycles;
}

MultiCoreResult
MultiCoreSystem::run()
{
    MultiCoreResult res;
    res.instrumentation = instrumentation_;
    res.fastFunctional = cfg_.base.exec.fastFunctional;
    res.cores.resize(cfg_.cores);

    // Install this machine's sink thread-locally for the duration of
    // the run: parallel sweep jobs each trace into private storage.
    trace::ScopedSink scoped(traceSink_.get());
    if (cfg_.base.exec.sampling.active()) {
        runSampled(res);
    } else if (cfg_.cores == 1) {
        // No peers to interleave with: one unsliced call.
        runSlice(0, cfg_.base.maxOps, res);
    } else {
        // Deterministic round-robin quanta on one host timeline. The
        // machine stops at the first fault (a REST trap halts the
        // process, not just the faulting thread) or when every core
        // has halted or hit its op cap. A spinning core still retires
        // its spin ops, so every active core makes progress and the
        // loop always terminates under a finite op cap.
        auto done = [&](unsigned c) {
            return emulators_[c]->halted() ||
                   res.cores[c].committedOps >= cfg_.base.maxOps;
        };
        bool active = true;
        while (active && !res.faulted()) {
            active = false;
            for (unsigned c = 0; c < cfg_.cores && !res.faulted();
                 ++c) {
                if (done(c))
                    continue;
                active = true;
                runSlice(c, cfg_.quantumOps, res);
            }
        }
    }

    for (const cpu::RunResult &r : res.cores) {
        res.committedOps += r.committedOps;
        res.cycles = std::max(res.cycles, r.cycles);
    }
    if (traceSink_) {
        const trace::TraceConfig &tc = cfg_.base.trace;
        traceSink_->flushStats(res.cycles);
        if (!tc.traceOutPath.empty())
            traceSink_->writeChromeTraceFile(tc.traceOutPath);
        if (!tc.pipeViewPath.empty())
            traceSink_->writePipeViewFile(tc.pipeViewPath);
    }
    res.armsExecuted = engine_.armsExecuted();
    res.disarmsExecuted = engine_.disarmsExecuted();
    res.mallocCalls = allocator_->heapState().mallocCalls;
    res.freeCalls = allocator_->heapState().freeCalls;
    return res;
}

std::vector<stats::StatSnapshot>
MultiCoreSystem::statSnapshots() const
{
    // Every registered group snapshots on the same statsTick
    // boundaries; merge the per-group series by cycle.
    std::map<Cycles, std::map<std::string, std::uint64_t>> merged;
    for (const stats::StatGroup *g : statGroups_) {
        for (const auto &snap : g->snapshots()) {
            auto &cell = merged[snap.cycle];
            cell.insert(snap.deltas.begin(), snap.deltas.end());
        }
    }
    std::vector<stats::StatSnapshot> out;
    out.reserve(merged.size());
    for (auto &[cycle, deltas] : merged)
        out.push_back({cycle, std::move(deltas)});
    return out;
}

void
MultiCoreSystem::dumpStats(std::ostream &os) const
{
    for (const stats::StatGroup *g : statGroups_)
        g->dump(os);
}

} // namespace rest::sim
