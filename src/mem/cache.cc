#include "mem/cache.hh"

#include <algorithm>

#include "mem/coherence.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace rest::mem
{

const char *
mesiName(Mesi m)
{
    switch (m) {
      case Mesi::Invalid:
        return "I";
      case Mesi::Shared:
        return "S";
      case Mesi::Exclusive:
        return "E";
      case Mesi::Modified:
        return "M";
    }
    return "?";
}

Cache::Cache(const CacheConfig &cfg, MemoryDevice &below)
    : cfg_(cfg), below_(below), blockSize_(cfg.blockSize),
      stats_(cfg.name),
      hits_(stats_.addScalar("hits", "accesses that hit")),
      misses_(stats_.addScalar("misses", "accesses that missed")),
      writebacks_(stats_.addScalar("writebacks",
                                   "dirty lines written back")),
      mshrMerges_(stats_.addScalar("mshr_merges",
                                   "misses merged into in-flight MSHRs")),
      mshrStallCycles_(stats_.addScalar("mshr_stall_cycles",
                                        "cycles stalled on full MSHRs"))
{
    rest_assert(isPowerOfTwo(blockSize_), "block size must be pow2");
    blockShift_ = floorLog2(blockSize_);
    rest_assert(cfg.sizeBytes % (blockSize_ * cfg.assoc) == 0,
                "cache geometry does not divide evenly");
    numSets_ = cfg.sizeBytes / (blockSize_ * cfg.assoc);
    rest_assert(isPowerOfTwo(numSets_), "number of sets must be pow2");
    sets_.assign(numSets_, std::vector<Line>(cfg.assoc));
}

unsigned
Cache::setIndex(Addr addr) const
{
    return (addr >> blockShift_) & (numSets_ - 1);
}

Cache::Line *
Cache::findLine(Addr addr)
{
    Addr la = lineAddr(addr);
    for (auto &line : sets_[setIndex(addr)]) {
        if (line.valid && line.tag == la)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

Cache::Line &
Cache::fillLine(Addr addr, Cycles now)
{
    Addr la = lineAddr(addr);
    auto &set = sets_[setIndex(addr)];

    // Victim selection: first invalid way, else LRU.
    Line *victim = &set[0];
    for (auto &line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUsed < victim->lastUsed)
            victim = &line;
    }

    if (victim->valid) {
        onEvict(victim->tag, *victim, now);
        if (victim->dirty) {
            ++writebacks_;
            if (trace::TraceSink *ts = trace::sink();
                ts && ts->flagOn(trace::Flag::Cache, now)) {
                ts->instant(trace::Flag::Cache,
                            ts->trackFor(stats_.name()), "writeback",
                            now, "line", victim->tag);
            }
            // Writebacks drain through the write buffer off the
            // critical path; charge them to the level below for
            // bandwidth accounting only.
            below_.access(victim->tag, true, now);
        }
    }

    victim->tag = la;
    victim->valid = true;
    victim->dirty = false;
    victim->tokenBits = 0;
    victim->mesi = Mesi::Invalid;
    victim->lastUsed = ++useCounter_;
    onFill(la, *victim, now);
    return *victim;
}

Mesi
Cache::coherenceMissSnoop(Addr line_addr, bool is_write, Cycles now)
{
    if (!bus_)
        return Mesi::Invalid;
    return bus_->requestLine(*this, line_addr, is_write, now);
}

void
Cache::coherenceWriteHit(Line &line, Addr line_addr, Cycles now)
{
    if (!bus_)
        return;
    if (line.mesi == Mesi::Shared)
        bus_->upgrade(*this, line_addr, now);
    line.mesi = Mesi::Modified;
}

Mesi
Cache::snoopShared(Addr line_addr, Cycles now)
{
    Line *line = findLine(line_addr);
    if (!line)
        return Mesi::Invalid;
    const Mesi prior = line->mesi;
    if (prior == Mesi::Modified) {
        // Flush: the requester fills from below, so our copy's data —
        // and any deferred token values — must reach it first.
        onCoherenceFlush(line_addr, *line, now);
        if (line->dirty) {
            ++writebacks_;
            below_.access(line_addr, true, now);
            line->dirty = false;
        }
    }
    line->mesi = Mesi::Shared;
    return prior;
}

Mesi
Cache::snoopInvalidate(Addr line_addr, Cycles now)
{
    Line *line = findLine(line_addr);
    if (!line)
        return Mesi::Invalid;
    const Mesi prior = line->mesi;
    // Full eviction semantics: token write-out via onEvict, then the
    // dirty write-back, then the line is gone.
    onEvict(line_addr, *line, now);
    if (line->dirty) {
        ++writebacks_;
        below_.access(line_addr, true, now);
    }
    *line = Line{};
    return prior;
}

Mesi
Cache::mesiState(Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->mesi : Mesi::Invalid;
}

Cycles
Cache::resolveMiss(Addr line_addr, Cycles now)
{
    // Prune completed fetches.
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
        if (it->second <= now)
            it = outstanding_.erase(it);
        else
            ++it;
    }

    trace::TraceSink *ts = trace::sink();
    const bool traced = ts && ts->flagOn(trace::Flag::Cache, now);

    // Merge with an in-flight fetch of the same line.
    if (auto it = outstanding_.find(line_addr); it != outstanding_.end()) {
        ++mshrMerges_;
        if (traced) {
            ts->instant(trace::Flag::Cache, ts->trackFor(stats_.name()),
                        "mshr_merge", now, "line", line_addr);
        }
        return it->second;
    }

    // All MSHRs busy: stall until the earliest one frees.
    Cycles start = now;
    if (outstanding_.size() >= cfg_.numMshrs) {
        Cycles earliest = ~Cycles(0);
        for (const auto &kv : outstanding_)
            earliest = std::min(earliest, kv.second);
        mshrStallCycles_ += earliest - now;
        if (traced) {
            ts->complete(trace::Flag::Cache,
                         ts->trackFor(stats_.name()), "mshr_stall",
                         now, earliest, "line", line_addr);
        }
        start = earliest;
    }

    Cycles ready = below_.access(line_addr, false, start + cfg_.latency);
    outstanding_[line_addr] = ready;
    return ready;
}

Cycles
Cache::access(Addr addr, bool is_write, Cycles now)
{
    if (Line *line = findLine(addr)) {
        lastHit_ = true;
        ++hits_;
        line->lastUsed = ++useCounter_;
        if (is_write) {
            line->dirty = true;
            coherenceWriteHit(*line, lineAddr(addr), now);
        }
        // A "hit" on a line whose fill is still in flight waits for
        // the data (MSHR target merge).
        if (line->readyAt > now) {
            ++mshrMerges_;
            return line->readyAt;
        }
        return now + cfg_.latency;
    }

    lastHit_ = false;
    ++misses_;
    // Snoop before the fill so a remote Modified copy lands in the
    // level below (and its token values in memory) first.
    Mesi fill_state = coherenceMissSnoop(lineAddr(addr), is_write, now);
    Cycles ready = resolveMiss(lineAddr(addr), now);
    if (trace::TraceSink *ts = trace::sink();
        ts && ts->flagOn(trace::Flag::Cache, now)) {
        ts->complete(trace::Flag::Cache, ts->trackFor(stats_.name()),
                     "fill", now, ready, "line", lineAddr(addr));
        REST_DPRINTF(trace::Flag::Cache, now, stats_.name().c_str(),
                     is_write ? "store" : "load", " miss addr=0x",
                     std::hex, addr, std::dec, " ready=", ready);
    }
    Line &line = fillLine(addr, ready);
    line.readyAt = ready;
    line.mesi = fill_state;
    if (is_write)
        line.dirty = true;
    return ready;
}

void
Cache::flushAll()
{
    for (auto &set : sets_) {
        for (auto &line : set) {
            if (line.valid) {
                onEvict(line.tag, line, 0);
                if (line.dirty)
                    ++writebacks_;
            }
            line = Line{};
        }
    }
    outstanding_.clear();
}

void
Cache::resetTiming()
{
    for (auto &set : sets_)
        for (auto &line : set)
            line.readyAt = 0;
    outstanding_.clear();
    below_.resetTiming();
}

} // namespace rest::mem
