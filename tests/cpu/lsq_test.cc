/**
 * @file
 * Tests of the REST LSQ matching logic (paper Fig. 5 and Table I's
 * "LSQ" column).
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/lsq.hh"
#include "util/random.hh"

namespace rest::cpu
{

namespace
{

Lsq::StoreEntry
entry(std::uint64_t seq, Addr addr, unsigned size, bool arm = false,
      bool disarm = false, Cycles done = 1000)
{
    return {seq, addr, size, arm, disarm, done};
}

/** Unbounded std::deque store queue: the reference the ring must match. */
struct RefLsq
{
    std::deque<Lsq::StoreEntry> q;

    static bool
    overlaps(Addr a1, unsigned s1, Addr a2, unsigned s2)
    {
        return a1 < a2 + s2 && a2 < a1 + s1;
    }

    void
    prune(Cycles now)
    {
        while (!q.empty() && q.front().writeCompleteAt <= now)
            q.pop_front();
    }

    LoadLsqCheck
    checkLoad(std::uint64_t load_seq, Addr addr, unsigned size) const
    {
        LoadLsqCheck res;
        for (auto it = q.rbegin(); it != q.rend(); ++it) {
            if (it->seq >= load_seq ||
                !overlaps(addr, size, it->addr, it->size)) {
                continue;
            }
            if (it->isArm) {
                res.violation = core::ViolationKind::TokenForward;
            } else if (!it->isDisarm && it->addr <= addr &&
                       addr + size <= it->addr + it->size) {
                res.forwarded = true;
            } else {
                res.mustWaitUntil = it->writeCompleteAt;
            }
            return res;
        }
        return res;
    }

    core::ViolationKind
    checkInsert(Addr addr, unsigned size, bool is_arm,
                bool is_disarm) const
    {
        for (const auto &e : q) {
            if (!overlaps(addr, size, e.addr, e.size))
                continue;
            if (is_disarm && e.isDisarm)
                return core::ViolationKind::DisarmUnarmed;
            if (!is_arm && !is_disarm && e.isArm)
                return core::ViolationKind::TokenForward;
        }
        return core::ViolationKind::None;
    }

    void
    insert(Lsq::StoreEntry e)
    {
        if (!q.empty()) {
            e.writeCompleteAt =
                std::max(e.writeCompleteAt, q.back().writeCompleteAt);
        }
        q.push_back(e);
    }

    Cycles
    earliestFree() const
    {
        return q.empty() ? 0 : q.front().writeCompleteAt;
    }
};

/**
 * Drive an Lsq(sq_entries) and the reference with one seeded random
 * call sequence; every result must agree.
 */
void
checkAgainstReference(unsigned sq_entries, std::uint64_t seed)
{
    Xoshiro256ss rng(seed);
    Lsq lsq(sq_entries);
    RefLsq ref;
    Cycles now = 0;
    std::uint64_t seq = 0;
    std::uint64_t inserted = 0;
    for (unsigned step = 0; step < 20000; ++step) {
        // A handful of granules so that entries overlap often.
        Addr addr = 0x1000 + 8 * rng.below(24);
        unsigned size = 1u << rng.below(5);
        bool arm = rng.chance(0.1);
        bool disarm = !arm && rng.chance(0.1);
        if (arm || disarm) {
            addr &= ~Addr(63);
            size = 64;
        }
        switch (rng.below(4)) {
          case 0:
            now += rng.below(8);
            lsq.prune(now);
            ref.prune(now);
            break;
          case 1: {
            std::uint64_t load_seq = seq - rng.below(4);
            LoadLsqCheck got = lsq.checkLoad(load_seq, addr, size);
            LoadLsqCheck want = ref.checkLoad(load_seq, addr, size);
            ASSERT_EQ(got.forwarded, want.forwarded) << step;
            ASSERT_EQ(got.mustWaitUntil, want.mustWaitUntil) << step;
            ASSERT_EQ(got.violation, want.violation) << step;
            break;
          }
          case 2:
            ASSERT_EQ(lsq.checkInsert(addr, size, arm, disarm),
                      ref.checkInsert(addr, size, arm, disarm))
                << step;
            break;
          default:
            if (ref.q.size() < sq_entries) {
                Lsq::StoreEntry e = entry(seq, addr, size, arm, disarm,
                                          now + rng.below(40));
                lsq.insert(e);
                ref.insert(e);
                ++inserted;
            }
            ++seq;
            break;
        }
        ASSERT_EQ(lsq.occupancy(), ref.q.size()) << step;
        ASSERT_EQ(lsq.full(), ref.q.size() >= sq_entries) << step;
        ASSERT_EQ(lsq.earliestFree(), ref.earliestFree()) << step;
    }
    // Many laps of the ring, not one fill.
    EXPECT_GT(inserted, 50u * (sq_entries + 1));
}

} // namespace

TEST(Lsq, ForwardFromCoveringStore)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1000, 8);
    EXPECT_TRUE(chk.forwarded);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
}

TEST(Lsq, ForwardSubsetOfStore)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1004, 4);
    EXPECT_TRUE(chk.forwarded);
}

TEST(Lsq, PartialOverlapWaitsForWrite)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 4, false, false, 777));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1002, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 777u);
}

TEST(Lsq, NoMatchNoForward)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x2000, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 0u);
}

// Paper Fig. 5 / §III-B: a load that would forward from an in-flight
// arm raises a privileged REST exception (the token is secret).
TEST(Lsq, LoadHittingInflightArmFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, /*arm=*/true));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1010, 8);
    EXPECT_EQ(chk.violation, core::ViolationKind::TokenForward);
}

TEST(Lsq, LoadNextToInflightArmOk)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, /*arm=*/true));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1040, 8);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
}

// Younger entries must not affect older loads.
TEST(Lsq, OnlyOlderEntriesConsidered)
{
    Lsq lsq;
    lsq.insert(entry(10, 0x1000, 64, /*arm=*/true));
    LoadLsqCheck chk = lsq.checkLoad(5, 0x1000, 8);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
    EXPECT_FALSE(chk.forwarded);
}

// Table I "Store": raise exception if SQ has arm for same location.
TEST(Lsq, StoreOverlappingInflightArmFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, /*arm=*/true));
    EXPECT_EQ(lsq.checkInsert(0x1020, 8, false, false),
              core::ViolationKind::TokenForward);
    EXPECT_EQ(lsq.checkInsert(0x1040, 8, false, false),
              core::ViolationKind::None);
}

// Table I "Disarm": raise exception if SQ has disarm for the same
// location.
TEST(Lsq, DisarmOverlappingInflightDisarmFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, false, /*disarm=*/true));
    EXPECT_EQ(lsq.checkInsert(0x1000, 64, false, true),
              core::ViolationKind::DisarmUnarmed);
    EXPECT_EQ(lsq.checkInsert(0x1040, 64, false, true),
              core::ViolationKind::None);
}

// An arm may be inserted over anything (Table I: "create entry").
TEST(Lsq, ArmInsertNeverFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, true));
    lsq.insert(entry(2, 0x1000, 64, false, true));
    EXPECT_EQ(lsq.checkInsert(0x1000, 64, true, false),
              core::ViolationKind::None);
}

// Loads overlapping an in-flight disarm wait for its write (the zero
// value is implicit; no data to forward).
TEST(Lsq, LoadOverlappingDisarmWaits)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, false, true, 555));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1008, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 555u);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
}

TEST(Lsq, YoungestMatchingEntryDecides)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8, false, false, 100));
    lsq.insert(entry(3, 0x1000, 8, false, false, 300));
    LoadLsqCheck chk = lsq.checkLoad(5, 0x1000, 8);
    EXPECT_TRUE(chk.forwarded); // from seq 3, the youngest older
}

TEST(Lsq, PruneDropsCompletedWrites)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8, false, false, 100));
    lsq.insert(entry(2, 0x2000, 8, false, false, 200));
    EXPECT_EQ(lsq.occupancy(), 2u);
    lsq.prune(150);
    EXPECT_EQ(lsq.occupancy(), 1u);
    lsq.prune(250);
    EXPECT_EQ(lsq.occupancy(), 0u);
}

// In-order drain: completion times are monotone, so a long-latency
// elder holds its juniors in the queue (and earliestFree is the
// front's completion).
TEST(Lsq, InOrderDrainMonotoneCompletion)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8, false, false, 500));
    lsq.insert(entry(2, 0x2000, 8, false, false, 100));
    lsq.prune(200);
    EXPECT_EQ(lsq.occupancy(), 2u); // junior cannot leave early
    EXPECT_EQ(lsq.earliestFree(), 500u);
    lsq.prune(500);
    EXPECT_EQ(lsq.occupancy(), 0u);
}

TEST(Lsq, FullAndCapacity)
{
    Lsq lsq(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        lsq.insert(entry(i, 0x1000 + 64 * i, 8, false, false,
                         1000 + i));
    EXPECT_TRUE(lsq.full());
    EXPECT_EQ(lsq.earliestFree(), 1000u);
    lsq.prune(1000);
    EXPECT_FALSE(lsq.full());
}

TEST(Lsq, RingWrapMatchesReference)
{
    checkAgainstReference(4, 1);
    checkAgainstReference(32, 2);
}

} // namespace rest::cpu
