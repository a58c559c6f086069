/** @file Protocol-level tests driving the coherence schemes directly. */

#include <gtest/gtest.h>

#include "mem/base_scheme.hh"
#include "mem/coherence.hh"
#include "mem/directory_scheme.hh"
#include "mem/sc_scheme.hh"
#include "mem/tpi_scheme.hh"

using namespace hscd;
using namespace hscd::mem;
using compiler::MarkKind;

namespace {

struct Rig
{
    explicit Rig(MachineConfig c = {})
        : cfg(std::move(c)), memory(1 << 20),
          network(cfg.procs, cfg.networkRadix, cfg.maxNetworkLoad),
          scheme(makeScheme(cfg, memory, network))
    {
    }

    AccessResult
    read(ProcId p, Addr a, MarkKind mark = MarkKind::Normal,
         std::uint32_t d = 0)
    {
        MemOp op;
        op.proc = p;
        op.addr = a;
        op.mark = mark;
        op.distance = d;
        op.now = ++now;
        return scheme->access(op);
    }

    AccessResult
    write(ProcId p, Addr a)
    {
        MemOp op;
        op.proc = p;
        op.addr = a;
        op.write = true;
        op.stamp = ++stamp;
        op.now = ++now;
        return scheme->access(op);
    }

    Cycles
    boundary()
    {
        return scheme->epochBoundary(++epoch);
    }

    MachineConfig cfg;
    MainMemory memory;
    net::Network network;
    std::unique_ptr<CoherenceScheme> scheme;
    Cycles now = 0;
    ValueStamp stamp = 0;
    EpochId epoch = 0;
};

MachineConfig
withScheme(SchemeKind k)
{
    MachineConfig c;
    c.scheme = k;
    return c;
}

} // namespace

// ---------------------------------------------------------------- BASE --

TEST(BaseScheme, ReadsAlwaysRemote)
{
    Rig rig(withScheme(SchemeKind::Base));
    rig.write(0, 0x100);
    auto r1 = rig.read(1, 0x100);
    auto r2 = rig.read(1, 0x100);
    EXPECT_FALSE(r1.hit);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(r1.cls, MissClass::Uncached);
    EXPECT_EQ(r1.observed, 1u);
    EXPECT_GE(r1.stall, rig.cfg.baseMissCycles);
    EXPECT_EQ(rig.scheme->stats().readMisses, 2u);
}

TEST(BaseScheme, WritesAreBufferedAndVisible)
{
    Rig rig(withScheme(SchemeKind::Base));
    auto w = rig.write(0, 0x200);
    EXPECT_EQ(w.stall, 1u);
    EXPECT_EQ(rig.memory.read(0x200), 1u);
    EXPECT_GT(rig.scheme->writeDrainTime(0), 0u);
    EXPECT_EQ(rig.scheme->writeDrainTime(1), 0u);
}

// ------------------------------------------------------------------ SC --

TEST(ScScheme, UnmarkedReadCachesLine)
{
    Rig rig(withScheme(SchemeKind::SC));
    auto r1 = rig.read(0, 0x100);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.cls, MissClass::Cold);
    auto r2 = rig.read(0, 0x104); // same line
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.stall, rig.cfg.hitCycles);
}

TEST(ScScheme, MarkedReadAlwaysRefetches)
{
    Rig rig(withScheme(SchemeKind::SC));
    rig.read(0, 0x100);
    auto r = rig.read(0, 0x100, MarkKind::TimeRead, 3);
    EXPECT_FALSE(r.hit) << "SC cannot exploit the distance operand";
    EXPECT_EQ(r.cls, MissClass::Conservative)
        << "data was actually fresh: an unnecessary miss";
}

TEST(ScScheme, MarkedReadSeesNewData)
{
    Rig rig(withScheme(SchemeKind::SC));
    rig.read(1, 0x100);
    rig.boundary();
    rig.write(0, 0x100); // another processor updates memory
    rig.boundary();
    auto r = rig.read(1, 0x100, MarkKind::TimeRead, 1);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.observed, 1u) << "must observe the new value";
    EXPECT_EQ(r.cls, MissClass::TrueShare);
}

TEST(ScScheme, WriteThroughUpdatesMemoryImmediately)
{
    Rig rig(withScheme(SchemeKind::SC));
    rig.write(0, 0x300);
    EXPECT_EQ(rig.memory.read(0x300), 1u);
    // Write-allocate: the line is now cached.
    auto r = rig.read(0, 0x300);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.observed, 1u);
}

TEST(ScScheme, EvictionClassifiedAsReplacement)
{
    MachineConfig c = withScheme(SchemeKind::SC);
    c.cacheBytes = 256; // tiny: 16 lines
    c.lineBytes = 16;
    Rig rig(c);
    rig.read(0, 0x0);
    rig.read(0, 0x100); // conflicts (256B direct-mapped)
    auto r = rig.read(0, 0x0);
    EXPECT_EQ(r.cls, MissClass::Replacement);
}

// ----------------------------------------------------------------- TPI --

TEST(TpiScheme, TimeReadHitsFreshCopy)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.write(0, 0x100); // epoch 0: tt = 0
    rig.boundary();      // epoch 1
    auto r = rig.read(0, 0x100, MarkKind::TimeRead, 1);
    EXPECT_TRUE(r.hit) << "tt=0 >= EC(1) - d(1): own copy provably fresh";
    EXPECT_EQ(r.observed, 1u);
    EXPECT_EQ(rig.scheme->stats().timeReadHits, 1u);
}

TEST(TpiScheme, TimeReadMissesStaleCopy)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.read(1, 0x100);  // P1 caches the word in epoch 0
    rig.boundary();      // epoch 1
    rig.write(0, 0x100); // P0 writes (write-through)
    rig.boundary();      // epoch 2
    auto r = rig.read(1, 0x100, MarkKind::TimeRead, 1);
    EXPECT_FALSE(r.hit) << "P1's tt=0 < EC(2) - d(1) = 1";
    EXPECT_EQ(r.observed, 1u) << "refetch returns the new value";
    EXPECT_EQ(r.cls, MissClass::TrueShare);
}

TEST(TpiScheme, TimeReadPromotionPreservesLocality)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.write(0, 0x100); // epoch 0
    rig.boundary();      // 1
    auto r1 = rig.read(0, 0x100, MarkKind::TimeRead, 1);
    EXPECT_TRUE(r1.hit);
    rig.boundary();      // 2
    // Without promotion tt would still be 0 and this d=1 read would miss.
    auto r2 = rig.read(0, 0x100, MarkKind::TimeRead, 1);
    EXPECT_TRUE(r2.hit) << "promotion at the first Time-Read keeps "
                           "inter-task locality";
}

TEST(TpiScheme, ConservativeMissClassified)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.read(0, 0x100); // cache in epoch 0
    rig.boundary();
    rig.boundary();
    // Nothing was written; a d=1 Time-Read in epoch 2 misses anyway.
    auto r = rig.read(0, 0x100, MarkKind::TimeRead, 1);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.cls, MissClass::Conservative)
        << "data was fresh; the miss is compiler conservatism";
}

TEST(TpiScheme, SideFilledWordsGetOlderTag)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.boundary(); // epoch 1 so EC-1 is meaningful
    rig.read(0, 0x100); // fills words 0x100..0x10c; accessed word tt=1
    // Accessed word: d=0 Time-Read hits (tt == EC).
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, 0).hit);
    // Side-filled word: tt = EC-1, a d=0 Time-Read must miss (another
    // task may have written it this epoch).
    EXPECT_FALSE(rig.read(0, 0x104, MarkKind::TimeRead, 0).hit);
    // ...but a d=1 Time-Read may hit.
    EXPECT_TRUE(rig.read(0, 0x108, MarkKind::TimeRead, 1).hit);
}

TEST(TpiScheme, WriteSetsCurrentTag)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.boundary();
    rig.write(0, 0x100);
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, 0).hit);
}

TEST(TpiScheme, BypassAlwaysFetches)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.write(0, 0x100);
    auto r1 = rig.read(0, 0x100, MarkKind::Bypass);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.observed, 1u);
    auto r2 = rig.read(0, 0x100, MarkKind::Bypass);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(rig.scheme->stats().bypassReads, 2u);
}

TEST(TpiScheme, BypassSeesOtherTasksWriteSameEpoch)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.read(1, 0x100);  // P1 caches old value (stamp 0)
    rig.write(0, 0x100); // P0 writes in the same epoch (critical section)
    auto r = rig.read(1, 0x100, MarkKind::Bypass);
    EXPECT_EQ(r.observed, 1u) << "bypass must observe lock-ordered write";
}

TEST(TpiScheme, TwoPhaseResetInvalidatesOldWords)
{
    MachineConfig c = withScheme(SchemeKind::TPI);
    c.timetagBits = 3; // phase = 4 epochs
    Rig rig(c);
    rig.read(0, 0x100); // tt = 0 in epoch 0
    Cycles stall = 0;
    for (int e = 1; e <= 4; ++e)
        stall += rig.boundary(); // epoch 4 crosses the phase boundary
    EXPECT_EQ(stall, c.twoPhaseResetCycles);
    EXPECT_EQ(rig.scheme->stats().tagResets, 1u);
    // tt=0 < 4 - 4 + ... cutoff = 4-4 = 0? cutoff is EC - phase = 0,
    // tt(0) >= 0 survives the first reset; the next one kills it.
    for (int e = 5; e <= 8; ++e)
        stall += rig.boundary();
    auto r = rig.read(0, 0x100); // Normal read of an invalidated word
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.cls, MissClass::TagReset);
}

TEST(TpiScheme, WideTagsAvoidResetLonger)
{
    MachineConfig c = withScheme(SchemeKind::TPI);
    c.timetagBits = 8; // phase = 128
    Rig rig(c);
    rig.read(0, 0x100);
    for (int e = 1; e <= 100; ++e)
        rig.boundary();
    EXPECT_TRUE(rig.read(0, 0x100).hit);
    EXPECT_EQ(rig.scheme->stats().tagResets, 0u);
}

TEST(TpiScheme, DistanceClampedToTagWindow)
{
    MachineConfig c = withScheme(SchemeKind::TPI);
    c.timetagBits = 3; // representable distance <= 7
    Rig rig(c);
    rig.write(0, 0x100); // tt = 0
    rig.boundary();
    rig.boundary();
    rig.boundary();      // EC = 3
    // d=100 clamps to 7; floor = 0; the copy (tt=0) may hit.
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, 100).hit);
}

// ------------------------------------------------------------------ HW --

TEST(DirectoryScheme, ReadSharing)
{
    Rig rig(withScheme(SchemeKind::HW));
    auto r0 = rig.read(0, 0x100);
    auto r1 = rig.read(1, 0x100);
    EXPECT_FALSE(r0.hit);
    EXPECT_FALSE(r1.hit);
    auto *d = dynamic_cast<DirectoryScheme *>(rig.scheme.get());
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->dirEntry(0x100).state, DirEntry::State::Shared);
    EXPECT_EQ(d->dirEntry(0x100).sharers, 0b11u);
    EXPECT_TRUE(rig.read(0, 0x100).hit);
    EXPECT_TRUE(rig.read(1, 0x100).hit);
}

TEST(DirectoryScheme, WriteInvalidatesSharers)
{
    Rig rig(withScheme(SchemeKind::HW));
    rig.read(0, 0x100);
    rig.read(1, 0x100);
    rig.write(0, 0x100); // upgrade: invalidate P1
    auto *d = dynamic_cast<DirectoryScheme *>(rig.scheme.get());
    EXPECT_EQ(d->dirEntry(0x100).state, DirEntry::State::Modified);
    EXPECT_EQ(d->dirEntry(0x100).owner, 0u);
    EXPECT_EQ(rig.scheme->stats().invalidationsSent, 1u);
    auto r = rig.read(1, 0x100);
    EXPECT_FALSE(r.hit) << "P1 was invalidated";
    EXPECT_EQ(r.observed, 1u) << "owner flushed before memory served";
    EXPECT_EQ(r.cls, MissClass::TrueShare);
}

TEST(DirectoryScheme, FalseSharingClassification)
{
    Rig rig(withScheme(SchemeKind::HW));
    rig.read(1, 0x104); // P1 uses word 1 only
    rig.write(0, 0x100); // P0 writes word 0 of the same line
    auto r = rig.read(1, 0x104);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.cls, MissClass::FalseShare)
        << "invalidating write hit a word P1 never used";
}

TEST(DirectoryScheme, TrueSharingClassification)
{
    Rig rig(withScheme(SchemeKind::HW));
    rig.read(1, 0x100); // P1 uses word 0
    rig.write(0, 0x100); // P0 writes word 0
    auto r = rig.read(1, 0x100);
    EXPECT_EQ(r.cls, MissClass::TrueShare);
}

TEST(DirectoryScheme, WriteBackOnEviction)
{
    MachineConfig c = withScheme(SchemeKind::HW);
    c.cacheBytes = 256;
    c.lineBytes = 16;
    Rig rig(c);
    rig.write(0, 0x100);
    EXPECT_EQ(rig.memory.read(0x100), 0u) << "write-back: memory stale";
    rig.read(0, 0x200); // conflicting line evicts 0x100
    EXPECT_EQ(rig.memory.read(0x100), 1u) << "eviction wrote back";
    EXPECT_GE(rig.scheme->stats().writebackPackets, 1u);
}

TEST(DirectoryScheme, DirtyRemoteReadFlushesOwner)
{
    Rig rig(withScheme(SchemeKind::HW));
    rig.write(0, 0x100);
    auto r = rig.read(1, 0x100);
    EXPECT_EQ(r.observed, 1u);
    EXPECT_GE(r.stall,
              rig.cfg.baseMissCycles + rig.cfg.dirtyMissExtraCycles);
    auto *d = dynamic_cast<DirectoryScheme *>(rig.scheme.get());
    EXPECT_EQ(d->dirEntry(0x100).state, DirEntry::State::Shared);
    EXPECT_EQ(rig.memory.read(0x100), 1u);
    // Previous owner keeps a shared copy.
    EXPECT_TRUE(rig.read(0, 0x100).hit);
}

TEST(DirectoryScheme, WriteHitInModifiedIsCheap)
{
    Rig rig(withScheme(SchemeKind::HW));
    rig.write(0, 0x100);
    auto w = rig.write(0, 0x104);
    EXPECT_TRUE(w.hit);
    EXPECT_EQ(w.stall, rig.cfg.hitCycles);
    EXPECT_EQ(rig.scheme->stats().writeMisses, 1u);
}

TEST(DirectoryScheme, LimitedPointerOverflowPenalty)
{
    MachineConfig c = withScheme(SchemeKind::HW);
    c.directoryPtrs = 2;
    Rig rig(c);
    Cycles base_stall = rig.read(0, 0x100).stall;
    rig.read(1, 0x100);
    auto r3 = rig.read(2, 0x100); // third sharer overflows 2 pointers
    EXPECT_GT(r3.stall, base_stall);
    EXPECT_GE(r3.stall, base_stall + c.directoryOverflowCycles);
}

TEST(DirectoryScheme, EpochBoundaryIsFree)
{
    Rig rig(withScheme(SchemeKind::HW));
    EXPECT_EQ(rig.boundary(), 0u);
}

// -------------------------------------------------- write buffer modes --

TEST(WriteBufferAsCache, EliminatesRedundantWrites)
{
    MachineConfig c = withScheme(SchemeKind::TPI);
    c.writeBufferAsCache = true;
    Rig rig(c);
    rig.write(0, 0x100);
    rig.write(0, 0x100);
    rig.write(0, 0x100);
    EXPECT_EQ(rig.scheme->stats().writePackets, 1u)
        << "repeat writes coalesce in the cache-organized buffer";
    rig.boundary(); // drain
    rig.write(0, 0x100);
    EXPECT_EQ(rig.scheme->stats().writePackets, 2u)
        << "after the drain a new packet is needed";
}

TEST(WriteBufferPlain, EveryWriteIsAPacket)
{
    Rig rig(withScheme(SchemeKind::TPI));
    rig.write(0, 0x100);
    rig.write(0, 0x100);
    EXPECT_EQ(rig.scheme->stats().writePackets, 2u);
}
