/**
 * @file
 * Direct unit tests for TpiScheme timetag wraparound at every supported
 * narrow width (timetagBits 1..3). Until now the wraparound machinery -
 * the n-bit tag window, the hardware distance clamp, and the two-phase
 * reset that retires tags before they can alias - was only exercised
 * indirectly through fuzzing; these tests pin the exact epoch at which
 * each width's tags expire and the exact boundary of the saturation
 * clamp.
 *
 * Geometry of an n-bit tag: phase = 2^(n-1) epochs, so a full reset
 * cycle spans 2 * phase = 2^n epochs and the largest usable Time-Read
 * distance is dmax = 2^n - 1. A word stamped tt in epoch EC survives
 * reset sweeps while tt >= EC - phase; a copy written in epoch 0
 * therefore dies at exactly EC = 2 * phase - one epoch before EC - tt
 * would alias to 0 modulo 2^n and a naive modular comparison would
 * falsely match a Time-Read of distance 0.
 */

#include <gtest/gtest.h>

#include "compiler/analysis.hh"
#include "mem/coherence.hh"
#include "mem/tpi_scheme.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::mem;
using compiler::MarkKind;

namespace {

struct Rig
{
    explicit Rig(unsigned bits, bool promote)
        : memory(1 << 20)
    {
        cfg.scheme = SchemeKind::TPI;
        cfg.timetagBits = bits;
        cfg.tpiPromoteOnHit = promote;
        network = std::make_unique<net::Network>(
            cfg.procs, cfg.networkRadix, cfg.maxNetworkLoad);
        scheme = makeScheme(cfg, memory, *network);
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

    void
    runToEpoch(EpochId target)
    {
        while (epoch < target)
            scheme->epochBoundary(++epoch);
    }

    MachineConfig cfg;
    MainMemory memory;
    std::unique_ptr<net::Network> network;
    std::unique_ptr<CoherenceScheme> scheme;
    Cycles now = 0;
    ValueStamp stamp = 0;
    EpochId epoch = 0;
};

class TpiWraparound : public testing::TestWithParam<unsigned>
{
  protected:
    unsigned bits() const { return GetParam(); }
    unsigned phase() const { return 1u << (bits() - 1); }
    unsigned dmax() const { return (1u << bits()) - 1; }
};

} // namespace

TEST_P(TpiWraparound, AgedCopyHitsExactlyUpToDmax)
{
    // Promotion off: reads must not refresh the tag, so the copy ages
    // one epoch per boundary and we can probe the window edge directly.
    Rig rig(bits(), /*promote=*/false);
    rig.write(0, 0x100); // tt = 0 in epoch 0
    rig.runToEpoch(dmax()); // age = dmax: the oldest a tag can get

    // Distance exactly dmax reaches back to the write.
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, dmax()).hit);
    // Any larger distance saturates to dmax in hardware - identical
    // decision, no wrap into a small effective distance.
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, dmax() + 1).hit);
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, 1000000).hit);
    // One epoch short of the copy's age: conservative miss (the
    // distance check, not the reset, rejects it; the copy's value still
    // matches memory). Probed last - the miss refills the line.
    auto r = rig.read(0, 0x100, MarkKind::TimeRead, dmax() - 1);
    EXPECT_FALSE(r.hit) << "bits=" << bits();
    EXPECT_EQ(r.cls, MissClass::Conservative) << "bits=" << bits();
}

TEST_P(TpiWraparound, ResetKillsCopyBeforeTagAliasing)
{
    Rig rig(bits(), /*promote=*/false);
    rig.write(0, 0x100); // proc 0 caches the word, tt = 0, stamp 1

    // One epoch before the tag would alias, another processor produces
    // a new value; proc 0's copy is now stale in both tag and value.
    rig.runToEpoch(2 * phase() - 1);
    rig.write(1, 0x100); // stamp 2

    // Crossing into epoch 2^n retires tt = 0 (cutoff EC - phase > 0).
    // Without the reset, EC - tt = 2^n would wrap to 0 modulo 2^n and a
    // distance-0 Time-Read would falsely hit the stale copy.
    rig.runToEpoch(2 * phase());
    auto r = rig.read(0, 0x100, MarkKind::TimeRead, 0);
    EXPECT_FALSE(r.hit) << "bits=" << bits();
    EXPECT_EQ(r.cls, MissClass::TagReset) << "bits=" << bits();
    EXPECT_EQ(r.observed, 2u) << "the refill must fetch the new value";
    EXPECT_GE(rig.scheme->stats().tagResets, 1u);
}

TEST_P(TpiWraparound, CopySurvivesUntilTheFatalSweep)
{
    // The sweep at EC = phase keeps tt = 0 (cutoff is 0); only the
    // sweep at EC = 2 * phase retires it. Verify the survival with a
    // maximally-permissive (hardware-clamped) distance at the last
    // epoch the copy can legally serve.
    Rig rig(bits(), /*promote=*/false);
    rig.write(0, 0x100);
    rig.runToEpoch(2 * phase() - 1);
    EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, 1000000).hit)
        << "bits=" << bits() << ": copy died a sweep early";
    rig.runToEpoch(2 * phase());
    EXPECT_FALSE(rig.read(0, 0x100, MarkKind::TimeRead, 1000000).hit)
        << "bits=" << bits() << ": copy outlived the fatal sweep";
}

TEST_P(TpiWraparound, PromotionOutrunsTheReset)
{
    // With promote-on-hit, every Time-Read hit re-stamps tt = EC, so a
    // copy read at least once per epoch never ages and survives any
    // number of reset sweeps - even at 1-bit tags where the raw window
    // is a single epoch.
    Rig rig(bits(), /*promote=*/true);
    rig.write(0, 0x100);
    for (EpochId e = 1; e <= EpochId(4 * phase() + 1); ++e) {
        rig.runToEpoch(e);
        EXPECT_TRUE(rig.read(0, 0x100, MarkKind::TimeRead, 1).hit)
            << "bits=" << bits() << " epoch " << e;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, TpiWraparound, testing::Values(1u, 2u, 3u),
                         [](const auto &info) {
                             return "bits" + std::to_string(info.param);
                         });

TEST(TpiTimetags, OneBitPaperWorkloadsOracleClean)
{
    // The narrowest tag the config accepts still serves every read of
    // the six paper workloads fresh: the reset retires each copy before
    // its tag can alias.
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.timetagBits = 1;
    for (const std::string &name : workloads::benchmarkNames()) {
        const compiler::CompiledProgram cp = compiler::compileProgram(
            workloads::buildBenchmark(name, 1));
        const sim::RunResult r = sim::simulate(cp, cfg);
        EXPECT_GT(r.reads, 0u) << name;
        EXPECT_EQ(r.oracleViolations, 0u) << name;
    }
}
