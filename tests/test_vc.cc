/** @file Tests for the version-control (Cheong-Veidenbaum) scheme. */

#include <gtest/gtest.h>

#include "hir/builder.hh"
#include "mem/vc_scheme.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::mem;
using namespace hscd::sim;
using compiler::MarkKind;

namespace {

struct Rig
{
    Rig()
        : memory(1 << 20),
          network(cfg.procs, cfg.networkRadix, cfg.maxNetworkLoad)
    {
        cfg.scheme = SchemeKind::VC;
        scheme = makeScheme(cfg, memory, network);
    }

    AccessResult
    read(ProcId p, Addr a, std::uint32_t array,
         MarkKind mark = MarkKind::Normal)
    {
        MemOp op;
        op.proc = p;
        op.addr = a;
        op.arrayId = array;
        op.mark = mark;
        op.now = ++now;
        return scheme->access(op);
    }

    AccessResult
    write(ProcId p, Addr a, std::uint32_t array, bool critical = false)
    {
        MemOp op;
        op.proc = p;
        op.addr = a;
        op.arrayId = array;
        op.write = true;
        op.stamp = ++stamp;
        op.critical = critical;
        op.now = ++now;
        return scheme->access(op);
    }

    void boundary() { scheme->epochBoundary(++epoch); }

    VcScheme &vc() { return *dynamic_cast<VcScheme *>(scheme.get()); }

    MachineConfig cfg;
    MainMemory memory;
    net::Network network;
    std::unique_ptr<CoherenceScheme> scheme;
    Cycles now = 0;
    ValueStamp stamp = 0;
    EpochId epoch = 0;
};

} // namespace

TEST(VcScheme, VersionBumpsOnlyForWrittenArrays)
{
    Rig rig;
    rig.write(0, 0x100, 1);
    EXPECT_EQ(rig.vc().cvn(1), 0u);
    EXPECT_EQ(rig.vc().cvn(2), 0u);
    rig.boundary();
    EXPECT_EQ(rig.vc().cvn(1), 1u);
    EXPECT_EQ(rig.vc().cvn(2), 0u) << "untouched arrays keep their CVN";
    rig.boundary();
    EXPECT_EQ(rig.vc().cvn(1), 1u) << "no writes, no bump";
}

TEST(VcScheme, StaleCopyAgedOutByVersion)
{
    Rig rig;
    rig.read(1, 0x100, 1); // P1 caches (bvn = 0)
    rig.boundary();
    rig.write(0, 0x100, 1); // epoch 1 write
    rig.boundary();         // CVN(1) -> ... > bvn
    auto r = rig.read(1, 0x100, 1);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.observed, 1u);
    EXPECT_EQ(r.cls, MissClass::TrueShare);
}

TEST(VcScheme, WriterKeepsItsCopyAcrossTheBump)
{
    Rig rig;
    rig.write(0, 0x100, 1); // bvn = cvn+1 = 1
    rig.boundary();         // cvn -> 1
    auto r = rig.read(0, 0x100, 1);
    EXPECT_TRUE(r.hit) << "the producer's copy is the newest version";
    EXPECT_EQ(r.observed, 1u);
}

TEST(VcScheme, PerVariableGranularityOverInvalidates)
{
    // P1 caches element 0; P0 writes a DIFFERENT element of the same
    // array. TPI's per-word tags would keep P1's copy (with a suitable
    // d); VC ages the whole variable: P1 must refetch.
    Rig rig;
    rig.read(1, 0x100, 1);
    rig.boundary();
    rig.write(0, 0x900, 1); // same array, far-away element
    rig.boundary();
    auto r = rig.read(1, 0x100, 1);
    EXPECT_FALSE(r.hit) << "per-variable versioning loses the copy";
    EXPECT_EQ(r.cls, MissClass::Conservative)
        << "the data was actually fresh: an unnecessary miss";
}

TEST(VcScheme, DifferentArraysDoNotInterfere)
{
    Rig rig;
    rig.read(1, 0x100, 1);
    rig.boundary();
    rig.write(0, 0x10000, 2); // another array entirely
    rig.boundary();
    EXPECT_TRUE(rig.read(1, 0x100, 1).hit);
}

TEST(VcScheme, CriticalWriteNotVouchedPastTheBump)
{
    Rig rig;
    rig.write(0, 0x100, 1, true);  // lock-ordered: bvn = cvn
    rig.write(1, 0x100, 1, true);  // later lock owner, same epoch
    rig.boundary();
    auto r = rig.read(0, 0x100, 1);
    EXPECT_FALSE(r.hit) << "P0's copy may predate P1's update";
    EXPECT_EQ(r.observed, 2u);
}

TEST(VcScheme, BypassAlwaysFetches)
{
    Rig rig;
    rig.write(0, 0x100, 1);
    auto r = rig.read(0, 0x100, 1, MarkKind::Bypass);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.observed, 1u);
}

TEST(VcScheme, TimeReadDistanceIgnored)
{
    // VC has no distance operand: marks behave like plain loads.
    Rig rig;
    rig.read(0, 0x100, 1);
    MemOp op;
    op.proc = 0;
    op.addr = 0x100;
    op.arrayId = 1;
    op.mark = MarkKind::TimeRead;
    op.distance = 999;
    op.now = 100;
    auto r = rig.scheme->access(op);
    EXPECT_TRUE(r.hit) << "version still current: distance irrelevant";
}

TEST(VcMachine, WorkloadsCoherentUnderVc)
{
    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(name, 1));
        MachineConfig cfg;
        cfg.scheme = SchemeKind::VC;
        cfg.procs = 4;
        RunResult r = simulate(cp, cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << name;
        EXPECT_EQ(r.doallViolations, 0u) << name;
    }
}

TEST(VcMachine, TpiBeatsVcOnPartialRewrites)
{
    // Each step rewrites only the low half of X but reads all of it: VC
    // ages the whole variable every step, TPI only the written words.
    hir::ProgramBuilder b;
    b.param("N", 256);
    b.array("X", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 7, [&] {
            b.doall("i", 0, 127, [&] {
                b.read("X", {b.v("i")});
                b.write("X", {b.v("i")});
            });
            b.doall("j", 128, 255, [&] { b.read("X", {b.v("j")}); });
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    MachineConfig tpi;
    tpi.scheme = SchemeKind::TPI;
    tpi.procs = 4;
    MachineConfig vc = tpi;
    vc.scheme = SchemeKind::VC;
    RunResult rt = simulate(cp, tpi);
    RunResult rv = simulate(cp, vc);
    EXPECT_EQ(rv.oracleViolations, 0u);
    EXPECT_LT(rt.readMisses, rv.readMisses)
        << "per-word timetags preserve the read-only half";
    EXPECT_GT(rv.missConservative, rt.missConservative);
}

TEST(VcMachine, SyncAndMigrationSafe)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microReduction(64, 2));
    MachineConfig cfg;
    cfg.scheme = SchemeKind::VC;
    cfg.procs = 4;
    RunResult r = simulate(cp, cfg);
    EXPECT_EQ(r.oracleViolations, 0u);

    compiler::AnalysisOptions no_aff;
    no_aff.assumeSerialAffinity = false;
    compiler::CompiledProgram cp2 = compiler::compileProgram(
        workloads::buildOcean(1), no_aff);
    cfg.migrationRate = 1.0;
    RunResult r2 = simulate(cp2, cfg);
    EXPECT_EQ(r2.oracleViolations, 0u);
}
