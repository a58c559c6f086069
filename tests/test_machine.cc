/** @file End-to-end machine tests across all coherence schemes. */

#include <gtest/gtest.h>

#include "hir/builder.hh"
#include "sim/machine.hh"
#include "sim/ready_heap.hh"

using namespace hscd;
using namespace hscd::hir;
using namespace hscd::sim;

namespace {

compiler::CompiledProgram
jacobiLike(int n = 64, int steps = 4)
{
    // do t { DOALL i: NEW(i) = f(OLD(i-1), OLD(i), OLD(i+1)); barrier;
    //         DOALL i: OLD(i) = NEW(i) }
    ProgramBuilder b;
    b.param("N", n);
    b.array("OLD", {"N"});
    b.array("NEW", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            b.write("OLD", {b.v("init")});
        });
        b.doserial("t", 0, steps - 1, [&] {
            b.doall("i", 1, n - 2, [&] {
                b.read("OLD", {b.v("i") - 1});
                b.read("OLD", {b.v("i")});
                b.read("OLD", {b.v("i") + 1});
                b.compute(4);
                b.write("NEW", {b.v("i")});
            });
            b.doall("j", 1, n - 2, [&] {
                b.read("NEW", {b.v("j")});
                b.write("OLD", {b.v("j")});
            });
        });
    });
    return compiler::compileProgram(b.build());
}

MachineConfig
cfgFor(SchemeKind k, unsigned procs = 4)
{
    MachineConfig c;
    c.scheme = k;
    c.procs = procs;
    return c;
}

} // namespace

TEST(Machine, AllSchemesCoherentOnJacobi)
{
    compiler::CompiledProgram cp = jacobiLike();
    for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC, SchemeKind::TPI,
                         SchemeKind::HW})
    {
        RunResult r = simulate(cp, cfgFor(k));
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
        EXPECT_EQ(r.doallViolations, 0u) << schemeName(k);
        EXPECT_GT(r.reads, 0u);
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(Machine, SchemesAgreeOnReferenceCounts)
{
    compiler::CompiledProgram cp = jacobiLike();
    RunResult base = simulate(cp, cfgFor(SchemeKind::Base));
    for (SchemeKind k :
         {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW})
    {
        RunResult r = simulate(cp, cfgFor(k));
        EXPECT_EQ(r.reads, base.reads) << schemeName(k);
        EXPECT_EQ(r.writes, base.writes) << schemeName(k);
        EXPECT_EQ(r.epochs, base.epochs) << schemeName(k);
        EXPECT_EQ(r.tasks, base.tasks) << schemeName(k);
    }
}

TEST(Machine, DeterministicAcrossRuns)
{
    compiler::CompiledProgram cp = jacobiLike();
    RunResult a = simulate(cp, cfgFor(SchemeKind::TPI));
    RunResult b = simulate(cp, cfgFor(SchemeKind::TPI));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.readMisses, b.readMisses);
    EXPECT_EQ(a.trafficWords, b.trafficWords);
}

TEST(Machine, MissRateOrderingOnLocalityWorkload)
{
    // BASE caches nothing; SC refetches every marked read; TPI exploits
    // inter-task locality with an affine schedule; HW caches hardware-
    // coherently. Expect BASE >= SC >= TPI on read miss rate.
    compiler::CompiledProgram cp = jacobiLike(128, 6);
    double base = simulate(cp, cfgFor(SchemeKind::Base)).readMissRate;
    double sc = simulate(cp, cfgFor(SchemeKind::SC)).readMissRate;
    double tpi = simulate(cp, cfgFor(SchemeKind::TPI)).readMissRate;
    EXPECT_GE(base, sc);
    EXPECT_GT(sc, tpi) << "timetags must recover inter-task locality";
    EXPECT_DOUBLE_EQ(base, 1.0);
}

TEST(Machine, TpiTimeReadHitsOnStableSchedule)
{
    compiler::CompiledProgram cp = jacobiLike(128, 6);
    RunResult r = simulate(cp, cfgFor(SchemeKind::TPI));
    EXPECT_GT(r.timeReads, 0u);
    EXPECT_GT(r.timeReadHits, r.timeReads / 2)
        << "block scheduling re-runs iterations on the same processor; "
           "most Time-Reads should hit";
}

TEST(Machine, ExecutionTimeOrdering)
{
    // TPI must beat both BASE (no caching) and SC (no inter-task
    // locality). BASE vs SC is workload-dependent: with almost every
    // read marked, SC's line-grain refetches can cost more than BASE's
    // word fetches, as on this stencil.
    compiler::CompiledProgram cp = jacobiLike(128, 6);
    Cycles base = simulate(cp, cfgFor(SchemeKind::Base)).cycles;
    Cycles sc = simulate(cp, cfgFor(SchemeKind::SC)).cycles;
    Cycles tpi = simulate(cp, cfgFor(SchemeKind::TPI)).cycles;
    EXPECT_GT(base, tpi);
    EXPECT_GT(sc, tpi);
}

TEST(Machine, SerialOnlyProgramRunsOnProcZero)
{
    ProgramBuilder b;
    b.array("A", {32});
    b.proc("MAIN", [&] {
        b.doserial("k", 0, 31, [&] {
            b.write("A", {b.v("k")});
            b.read("A", {b.v("k")});
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    RunResult r = simulate(cp, cfgFor(SchemeKind::TPI));
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_EQ(r.parallelEpochs, 0u);
    // Reads are covered by the preceding writes: all hits.
    EXPECT_EQ(r.readMisses, 0u);
}

TEST(Machine, CriticalSectionReduction)
{
    // Classic reduction: every task accumulates into S(0) under a lock.
    ProgramBuilder b;
    b.array("S", {4});
    b.array("A", {64});
    b.proc("MAIN", [&] {
        b.write("S", {b.c(0)});
        b.doall("i", 0, 63, [&] {
            b.read("A", {b.v("i")});
            b.critical([&] {
                b.read("S", {b.c(0)});
                b.write("S", {b.c(0)});
            });
        });
        b.read("S", {b.c(0)});
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC, SchemeKind::TPI,
                         SchemeKind::HW})
    {
        RunResult r = simulate(cp, cfgFor(k));
        EXPECT_EQ(r.oracleViolations, 0u)
            << schemeName(k) << ": lock-ordered updates must be seen";
        EXPECT_EQ(r.doallViolations, 0u) << schemeName(k);
    }
}

TEST(Machine, SchedulingPoliciesAllCoherent)
{
    compiler::CompiledProgram cp = jacobiLike(96, 4);
    for (SchedPolicy s :
         {SchedPolicy::Block, SchedPolicy::Cyclic, SchedPolicy::Dynamic})
    {
        MachineConfig c = cfgFor(SchemeKind::TPI);
        c.sched = s;
        RunResult r = simulate(cp, c);
        EXPECT_EQ(r.oracleViolations, 0u) << schedName(s);
    }
}

TEST(Machine, CyclicScheduleLosesTpiLocality)
{
    // Under block scheduling task i returns to the same processor each
    // time step; under cyclic it does too (same mapping), but dynamic
    // scheduling scrambles the mapping and Time-Read hits drop.
    compiler::CompiledProgram cp = jacobiLike(128, 6);
    MachineConfig blockc = cfgFor(SchemeKind::TPI);
    MachineConfig dync = cfgFor(SchemeKind::TPI);
    dync.sched = SchedPolicy::Dynamic;
    dync.dynamicChunk = 1;
    RunResult rb = simulate(cp, blockc);
    RunResult rd = simulate(cp, dync);
    EXPECT_EQ(rd.oracleViolations, 0u)
        << "correctness must not depend on the schedule";
    EXPECT_LE(rd.timeReadHits, rb.timeReadHits)
        << "hardware locality degrades, correctness does not";
}

TEST(Machine, HwFalseSharingAppearsWithWideLines)
{
    // Adjacent tasks write adjacent words: with 64-byte lines the HW
    // directory ping-pongs, the word-granular TPI does not.
    ProgramBuilder b;
    b.param("N", 256);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 5, [&] {
            b.doall("i", 0, 255, [&] {
                b.read("A", {b.v("i")});
                b.write("A", {b.v("i")});
            });
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());

    MachineConfig hw = cfgFor(SchemeKind::HW, 8);
    hw.lineBytes = 64;
    hw.sched = SchedPolicy::Cyclic; // adjacent words on different procs
    RunResult rhw = simulate(cp, hw);
    EXPECT_GT(rhw.missFalseShare, 0u);

    MachineConfig tpi = cfgFor(SchemeKind::TPI, 8);
    tpi.lineBytes = 64;
    tpi.sched = SchedPolicy::Cyclic;
    RunResult rtpi = simulate(cp, tpi);
    EXPECT_EQ(rtpi.missFalseShare, 0u)
        << "word-granularity coherence has no false sharing";
    EXPECT_EQ(rtpi.oracleViolations, 0u);
    EXPECT_EQ(rhw.oracleViolations, 0u);
}

TEST(Machine, MigrationBreaksAffinityAssumption)
{
    // Serial epochs write/read A with only-serial threats: compiled WITH
    // affinity the reads are Normal; if serial tasks then migrate, stale
    // copies are read - the oracle must catch it. Compiled WITHOUT
    // affinity the reads are Time-Reads and stay correct.
    ProgramBuilder b;
    b.array("A", {64});
    b.array("B", {64});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 19, [&] {
            b.doserial("k", 0, 63, [&] { b.write("A", {b.v("k")}); });
            b.doall("i", 0, 63, [&] { b.write("B", {b.v("i")}); });
            b.doserial("k2", 0, 63, [&] { b.read("A", {b.v("k2")}); });
        });
    });
    Program prog = b.build();

    compiler::AnalysisOptions with_aff;
    with_aff.assumeSerialAffinity = true;
    compiler::CompiledProgram cp_aff =
        compiler::compileProgram(std::move(prog), with_aff);

    MachineConfig mig = cfgFor(SchemeKind::TPI, 4);
    mig.migrationRate = 1.0;
    RunResult r_broken = simulate(cp_aff, mig);
    EXPECT_GT(r_broken.oracleViolations, 0u)
        << "affinity-compiled code is unsound under migration";

    // Rebuild the same program without the affinity assumption.
    ProgramBuilder b2;
    b2.array("A", {64});
    b2.array("B", {64});
    b2.proc("MAIN", [&] {
        b2.doserial("t", 0, 19, [&] {
            b2.doserial("k", 0, 63, [&] { b2.write("A", {b2.v("k")}); });
            b2.doall("i", 0, 63, [&] { b2.write("B", {b2.v("i")}); });
            b2.doserial("k2", 0, 63, [&] { b2.read("A", {b2.v("k2")}); });
        });
    });
    compiler::AnalysisOptions no_aff;
    no_aff.assumeSerialAffinity = false;
    compiler::CompiledProgram cp_no =
        compiler::compileProgram(b2.build(), no_aff);
    RunResult r_fixed = simulate(cp_no, mig);
    EXPECT_EQ(r_fixed.oracleViolations, 0u)
        << "migration-safe compilation keeps the scheme coherent";
}

TEST(Machine, IllegalDoallDetected)
{
    // Task i reads A(i+1), which task i+1 writes: a data race.
    ProgramBuilder b;
    b.array("A", {64});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 62, [&] {
            b.read("A", {b.v("i") + 1});
            b.write("A", {b.v("i")});
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    RunResult r = simulate(cp, cfgFor(SchemeKind::TPI));
    EXPECT_GT(r.doallViolations, 0u);
}

TEST(Machine, BarrierStatementForcesEpoch)
{
    ProgramBuilder b;
    b.array("A", {8});
    b.proc("MAIN", [&] {
        b.write("A", {b.c(0)});
        b.barrier();
        b.read("A", {b.c(0)});
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    RunResult r = simulate(cp, cfgFor(SchemeKind::TPI));
    EXPECT_EQ(r.epochs, 1u);
    EXPECT_EQ(r.oracleViolations, 0u);
}

TEST(Machine, RunIsSingleShot)
{
    compiler::CompiledProgram cp = jacobiLike(16, 1);
    Machine m(cp, cfgFor(SchemeKind::TPI));
    m.run();
    EXPECT_THROW(m.run(), PanicError);
}

TEST(Machine, ResultHarvestsSchemeAndNetworkCounters)
{
    compiler::CompiledProgram cp = jacobiLike(32, 2);
    Machine m(cp, cfgFor(SchemeKind::TPI));
    const RunResult r = m.run();
    const mem::SchemeStats &st = m.scheme().stats();
    EXPECT_GT(st.reads, 0u);
#define HSCD_EXPECT_HARVESTED(type, member, ...)                             \
    EXPECT_EQ(r.member, st.member) << #member;
    HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_EXPECT_HARVESTED)
#undef HSCD_EXPECT_HARVESTED
    ASSERT_GT(st.missLatencyCount, 0u);
    EXPECT_EQ(r.avgMissLatency,
              st.missLatencySum / double(st.missLatencyCount));
    EXPECT_EQ(r.trafficPackets, m.network().totalPackets());
    EXPECT_EQ(r.trafficWords, m.network().totalWords());
}

TEST(Machine, TinyTimetagsCauseTagResetMisses)
{
    // Read-only coefficient tables live in the cache indefinitely with
    // wide timetags; every two-phase reset of a narrow tag wipes them.
    ProgramBuilder b;
    b.param("N", 64);
    b.array("COEF", {"N"});
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        // COEF is never written: its reads stay unmarked normal reads
        // whose timetags are never refreshed.
        b.doserial("t", 0, 39, [&] {
            b.doall("i", 0, 63, [&] {
                b.read("COEF", {b.v("i")});
                b.read("A", {b.v("i")});
                b.write("A", {b.v("i")});
            });
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    MachineConfig narrow = cfgFor(SchemeKind::TPI);
    narrow.timetagBits = 2; // phase of 2 epochs: constant resets
    RunResult rn = simulate(cp, narrow);
    MachineConfig wide = cfgFor(SchemeKind::TPI);
    wide.timetagBits = 8;
    RunResult rw = simulate(cp, wide);
    EXPECT_EQ(rn.oracleViolations, 0u)
        << "narrow tags cost performance, never correctness";
    EXPECT_EQ(rw.oracleViolations, 0u);
    EXPECT_GT(rn.readMisses, rw.readMisses);
    EXPECT_GT(rn.missTagReset, 0u);
    EXPECT_EQ(rw.missTagReset, 0u);
    EXPECT_GT(rn.cycles, rw.cycles);
}

TEST(Machine, UnknownSubscriptsStayCoherent)
{
    ProgramBuilder b;
    b.array("X", {64});
    b.array("IDX", {64});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 3, [&] {
            b.doall("i", 0, 63, [&] { b.write("X", {b.v("i")}); });
            b.doall("j", 0, 63, [&] { b.read("X", {b.unknown()}); });
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    for (SchemeKind k :
         {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW})
    {
        RunResult r = simulate(cp, cfgFor(k));
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
    }
}

/**
 * The config is validated before any part is built from it: a zero line
 * size used to reach the line-history and cache constructors first and
 * die of a division by zero instead of throwing.
 */
TEST(Machine, InvalidConfigThrowsBeforeBuildingParts)
{
    compiler::CompiledProgram cp = jacobiLike(16, 1);
    for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC, SchemeKind::TPI,
                         SchemeKind::HW, SchemeKind::VC})
    {
        MachineConfig cfg = cfgFor(k);
        cfg.lineBytes = 0;
        EXPECT_THROW(Machine(cp, cfg), FatalError) << schemeName(k);
    }
}

/**
 * The merge loop orders processors by keys that hold times below 2^52
 * cycles. A clock pushed past that limit (here by a huge barrier cost)
 * ends the run as a structured abort at the first parallel epoch; a
 * large clock within the limit runs to completion.
 */
TEST(Machine, ClockPastTheReadyHeapLimitAbortsStructured)
{
    compiler::CompiledProgram cp = jacobiLike(16, 2);
    for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
        MachineConfig cfg = cfgFor(k);
        cfg.barrierCycles = ReadyHeap::kTimeLimit;
        const RunResult r = simulate(cp, cfg);
        ASSERT_TRUE(r.aborted()) << schemeName(k);
        EXPECT_EQ(r.abort.kind, fault::AbortKind::ClockLimit);
        EXPECT_GE(r.abort.cycle, ReadyHeap::kTimeLimit);
        EXPECT_LT(r.abort.proc, cfg.procs);
        EXPECT_EQ(r.abort.epoch, 1u) << "the first DOALL's epoch";
        EXPECT_EQ(r.parallelEpochs, 1u);

        MachineConfig within = cfgFor(k);
        within.barrierCycles = Cycles(1) << 40;
        const RunResult ok = simulate(cp, within);
        const RunResult base = simulate(cp, cfgFor(k));
        EXPECT_FALSE(ok.aborted()) << schemeName(k);
        EXPECT_GT(ok.cycles, Cycles(1) << 40);
        EXPECT_EQ(ok.reads, base.reads);
        EXPECT_EQ(ok.oracleViolations, 0u);
    }
}
