/** @file Degenerate machine shapes every scheme must still handle. */

#include <gtest/gtest.h>

#include "hir/builder.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;

namespace {

compiler::CompiledProgram &
mixed()
{
    static compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microReduction(48, 2));
    return cp;
}

compiler::CompiledProgram &
jacobi()
{
    static compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microJacobi(96, 3));
    return cp;
}

} // namespace

TEST(EdgeMachines, SingleProcessorRunsEverything)
{
    for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC, SchemeKind::VC,
                         SchemeKind::TPI, SchemeKind::HW})
    {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 1;
        RunResult r = simulate(jacobi(), cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
        EXPECT_GT(r.reads, 0u);
    }
}

TEST(EdgeMachines, SingleProcessorTpiStillSelfCoherent)
{
    // With one processor nothing can be stale, but Time-Reads still run
    // the tag machinery; conservative misses are allowed, wrong values
    // are not.
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 1;
    cfg.timetagBits = 2;
    RunResult r = simulate(mixed(), cfg);
    EXPECT_EQ(r.oracleViolations, 0u);
}

TEST(EdgeMachines, NonPowerOfTwoProcessorCounts)
{
    for (unsigned procs : {3u, 5u, 7u, 13u}) {
        MachineConfig cfg;
        cfg.scheme = SchemeKind::TPI;
        cfg.procs = procs;
        RunResult r = simulate(jacobi(), cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << procs << " procs";
        EXPECT_EQ(r.doallViolations, 0u);
    }
}

TEST(EdgeMachines, SingleWordLinesHaveNoSideFills)
{
    // 4-byte lines: no side-filled words, no spatial hits, no false
    // sharing anywhere.
    for (SchemeKind k : {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW})
    {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 4;
        cfg.lineBytes = 4;
        RunResult r = simulate(jacobi(), cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
        EXPECT_EQ(r.missFalseShare, 0u)
            << "one word per line cannot false-share";
    }
}

TEST(EdgeMachines, MoreProcessorsThanIterations)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microJacobi(16, 2));
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 32; // DOALLs have 14 iterations: most processors idle
    RunResult r = simulate(cp, cfg);
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(EdgeMachines, TinyCacheThrashesButStaysCoherent)
{
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 4;
    cfg.cacheBytes = 128; // 8 lines
    RunResult r = simulate(jacobi(), cfg);
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_GT(r.missReplacement, 0u);
}

TEST(EdgeMachines, HighAssociativityEqualsFullyAssociativeSets)
{
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 4;
    cfg.cacheBytes = 1024;
    cfg.assoc = 64; // 1 set of 64 ways
    RunResult r = simulate(jacobi(), cfg);
    EXPECT_EQ(r.oracleViolations, 0u);
}

TEST(EdgeMachines, SixtyFourProcessorsAllSchemes)
{
    for (SchemeKind k : {SchemeKind::SC, SchemeKind::VC, SchemeKind::TPI,
                         SchemeKind::HW})
    {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 64;
        RunResult r = simulate(jacobi(), cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
    }
}

TEST(EdgeMachines, DirectoryRejectsOver64Procs)
{
    compiler::CompiledProgram &cp = jacobi();
    MachineConfig cfg;
    cfg.scheme = SchemeKind::HW;
    cfg.procs = 65;
    // A user-facing config error, rejected by MachineConfig::validate()
    // before the directory is built.
    EXPECT_THROW(Machine(cp, cfg), FatalError)
        << "full-map presence bits are 64-wide here";
}

TEST(EdgeMachines, EmptyProgramTerminates)
{
    hir::ProgramBuilder b;
    b.proc("MAIN", [&] {});
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    RunResult r = simulate(cp, cfg);
    EXPECT_EQ(r.reads, 0u);
    EXPECT_EQ(r.epochs, 0u);
}

TEST(EdgeMachines, ComputeOnlyProgramCostsItsCycles)
{
    hir::ProgramBuilder b;
    b.proc("MAIN", [&] { b.compute(123); });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    RunResult r = simulate(cp, cfg);
    EXPECT_EQ(r.cycles, 123u);
}
