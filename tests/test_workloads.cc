/**
 * @file
 * Workload validation: every benchmark builds, compiles, runs legally
 * (no data races) and coherently (no stale reads) under every scheme,
 * and exhibits its characteristic behaviour.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;
using namespace hscd::workloads;

namespace {

MachineConfig
cfg(SchemeKind k, unsigned procs = 8)
{
    MachineConfig c;
    c.scheme = k;
    c.procs = procs;
    return c;
}

} // namespace

class BenchmarkSuite : public testing::TestWithParam<std::string>
{
};

TEST_P(BenchmarkSuite, BuildsAndCompiles)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(buildBenchmark(GetParam(), 1));
    EXPECT_GT(cp.program.refCount(), 5u);
    EXPECT_GT(cp.graph.nodes().size(), 3u);
    EXPECT_GT(cp.marking.stats().reads, 0u);
    EXPECT_GT(cp.marking.stats().timeRead, 0u)
        << "every benchmark should have potentially-stale reads";
}

TEST_P(BenchmarkSuite, CoherentUnderAllSchemes)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(buildBenchmark(GetParam(), 1));
    for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC, SchemeKind::TPI,
                         SchemeKind::HW})
    {
        RunResult r = simulate(cp, cfg(k, 4));
        EXPECT_EQ(r.doallViolations, 0u)
            << GetParam() << " must be a legal DOALL program";
        EXPECT_EQ(r.oracleViolations, 0u)
            << GetParam() << " under " << schemeName(k);
        EXPECT_GT(r.parallelEpochs, 0u);
    }
}

TEST_P(BenchmarkSuite, CoherentAtWideLinesAndNarrowTags)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(buildBenchmark(GetParam(), 1));
    for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
        MachineConfig c = cfg(k, 4);
        c.lineBytes = 64;
        c.timetagBits = 3;
        RunResult r = simulate(cp, c);
        EXPECT_EQ(r.oracleViolations, 0u)
            << GetParam() << " under " << schemeName(k);
    }
}

INSTANTIATE_TEST_SUITE_P(Perfect, BenchmarkSuite,
                         testing::Values("ADM", "FLO52", "OCEAN", "QCD2",
                                         "SPEC77", "TRFD"),
                         [](const auto &info) { return info.param; });

TEST(Workloads, RegistryRoundTrip)
{
    for (const std::string &name : benchmarkNames()) {
        hir::Program p = buildBenchmark(name, 1);
        EXPECT_GT(p.refCount(), 0u) << name;
    }
    EXPECT_THROW(buildBenchmark("nope"), FatalError);
    EXPECT_EQ(benchmarkNames().size(), 6u);
}

TEST(Workloads, ScaleGrowsWork)
{
    for (const std::string &name : benchmarkNames()) {
        compiler::CompiledProgram s1 =
            compiler::compileProgram(buildBenchmark(name, 1));
        compiler::CompiledProgram s2 =
            compiler::compileProgram(buildBenchmark(name, 2));
        RunResult r1 = simulate(s1, cfg(SchemeKind::TPI, 4));
        RunResult r2 = simulate(s2, cfg(SchemeKind::TPI, 4));
        EXPECT_GT(r2.reads, r1.reads) << name;
    }
}

TEST(Workloads, TrfdHasRedundantWriteTraffic)
{
    // TRFD rewrites accumulator words ~M times: the cache-organized write
    // buffer must remove most of the write-through packets.
    compiler::CompiledProgram cp =
        compiler::compileProgram(buildTrfd(1));
    MachineConfig plain = cfg(SchemeKind::TPI, 8);
    MachineConfig coalescing = cfg(SchemeKind::TPI, 8);
    coalescing.writeBufferAsCache = true;
    RunResult rp = simulate(cp, plain);
    RunResult rc = simulate(cp, coalescing);
    EXPECT_LT(rc.writePackets, rp.writePackets / 2)
        << "redundant-write elimination should at least halve TRFD's "
           "write traffic";
    EXPECT_EQ(rc.oracleViolations, 0u);
}

TEST(Workloads, MicrokernelsCoherent)
{
    std::vector<hir::Program> programs;
    programs.push_back(microJacobi(64, 3));
    programs.push_back(microMatmul(10));
    programs.push_back(microReduction(64, 2));
    programs.push_back(microTranspose(12, 2));
    programs.push_back(microPipeline(64, 2));
    programs.push_back(microLu(12));
    programs.push_back(microFft(64, 2));
    programs.push_back(microSerialReuse());
    programs.push_back(microCallSolver(64, 2));
    for (hir::Program &p : programs) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(std::move(p));
        for (SchemeKind k :
             {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW})
        {
            RunResult r = simulate(cp, cfg(k, 4));
            EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
            EXPECT_EQ(r.doallViolations, 0u);
        }
    }
}

TEST(Workloads, LuShrinkingParallelismUnbalancesBlocks)
{
    compiler::CompiledProgram cp = compiler::compileProgram(microLu(24));
    MachineConfig c = cfg(SchemeKind::TPI, 8);
    RunResult r = simulate(cp, c);
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_GT(r.imbalance(), 1.2)
        << "trailing updates shrink: block chunks go idle";
}

TEST(Workloads, FftShuffleDefeatsAffinity)
{
    // The perfect shuffle moves every element across tasks each round:
    // Time-Read hits should be rare even under block scheduling.
    compiler::CompiledProgram cp =
        compiler::compileProgram(microFft(256, 4));
    RunResult r = simulate(cp, cfg(SchemeKind::TPI, 8));
    EXPECT_EQ(r.oracleViolations, 0u);
    double hit = r.timeReads
                     ? double(r.timeReadHits) / double(r.timeReads)
                     : 0.0;
    // Spatial side-fills still serve ~3 of 4 word reads; the temporal
    // (cross-round) component that stencils enjoy (~88% hit rate, see
    // MissRateOrderingOnLocalityWorkload) is gone.
    EXPECT_LT(hit, 0.85) << "all-to-all motion breaks processor affinity";
}

TEST(Workloads, Spec77BroadcastReadsAreTimeReads)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(buildSpec77(1));
    RunResult r = simulate(cp, cfg(SchemeKind::TPI, 4));
    EXPECT_GT(r.timeReads, r.reads / 4)
        << "broadcast reads of freshly written coefficients dominate";
}

TEST(Workloads, AdmVerticalSolveHasCoveredLocality)
{
    compiler::CompiledProgram cp = compiler::compileProgram(buildAdm(1));
    const auto &st = cp.marking.stats();
    EXPECT_GT(st.covered + st.readOnly, 0u)
        << "tridiagonal sweeps should yield compiler-proven-fresh reads";
    RunResult r = simulate(cp, cfg(SchemeKind::TPI, 4));
    EXPECT_EQ(r.oracleViolations, 0u);
}
