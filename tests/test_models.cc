/** @file Tests for the consistency-model and topology options. */

#include <gtest/gtest.h>

#include "hir/builder.hh"
#include "network/kruskal_snir.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;

namespace {

compiler::CompiledProgram &
writeHeavy()
{
    static compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildTrfd(1));
    return cp;
}

} // namespace

TEST(Consistency, SequentialStallsWriteThroughSchemes)
{
    for (SchemeKind k :
         {SchemeKind::SC, SchemeKind::TPI, SchemeKind::VC})
    {
        MachineConfig weak;
        weak.scheme = k;
        weak.procs = 4;
        MachineConfig seq = weak;
        seq.sequentialConsistency = true;
        RunResult rw = simulate(writeHeavy(), weak);
        RunResult rs = simulate(writeHeavy(), seq);
        EXPECT_EQ(rs.oracleViolations, 0u) << schemeName(k);
        // Every store now stalls for its full latency. SC's marked-read
        // misses already dominate its time, so its ratio is smaller.
        Cycles floor = k == SchemeKind::SC ? rw.cycles * 5 / 4
                                           : rw.cycles * 2;
        EXPECT_GT(rs.cycles, floor) << schemeName(k);
        EXPECT_EQ(rs.readMisses, rw.readMisses)
            << "consistency changes timing, not hits";
    }
}

TEST(Consistency, DirectoryLeastAffected)
{
    MachineConfig weak;
    weak.scheme = SchemeKind::HW;
    weak.procs = 4;
    MachineConfig seq = weak;
    seq.sequentialConsistency = true;
    RunResult rw = simulate(writeHeavy(), weak);
    RunResult rs = simulate(writeHeavy(), seq);
    double hw_ratio = double(rs.cycles) / double(rw.cycles);

    MachineConfig tweak = weak;
    tweak.scheme = SchemeKind::TPI;
    MachineConfig tseq = tweak;
    tseq.sequentialConsistency = true;
    double tpi_ratio = double(simulate(writeHeavy(), tseq).cycles) /
                       double(simulate(writeHeavy(), tweak).cycles);
    EXPECT_LT(hw_ratio, tpi_ratio)
        << "write-back hits in M keep HW cheaper under SC consistency";
}

TEST(Consistency, WeakModelWaitsAtBarriers)
{
    // Under weak consistency a write's latency is still paid at the next
    // boundary if nothing else covers it: a write-only program cannot be
    // faster than its drain time.
    hir::ProgramBuilder b;
    b.array("A", {64});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 63, [&] { b.write("A", {b.v("i")}); });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    MachineConfig cfg;
    cfg.procs = 4;
    cfg.scheme = SchemeKind::TPI;
    RunResult r = simulate(cp, cfg);
    EXPECT_GE(r.cycles, cfg.writeLatencyCycles)
        << "the final barrier drains the write buffer";
}

TEST(Topology, TorusHopCount)
{
    // 64 procs: k = 4, hops = ceil(3*4/4) = 3.
    net::Network t64(64, 2, 0.95, Topology::Torus3D);
    EXPECT_EQ(t64.stages(), 3u);
    // 512 procs: k = 8, hops = 6.
    net::Network t512(512, 2, 0.95, Topology::Torus3D);
    EXPECT_EQ(t512.stages(), 6u);
    EXPECT_EQ(t64.topology(), Topology::Torus3D);
}

TEST(Topology, ParseAndName)
{
    EXPECT_EQ(parseTopology("t3d"), Topology::Torus3D);
    EXPECT_EQ(parseTopology("MIN"), Topology::MIN);
    EXPECT_THROW(parseTopology("hypercube"), FatalError);
    EXPECT_STREQ(topologyName(Topology::Torus3D), "torus3d");
}

TEST(Topology, BothTopologiesCoherent)
{
    for (Topology topo : {Topology::MIN, Topology::Torus3D}) {
        MachineConfig cfg;
        cfg.scheme = SchemeKind::TPI;
        cfg.procs = 8;
        cfg.topology = topo;
        RunResult r = simulate(writeHeavy(), cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << topologyName(topo);
    }
}

TEST(Topology, ContentionStillMonotone)
{
    net::Network n(64, 2, 0.95, Topology::Torus3D);
    n.addTraffic(64 * 100, 0);
    n.endWindow(1000); // rho = 0.1
    double low = n.traversalWait();
    n.addTraffic(64 * 600, 0);
    n.endWindow(2000); // rho = 0.6
    EXPECT_GT(n.traversalWait(), low);
}
