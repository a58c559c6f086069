/** @file Second-pass coverage: logging, rendering, graph/marking edges. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "hir/builder.hh"
#include "hir/printer.hh"
#include "network/kruskal_snir.hh"
#include "task_stream.hh"
#include "sim/machine.hh"

using namespace hscd;
using namespace hscd::hir;
using namespace hscd::compiler;

TEST(Log, FatalCarriesFormattedMessage)
{
    try {
        fatal("bad %s: %d", "value", 42);
        FAIL() << "fatal must throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad value: 42");
    }
}

TEST(Log, PanicThrowsUnderTests)
{
    EXPECT_TRUE(Log::throwOnPanic);
    EXPECT_THROW(panic("boom %d", 1), PanicError);
}

TEST(Log, AssertMacroFormats)
{
    try {
        hscd_assert(1 == 2, "context %s", "here");
        FAIL();
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("1 == 2"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("context here"),
                  std::string::npos);
    }
}

TEST(Csprintf, ScientificAndOctal)
{
    EXPECT_EQ(csprintf("%o", 8), "10");
    const std::string e = csprintf("%.2e", 1234.5);
    EXPECT_NE(e.find("1.23e"), std::string::npos);
    EXPECT_EQ(csprintf("%+d", 5), "+5");
}

TEST(Printer, IndentWidthOption)
{
    ProgramBuilder b;
    b.array("A", {4});
    b.proc("MAIN", [&] {
        b.doserial("i", 0, 1, [&] { b.write("A", {b.v("i")}); });
    });
    Program p = b.build();
    PrintOptions opts;
    opts.indentWidth = 4;
    std::ostringstream os;
    printProcedure(os, p, 0, opts);
    EXPECT_NE(os.str().find("\n        A(i)"), std::string::npos)
        << "body nested two levels deep indents 8 spaces";
}

TEST(Network, FlitBasedLoadCountsWords)
{
    net::Network n(4, 2, 0.95);
    n.addTraffic(1, 16); // one line transfer: 16 flits of occupancy
    n.endWindow(32);
    EXPECT_NEAR(n.load(), 16.0 / (32.0 * 4.0), 1e-9);
    // Header-only packets (invalidations) count one flit each.
    net::Network m(4, 2, 0.95);
    m.addTraffic(3, 0);
    m.endWindow(32);
    EXPECT_NEAR(m.load(), 3.0 / 128.0, 1e-9);
    // Overload clamps at the configured maximum.
    net::Network o(4, 2, 0.95);
    o.addTraffic(1, 1000);
    o.endWindow(4);
    EXPECT_NEAR(o.load(), 0.95, 1e-9);
}

TEST(Network, Radix4HasFewerStages)
{
    net::Network n2(16, 2, 0.95);
    net::Network n4(16, 4, 0.95);
    EXPECT_EQ(n2.stages(), 4u);
    EXPECT_EQ(n4.stages(), 2u);
}

TEST(EpochGraph2, NestedTimeLoopsCompoundCycleDistance)
{
    // DOALL inside two nested serial loops: the inner cycle is the
    // shortest (2 boundaries), so marking still uses 2.
    ProgramBuilder b;
    b.array("A", {16});
    RefId r = invalidRef;
    b.proc("MAIN", [&] {
        b.doserial("t1", 0, 2, [&] {
            b.doserial("t2", 0, 2, [&] {
                b.doall("i", 0, 15, [&] {
                    r = b.read("A", {b.v("i")});
                    b.write("A", {b.v("i")});
                });
            });
        });
    });
    Program p = b.build();
    CompiledProgram cp = compileProgram(std::move(p));
    EXPECT_EQ(cp.marking.mark(r).kind, MarkKind::TimeRead);
    EXPECT_EQ(cp.marking.mark(r).distance, 2u);
}

TEST(EpochGraph2, TwoDoallsInOneTimeLoopBody)
{
    // read in DOALL-1 of iteration t+1 vs write in DOALL-2 of iteration
    // t: exit(1) + entry(1) = 2; vs write in DOALL-1 itself: cycle = 4.
    ProgramBuilder b;
    b.array("A", {16});
    b.array("B", {16});
    RefId ra = invalidRef;
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 2, [&] {
            b.doall("i", 0, 15, [&] {
                ra = b.read("A", {b.v("i")});
                b.write("B", {b.v("i")});
            });
            b.doall("j", 0, 15, [&] {
                b.read("B", {b.v("j")});
                b.write("A", {b.v("j")});
            });
        });
    });
    CompiledProgram cp = compileProgram(b.build());
    EXPECT_EQ(cp.marking.mark(ra).distance, 2u);
}

TEST(EpochGraph2, UnknownWriteThreatensWholeArray)
{
    ProgramBuilder b;
    b.array("A", {64});
    RefId r = invalidRef;
    b.proc("MAIN", [&] {
        b.doall("i", 0, 15, [&] { b.write("A", {b.unknown()}); });
        b.doall("j", 0, 15, [&] { r = b.read("A", {b.v("j") + 40}); });
    });
    CompiledProgram cp = compileProgram(b.build());
    EXPECT_EQ(cp.marking.mark(r).kind, MarkKind::TimeRead)
        << "an unanalyzable write covers every element";
}

TEST(EpochGraph2, SerialCriticalSectionStaysInEpoch)
{
    ProgramBuilder b;
    b.array("A", {8});
    b.proc("MAIN", [&] {
        b.write("A", {b.c(0)});
        b.critical([&] { b.read("A", {b.c(0)}); });
    });
    Program p = b.build();
    EpochGraph g = EpochGraph::build(p);
    EXPECT_EQ(g.nodes().size(), 1u);
    EXPECT_TRUE(g.nodes()[0].refs[1].inCritical);
}

TEST(Marking2, WriteOnlyArrayReadsNothing)
{
    // Writes never make the WRITER stale; an array that is written but
    // never read yields no read marks at all.
    ProgramBuilder b;
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 15, [&] { b.write("A", {b.v("i")}); });
        b.doall("j", 0, 15, [&] { b.write("A", {b.v("j")}); });
    });
    CompiledProgram cp = compileProgram(b.build());
    EXPECT_EQ(cp.marking.stats().reads, 0u);
    EXPECT_EQ(cp.marking.stats().writes, 2u);
}

TEST(Marking2, MultiDimSeparationAcrossDims)
{
    // Write A(i, k) / read A(i, k) with parallel i: dim 0 pins the task;
    // write A(k, i) / read A(i, k) cannot be separated.
    ProgramBuilder b;
    b.array("A", {16, 16});
    b.array("B", {16, 16});
    RefId r_same = invalidRef, r_cross = invalidRef;
    b.proc("MAIN", [&] {
        b.doall("i", 0, 15, [&] {
            b.doserial("k", 0, 15, [&] {
                r_same = b.read("A", {b.v("i"), b.v("k")});
                b.write("A", {b.v("i"), b.v("k")});
                r_cross = b.read("B", {b.v("i"), b.v("k")});
                b.write("B", {b.v("k"), b.v("i")});
            });
        });
    });
    CompiledProgram cp = compileProgram(b.build());
    // r_same: same task (dim 0 equal) and no enclosing cycle -> normal.
    EXPECT_EQ(cp.marking.mark(r_same).kind, MarkKind::Normal);
    // r_cross: transposed write collides across tasks -> d = 0.
    EXPECT_EQ(cp.marking.mark(r_cross).kind, MarkKind::TimeRead);
    EXPECT_EQ(cp.marking.mark(r_cross).distance, 0u);
}

TEST(Interp2, StepLoopsInTaskMode)
{
    ProgramBuilder b;
    b.array("A", {32});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 30, [&] { b.write("A", {b.v("i")}); }, 2);
    });
    Program p = b.build();
    sim::RunCtx ctx;
    sim::TaskStream master(p, ctx, p.main().body);
    sim::TaskOp d = master.next();
    ASSERT_EQ(d.kind, sim::TaskOp::Kind::BeginDoall);
    EXPECT_EQ(d.step, 2);
}

TEST(Interp2, HashBranchDeterministic)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.doserial("k", 0, 31, [&] {
            b.ifUnknown(TakePolicy::Hash, [&] { b.compute(1); },
                        [&] { b.compute(2); });
        });
    });
    Program p = b.build();
    auto run = [&] {
        sim::RunCtx ctx;
        sim::TaskStream s(p, ctx, p.main().body);
        std::vector<Cycles> cycles;
        for (sim::TaskOp op = s.next();
             op.kind != sim::TaskOp::Kind::End; op = s.next())
            cycles.push_back(op.cycles);
        return cycles;
    };
    auto a = run();
    auto bb = run();
    EXPECT_EQ(a, bb);
    // And both branches occur.
    EXPECT_NE(std::count(a.begin(), a.end(), 1u), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), 2u), 0);
}

TEST(MachineConfig2, ValidationErrors)
{
    MachineConfig c;
    c.procs = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = MachineConfig{};
    c.lineBytes = 24;
    EXPECT_THROW(c.validate(), FatalError);
    // Timetags are 1 to 32 bits wide (the model checker runs 1-bit TPI).
    for (unsigned bits : {0u, 33u}) {
        c = MachineConfig{};
        c.timetagBits = bits;
        EXPECT_THROW(c.validate(), FatalError) << bits << " bits";
    }
    for (unsigned bits : {1u, 32u}) {
        c = MachineConfig{};
        c.timetagBits = bits;
        EXPECT_NO_THROW(c.validate()) << bits << " bits";
    }
    c = MachineConfig{};
    c.migrationRate = 2.0;
    EXPECT_THROW(c.validate(), FatalError);
    c = MachineConfig{};
    c.assoc = 3;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(MachineConfig2, ParseSchemesAndSchedules)
{
    EXPECT_EQ(parseScheme("VC"), SchemeKind::VC);
    EXPECT_EQ(parseScheme("directory"), SchemeKind::HW);
    EXPECT_THROW(parseScheme("mesi"), FatalError);
    EXPECT_EQ(parseSched("Dynamic"), SchedPolicy::Dynamic);
    EXPECT_THROW(parseSched("guided"), FatalError);
    EXPECT_STREQ(schemeName(SchemeKind::VC), "VC");
}

TEST(MachineConfig2, StrMentionsKeyFacts)
{
    MachineConfig c;
    c.scheme = SchemeKind::HW;
    const std::string s = c.str();
    EXPECT_NE(s.find("HW"), std::string::npos);
    EXPECT_NE(s.find("16 procs"), std::string::npos);
    EXPECT_NE(s.find("64KB"), std::string::npos);
}
