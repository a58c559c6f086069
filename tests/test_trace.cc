/** @file Tests for trace capture, serialization, and replay. */

#include <gtest/gtest.h>

#include <sstream>

#include "program_gen.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "sim/trace.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;

namespace {

struct Captured
{
    std::vector<TraceRecord> records;
    RunResult run;
    Addr dataBytes;
    MachineConfig cfg;
};

Captured
capture(SchemeKind k)
{
    static compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::microJacobi(96, 4));
    Captured out;
    out.cfg.scheme = k;
    out.cfg.procs = 4;
    out.dataBytes = cp.program.dataBytes();
    Machine m(cp, out.cfg);
    TraceBuffer buf;
    m.setTraceSink(&buf);
    out.run = m.run();
    out.records = buf.take();
    return out;
}

} // namespace

TEST(Trace, CaptureShape)
{
    Captured c = capture(SchemeKind::TPI);
    Counter accesses = 0, boundaries = 0;
    for (const TraceRecord &r : c.records) {
        if (r.type == TraceRecord::Type::Access)
            ++accesses;
        else
            ++boundaries;
    }
    EXPECT_EQ(accesses, c.run.reads + c.run.writes);
    EXPECT_EQ(boundaries, c.run.epochs);
}

TEST(Trace, RoundTripSerialization)
{
    Captured c = capture(SchemeKind::TPI);
    std::stringstream ss;
    writeTrace(ss, c.records, c.cfg.procs, c.dataBytes);
    ParsedTrace parsed = readTrace(ss);
    EXPECT_EQ(parsed.procs, c.cfg.procs);
    EXPECT_EQ(parsed.dataBytes, c.dataBytes);
    ASSERT_EQ(parsed.records.size(), c.records.size());
    for (std::size_t i = 0; i < c.records.size(); ++i) {
        const TraceRecord &a = c.records[i];
        const TraceRecord &b = parsed.records[i];
        ASSERT_EQ(a.type, b.type) << "record " << i;
        if (a.type == TraceRecord::Type::Access) {
            EXPECT_EQ(a.op.proc, b.op.proc);
            EXPECT_EQ(a.op.addr, b.op.addr);
            EXPECT_EQ(a.op.write, b.op.write);
            EXPECT_EQ(a.op.mark, b.op.mark);
            EXPECT_EQ(a.op.distance, b.op.distance);
            EXPECT_EQ(a.op.stamp, b.op.stamp);
            EXPECT_EQ(a.op.critical, b.op.critical);
        } else {
            EXPECT_EQ(a.epoch, b.epoch);
        }
    }
}

TEST(Trace, ReplayReproducesMissCounts)
{
    // Replaying through an identical (direct-mapped) machine must give
    // byte-identical miss behaviour: hits and misses depend only on the
    // reference stream, not on absolute cycle times.
    for (SchemeKind k :
         {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW})
    {
        Captured c = capture(k);
        RunResult r = replayTrace(c.records, c.cfg, c.dataBytes);
#define HSCD_EXPECT_SCHEME_FIELD(type, member, ...)                          \
        EXPECT_EQ(r.member, c.run.member) << schemeName(k) << " " #member;
        HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_EXPECT_SCHEME_FIELD)
#undef HSCD_EXPECT_SCHEME_FIELD
        EXPECT_EQ(r.readMissRate, c.run.readMissRate) << schemeName(k);
        EXPECT_EQ(r.epochs, c.run.epochs) << schemeName(k);
    }
}

TEST(Trace, CrossSchemeReplay)
{
    // A TPI-compiled trace replays through the directory scheme (which
    // ignores the marks) and through SC (which uses them differently).
    Captured c = capture(SchemeKind::TPI);
    MachineConfig hw = c.cfg;
    hw.scheme = SchemeKind::HW;
    RunResult rh = replayTrace(c.records, hw, c.dataBytes);
    EXPECT_EQ(rh.reads, c.run.reads);
    EXPECT_GT(rh.readMisses, 0u);

    MachineConfig sc = c.cfg;
    sc.scheme = SchemeKind::SC;
    RunResult rs = replayTrace(c.records, sc, c.dataBytes);
    EXPECT_GE(rs.readMisses, c.run.readMisses)
        << "SC cannot beat TPI on the same marked trace";

    MachineConfig vc = c.cfg;
    vc.scheme = SchemeKind::VC;
    RunResult rv = replayTrace(c.records, vc, c.dataBytes);
    EXPECT_EQ(rv.reads, c.run.reads)
        << "traces carry the array ids the VC scheme needs";
}

TEST(Trace, RoundTripPropertyOverGenPrograms)
{
    // Property: for random legal programs under every scheme, capture ->
    // serialize -> parse -> replay behaves exactly like replaying the
    // in-memory capture, and both reproduce the run's miss behaviour.
    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW,
                                  SchemeKind::VC};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(opt));
        MachineConfig cfg;
        cfg.scheme = schemes[seed % std::size(schemes)];
        cfg.procs = 4;

        Machine m(cp, cfg);
        TraceBuffer buf;
        m.setTraceSink(&buf);
        RunResult run = m.run();
        std::vector<TraceRecord> captured = buf.take();

        std::stringstream ss;
        writeTrace(ss, captured, cfg.procs, cp.program.dataBytes());
        ParsedTrace parsed = readTrace(ss);
        ASSERT_EQ(parsed.records.size(), captured.size()) << "gen:" << seed;

        // Parsed records match the capture on every serialized field.
        for (std::size_t i = 0; i < captured.size(); ++i) {
            const TraceRecord &a = captured[i];
            const TraceRecord &b = parsed.records[i];
            ASSERT_EQ(a.type, b.type) << "gen:" << seed << " record " << i;
            if (a.type == TraceRecord::Type::Access) {
                ASSERT_EQ(a.op.proc, b.op.proc) << "gen:" << seed;
                ASSERT_EQ(a.op.addr, b.op.addr) << "gen:" << seed;
                ASSERT_EQ(a.op.write, b.op.write) << "gen:" << seed;
                ASSERT_EQ(a.op.mark, b.op.mark) << "gen:" << seed;
                ASSERT_EQ(a.op.distance, b.op.distance) << "gen:" << seed;
                ASSERT_EQ(a.op.stamp, b.op.stamp) << "gen:" << seed;
                ASSERT_EQ(a.op.critical, b.op.critical) << "gen:" << seed;
            } else {
                ASSERT_EQ(a.epoch, b.epoch) << "gen:" << seed;
            }
        }

        // Replaying the parsed trace equals replaying the capture, and
        // both reproduce the execution-driven run's miss counts.
        RunResult ro = replayTrace(captured, cfg, parsed.dataBytes);
        RunResult rp = replayTrace(parsed.records, cfg, parsed.dataBytes);
        EXPECT_EQ(ro.reads, rp.reads) << "gen:" << seed;
        EXPECT_EQ(ro.writes, rp.writes) << "gen:" << seed;
        EXPECT_EQ(ro.readMisses, rp.readMisses) << "gen:" << seed;
        EXPECT_EQ(ro.missConservative, rp.missConservative)
            << "gen:" << seed;
        EXPECT_EQ(ro.missFalseShare, rp.missFalseShare) << "gen:" << seed;
        EXPECT_EQ(ro.trafficWords, rp.trafficWords) << "gen:" << seed;
        EXPECT_EQ(ro.reads, run.reads) << "gen:" << seed;
        EXPECT_EQ(ro.writes, run.writes) << "gen:" << seed;
        EXPECT_EQ(ro.readMisses, run.readMisses) << "gen:" << seed;
    }
}

TEST(Trace, FastPathCapturesIdenticalTrace)
{
    // A run that lowers the program and a run served from the program
    // cache must emit the same event stream, record for record - the
    // trace sink sees simulation order, so this pins event ordering, not
    // just aggregate results.
    testgen::GenOptions opt;
    opt.seed = 3;
    compiler::CompiledProgram cp =
        compiler::compileProgram(testgen::randomLegalProgram(opt));
    epochStream(cp, MachineConfig{});
    for (SchemeKind k : {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW}) {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 4;

        auto capture = [&](const compiler::CompiledProgram &prog) {
            Machine m(prog, cfg);
            TraceBuffer buf;
            m.setTraceSink(&buf);
            m.run();
            return buf.take();
        };
        std::vector<TraceRecord> fresh = capture(
            compiler::compileProgram(testgen::randomLegalProgram(opt)));
        std::vector<TraceRecord> cached = capture(cp);
        ASSERT_EQ(fresh.size(), cached.size()) << schemeName(k);
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            const TraceRecord &a = fresh[i];
            const TraceRecord &b = cached[i];
            ASSERT_EQ(a.type, b.type) << schemeName(k) << " record " << i;
            ASSERT_EQ(a.op.proc, b.op.proc) << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.addr, b.op.addr) << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.write, b.op.write) << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.arrayId, b.op.arrayId)
                << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.mark, b.op.mark) << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.distance, b.op.distance)
                << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.stamp, b.op.stamp) << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.now, b.op.now) << schemeName(k) << " " << i;
            ASSERT_EQ(a.op.critical, b.op.critical)
                << schemeName(k) << " " << i;
            ASSERT_EQ(a.epoch, b.epoch) << schemeName(k) << " " << i;
        }
    }
}

TEST(Trace, MalformedInputsRejected)
{
    {
        std::istringstream in("");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H wrong-magic 1 4 1024\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 4 1024\nX 1 2 3\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 4 1024\nA 0 16 W\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 4 1024\nA 0 16 R z 0 0 0\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    // Records replay would index out of range or alias: an address past
    // the data size, a processor past the header's count, no processors
    // at all, and an address inside a word.
    {
        std::istringstream in(
            "H hscd-trace 1 4 1024\nA 0 1024 0 R n 0 0 0\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in(
            "H hscd-trace 1 4 1024\nA 4 16 0 R n 0 0 0\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 0 1024\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in(
            "H hscd-trace 1 4 1024\nA 0 18 0 R n 0 0 0\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    // Fields replay would size tables by: an array id past the word
    // count (VC's version table), a data size past kMaxAddr, a processor
    // count past kMaxProcs.
    {
        std::istringstream in(
            "H hscd-trace 1 4 1024\nA 0 0 4294967295 R n 0 0 0\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in(
            "H hscd-trace 1 4 1024\nA 0 0 256 R n 0 0 0\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 4 1125899906842624\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 1025 1024\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    // Boundaries count up by one from epoch 1: a skip would jump past
    // TPI's two-phase reset.
    {
        std::istringstream in("H hscd-trace 1 4 1024\nB 2\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    {
        std::istringstream in("H hscd-trace 1 4 1024\nB 1\nB 1\n");
        EXPECT_THROW(readTrace(in), FatalError);
    }
    // The same fields at their limits parse.
    {
        std::istringstream in(
            "H hscd-trace 1 4 1024\nA 3 1020 255 W n 0 1 0\nB 1\nB 2\n");
        EXPECT_EQ(readTrace(in).records.size(), 3u);
    }
    {
        std::istringstream in("H hscd-trace 1 1024 67108864\n");
        ParsedTrace p = readTrace(in);
        EXPECT_EQ(p.procs, kMaxProcs);
        EXPECT_EQ(p.dataBytes, kMaxAddr);
    }
}

TEST(Trace, EmptyBodyIsFine)
{
    std::istringstream in("H hscd-trace 1 4 1024\n");
    ParsedTrace p = readTrace(in);
    EXPECT_TRUE(p.records.empty());
    MachineConfig cfg;
    cfg.procs = 4;
    RunResult r = replayTrace(p.records, cfg, p.dataBytes);
    EXPECT_EQ(r.reads, 0u);
    EXPECT_EQ(r.cycles, 0u);
}

TEST(Trace, ReplayRejectsOutOfRangeProcessor)
{
    Captured c = capture(SchemeKind::TPI);
    MachineConfig tiny = c.cfg;
    tiny.procs = 1;
    EXPECT_THROW(replayTrace(c.records, tiny, c.dataBytes), PanicError);
}
