/** @file Tests for trace capture, serialization, and trace runs. */

#include <gtest/gtest.h>

#include <sstream>

#include "program_gen.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "sim/trace.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;

namespace {

const SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW,
                                  SchemeKind::VC};

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

/** Run @p records on a Machine; @p sink observes the run. */
RunResult
runRecords(const std::vector<TraceRecord> &records, Addr dataBytes,
           const MachineConfig &cfg, TraceSink *sink = nullptr)
{
    Machine m(records, dataBytes, cfg);
    m.setTraceSink(sink);
    return m.run();
}

/**
 * writeTrace -> parseTraceText -> runTrace gives the result of running
 * the in-memory @p records under every scheme: the text carries every
 * field a run reads.
 */
void
expectTextRunsLikeRecords(const std::vector<TraceRecord> &records,
                          Addr dataBytes, unsigned procs,
                          const std::string &what)
{
    std::stringstream ss;
    writeTrace(ss, records, procs);
    const workloads::TraceWorkload t =
        workloads::parseTraceText(ss.str(), what);
    ASSERT_EQ(t.records.size(), records.size()) << what;
    EXPECT_EQ(t.procs, procs) << what;
    for (SchemeKind k : kAllSchemes) {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = procs;
        const RunResult mem = runRecords(records, dataBytes, cfg);
        const RunResult text = workloads::runTrace(t, cfg);
        EXPECT_EQ(text.fingerprint(), mem.fingerprint())
            << what << " " << schemeName(k);
        EXPECT_EQ(text.epochs, mem.epochs) << what << " " << schemeName(k);
        EXPECT_EQ(text.oracleViolations, 0u) << what << " " << schemeName(k);
    }
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
    // The paper workloads captured as trace_tool captures them; TRFD's
    // trace ends on a boundary with no access after it.
    for (const char *bench : {"OCEAN", "QCD2", "TRFD"}) {
        const compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(bench, 2));
        MachineConfig cfg;
        cfg.scheme = SchemeKind::TPI;
        cfg.procs = 16;
        Machine m(cp, cfg);
        TraceBuffer buf;
        m.setTraceSink(&buf);
        m.run();
        expectTextRunsLikeRecords(buf.records(), cp.program.dataBytes(),
                                  cfg.procs, bench);
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
        RunResult r = runRecords(c.records, c.dataBytes, c.cfg);
#define HSCD_EXPECT_SCHEME_FIELD(type, member, ...)                          \
        EXPECT_EQ(r.member, c.run.member) << schemeName(k) << " " #member;
        HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_EXPECT_SCHEME_FIELD)
#undef HSCD_EXPECT_SCHEME_FIELD
        EXPECT_EQ(r.readMissRate, c.run.readMissRate) << schemeName(k);
        EXPECT_EQ(r.epochs, c.run.epochs) << schemeName(k);
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
    }
}

TEST(Trace, CrossSchemeReplay)
{
    // A TPI-compiled trace replays through the directory scheme (which
    // ignores the marks) and through SC (which uses them differently).
    Captured c = capture(SchemeKind::TPI);
    MachineConfig hw = c.cfg;
    hw.scheme = SchemeKind::HW;
    RunResult rh = runRecords(c.records, c.dataBytes, hw);
    EXPECT_EQ(rh.reads, c.run.reads);
    EXPECT_GT(rh.readMisses, 0u);

    MachineConfig sc = c.cfg;
    sc.scheme = SchemeKind::SC;
    RunResult rs = runRecords(c.records, c.dataBytes, sc);
    EXPECT_GE(rs.readMisses, c.run.readMisses)
        << "SC cannot beat TPI on the same marked trace";

    MachineConfig vc = c.cfg;
    vc.scheme = SchemeKind::VC;
    RunResult rv = runRecords(c.records, c.dataBytes, vc);
    EXPECT_EQ(rv.reads, c.run.reads)
        << "traces carry the array ids the VC scheme needs";
}

TEST(Trace, RoundTripPropertyOverGenPrograms)
{
    // Property: for random legal programs, capture -> write -> parse ->
    // run behaves exactly like running the in-memory capture under every
    // scheme, the capture reproduces the run's miss behaviour, and a
    // trace run re-emits the records it runs, value stamps included,
    // with every read fresh.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(opt));
        MachineConfig cfg;
        cfg.scheme = kAllSchemes[seed % std::size(kAllSchemes)];
        cfg.procs = 4;

        Machine m(cp, cfg);
        TraceBuffer buf;
        m.setTraceSink(&buf);
        RunResult run = m.run();
        std::vector<TraceRecord> captured = buf.take();

        expectTextRunsLikeRecords(captured, cp.program.dataBytes(),
                                  cfg.procs,
                                  "gen:" + std::to_string(seed));

        // Running the capture reproduces the execution-driven run's
        // miss counts and re-emits the records it runs.
        TraceBuffer again;
        RunResult ro =
            runRecords(captured, cp.program.dataBytes(), cfg, &again);
        EXPECT_EQ(ro.oracleViolations, 0u) << "gen:" << seed;
        ASSERT_EQ(again.records().size(), captured.size()) << "gen:" << seed;
        for (std::size_t i = 0; i < captured.size(); ++i) {
            const TraceRecord &a = captured[i];
            const TraceRecord &b = again.records()[i];
            ASSERT_EQ(a.type, b.type) << "gen:" << seed << " record " << i;
            ASSERT_EQ(a.op.proc, b.op.proc) << "gen:" << seed << " " << i;
            ASSERT_EQ(a.op.addr, b.op.addr) << "gen:" << seed << " " << i;
            ASSERT_EQ(a.op.arrayId, b.op.arrayId) << "gen:" << seed;
            ASSERT_EQ(a.op.write, b.op.write) << "gen:" << seed << " " << i;
            ASSERT_EQ(a.op.mark, b.op.mark) << "gen:" << seed << " " << i;
            ASSERT_EQ(a.op.distance, b.op.distance) << "gen:" << seed;
            ASSERT_EQ(a.op.stamp, b.op.stamp) << "gen:" << seed << " " << i;
            ASSERT_EQ(a.op.critical, b.op.critical) << "gen:" << seed;
            ASSERT_EQ(a.epoch, b.epoch) << "gen:" << seed << " " << i;
        }
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

TEST(Trace, ReplayRejectsOutOfRangeProcessor)
{
    Captured c = capture(SchemeKind::TPI);
    MachineConfig tiny = c.cfg;
    tiny.procs = 1;
    EXPECT_THROW(runRecords(c.records, c.dataBytes, tiny), FatalError);
}

TEST(Trace, MachineRejectsRecordsItCannotRun)
{
    // An access past the memory, and a boundary that skips an epoch.
    Captured c = capture(SchemeKind::TPI);
    EXPECT_THROW(runRecords(c.records, c.dataBytes / 2, c.cfg), FatalError);
    std::vector<TraceRecord> skip(1);
    skip[0].type = TraceRecord::Type::Boundary;
    skip[0].epoch = 2;
    EXPECT_THROW(runRecords(skip, c.dataBytes, c.cfg), FatalError);
}
