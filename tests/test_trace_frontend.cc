/**
 * @file
 * Trace-ingestion frontend tests: the strict parser (every malformed
 * input is a structured FatalError with file:line context - never a
 * crash, never a silent skip), the conservative marking stub, and
 * deterministic replay of the checked-in sample trace across all five
 * schemes at any thread count.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/parallel.hh"
#include "sim/machine.hh"
#include "sim/result.hh"
#include "workloads/trace.hh"

using namespace hscd;
using namespace hscd::workloads;

namespace {

const SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW,
                                  SchemeKind::VC};

/**
 * Assert that parsing @p text raises FatalError whose message contains
 * @p needle. The message must also carry the trace name and a line
 * number so users can find the bad record.
 */
void
expectTraceError(const std::string &text, const std::string &needle)
{
    try {
        parseTraceText(text, "t.trace");
        FAIL() << "expected FatalError containing '" << needle
               << "' for input:\n" << text;
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(needle), std::string::npos)
            << "message '" << msg << "' lacks '" << needle << "'";
        EXPECT_NE(msg.find("t.trace:"), std::string::npos)
            << "message '" << msg << "' lacks file:line context";
    }
}

std::string
samplePath()
{
    return std::string(HSCD_SOURCE_DIR) + "/tests/data/sample.trace";
}

} // namespace

// ---------------------------------------------------------------------
// Spec parsing.

TEST(TraceSpec, Recognizer)
{
    EXPECT_TRUE(isTraceSpec("trace:foo.trace"));
    EXPECT_TRUE(isTraceSpec("  TRACE:foo.trace  "));
    EXPECT_FALSE(isTraceSpec("gen:1"));
    EXPECT_FALSE(isTraceSpec("synth:streaming:1"));
    EXPECT_FALSE(isTraceSpec("ocean"));
    EXPECT_EQ(traceSpecPath("trace:/a/b.trace"), "/a/b.trace");
}

TEST(TraceSpec, EmptyPathFatal)
{
    EXPECT_THROW(traceSpecPath("trace:"), FatalError);
    EXPECT_THROW(traceSpecPath("ocean"), FatalError);
}

TEST(TraceSpec, MissingFileFatal)
{
    EXPECT_THROW(loadTraceSpec("trace:/nonexistent/x.trace"), FatalError);
}

// ---------------------------------------------------------------------
// Positive parsing.

TEST(TraceParse, MinimalRoundTrip)
{
    TraceWorkload t = parseTraceText("procs 2\n0 0 w 0\n1 0 r 1\n", "m");
    EXPECT_EQ(t.procs, 2u);
    EXPECT_EQ(t.reads, 1u);
    EXPECT_EQ(t.writes, 1u);
    EXPECT_EQ(t.epochCount, 2u);
    // write, boundary, read.
    ASSERT_EQ(t.records.size(), 3u);
    EXPECT_EQ(t.records[0].type, sim::TraceRecord::Type::Access);
    EXPECT_TRUE(t.records[0].op.write);
    EXPECT_EQ(t.records[1].type, sim::TraceRecord::Type::Boundary);
    EXPECT_EQ(t.records[1].epoch, 1u);
    EXPECT_FALSE(t.records[2].op.write);
    // Conservative stub: reads are Time-Reads of distance 0.
    EXPECT_EQ(t.records[2].op.mark, compiler::MarkKind::TimeRead);
    EXPECT_EQ(t.records[2].op.distance, 0u);
    EXPECT_EQ(t.records[0].op.mark, compiler::MarkKind::Normal);
}

TEST(TraceParse, ProcsInferredFromMaxId)
{
    TraceWorkload t = parseTraceText("0 0 w\n5 4 r\n", "m");
    EXPECT_EQ(t.procs, 6u);
    EXPECT_EQ(t.epochCount, 1u);
}

TEST(TraceParse, EpochGapEmitsEveryBoundary)
{
    TraceWorkload t = parseTraceText("0 0 w 0\n0 0 r 3\n", "m");
    // write, boundary(1), boundary(2), boundary(3), read.
    ASSERT_EQ(t.records.size(), 5u);
    EXPECT_EQ(t.records[1].epoch, 1u);
    EXPECT_EQ(t.records[2].epoch, 2u);
    EXPECT_EQ(t.records[3].epoch, 3u);
    EXPECT_EQ(t.epochCount, 4u);
}

TEST(TraceParse, CommentsBlanksCrlfAndCaseAccepted)
{
    TraceWorkload t = parseTraceText(
        "# header\n\n  \t \nprocs 2\r\n0 0 W 0   # trailing\n1 4 R 0\r\n",
        "m");
    EXPECT_EQ(t.procs, 2u);
    EXPECT_EQ(t.reads, 1u);
    EXPECT_EQ(t.writes, 1u);
}

TEST(TraceParse, CompleteUnterminatedFinalLineAccepted)
{
    // No trailing newline, but the record is complete: accepted.
    TraceWorkload t = parseTraceText("0 0 w 0\n1 4 r 0", "m");
    EXPECT_EQ(t.reads, 1u);
    EXPECT_EQ(t.writes, 1u);
}

TEST(TraceParse, WriteStampsAreUniqueAndOrdered)
{
    TraceWorkload t = parseTraceText("0 0 w\n0 4 w\n0 0 r\n", "m");
    ASSERT_EQ(t.records.size(), 3u);
    EXPECT_EQ(t.records[0].op.stamp, 1u);
    EXPECT_EQ(t.records[1].op.stamp, 2u);
    EXPECT_EQ(t.records[2].op.stamp, 0u);
}

TEST(TraceParse, MarkingColumnsAndEpochDirective)
{
    TraceWorkload t = parseTraceText("procs 4\n"
                                     "3 1020 w 0 n 0 255 0\n"
                                     "0 16 r 1 t 7 3 1\n"
                                     "1 8 R 1 b 0 2 0\n"
                                     "epoch 1\n"
                                     "epoch 3\n",
                                     "m");
    // access, boundary(1), access, access, boundary(2), boundary(3).
    ASSERT_EQ(t.records.size(), 6u);
    const mem::MemOp &w = t.records[0].op;
    EXPECT_TRUE(w.write);
    EXPECT_EQ(w.mark, compiler::MarkKind::Normal);
    EXPECT_EQ(w.arrayId, 255u);
    EXPECT_EQ(w.stamp, 1u);
    const mem::MemOp &tr = t.records[2].op;
    EXPECT_EQ(tr.mark, compiler::MarkKind::TimeRead);
    EXPECT_EQ(tr.distance, 7u);
    EXPECT_EQ(tr.arrayId, 3u);
    EXPECT_TRUE(tr.critical);
    EXPECT_EQ(t.records[3].op.mark, compiler::MarkKind::Bypass);
    EXPECT_FALSE(t.records[3].op.critical);
    EXPECT_EQ(t.records[4].type, sim::TraceRecord::Type::Boundary);
    EXPECT_EQ(t.records[5].epoch, 3u);
    EXPECT_EQ(t.epochCount, 4u);
    // The highest address, rounded to 64 B, holds 256 words: ids to 255.
    EXPECT_EQ(t.dataBytes, 1024u);
}

TEST(TraceParse, FieldsAtTheirLimits)
{
    TraceWorkload t = parseTraceText(
        "procs 1024\n1023 67108860 r 0 t 4294967295 0 0\n", "m");
    EXPECT_EQ(t.procs, kMaxProcs);
    EXPECT_EQ(t.dataBytes, kMaxAddr);
    EXPECT_EQ(t.records.back().op.distance, 4294967295u);
    // An array id is checked against the whole trace's footprint.
    EXPECT_EQ(parseTraceText("0 0 r 0 n 0 40 0\n0 252 w\n", "m").dataBytes,
              256u);
}

// ---------------------------------------------------------------------
// Negative parsing: every class of malformed input is a structured
// error (FatalError -> CLI exit 2), never a crash or a silent skip.

TEST(TraceParseError, MalformedLines)
{
    expectTraceError("bogus\n", "malformed access record");
    expectTraceError("0 0\n", "malformed access record");
    expectTraceError("0 0 x\n", "malformed access record");
    expectTraceError("0 0 w 1 extra\n", "malformed access record");
    expectTraceError("-1 0 w\n", "malformed access record");
    expectTraceError("0 0x10 w\n", "malformed access record");
    expectTraceError("0 0 w 99999999999999999999\n",
                     "malformed access record");
}

TEST(TraceParseError, OutOfRangeProc)
{
    expectTraceError("procs 2\n2 0 w\n", "processor id 2 out of range");
    expectTraceError("procs 2\n7 0 w\n", "declared procs 2");
    // Without a directive the hard cap still applies.
    expectTraceError("4096 0 w\n", "out of range");
}

TEST(TraceParseError, BadAddress)
{
    expectTraceError("0 6 w\n", "not word-aligned");
    expectTraceError("0 67108864 w\n", "out of range");
}

TEST(TraceParseError, NonMonotoneEpoch)
{
    expectTraceError("0 0 w 2\n0 0 w 1\n", "non-monotone epoch 1");
    expectTraceError("0 0 w 9999999\n", "out of range");
}

TEST(TraceParseError, MarkingColumns)
{
    expectTraceError("0 0 r 0 z 0 0 0\n", "bad mark 'z'");
    expectTraceError("0 0 r 0 tn 0 0 0\n", "bad mark 'tn'");
    expectTraceError("0 0 r 0 t -1 0 0\n", "distance '-1' out of range");
    expectTraceError("0 0 r 0 t 4294967296 0 0\n",
                     "distance '4294967296' out of range");
    expectTraceError("0 0 r 0 t 0 -1 0\n", "array id '-1' out of range");
    expectTraceError("0 0 r 0 t 0 0 2\n", "critical flag '2'");
    // Every marking column or none; nothing after the critical flag.
    expectTraceError("0 0 r 0 t\n", "malformed access record");
    expectTraceError("0 0 r 0 t 0 0\n", "malformed access record");
    expectTraceError("0 0 r 0 t 0 0 0 junk\n", "malformed access record");
    expectTraceError("0 16 r 0 t -1 0 0 trailing junk\n",
                     "malformed access record");
}

TEST(TraceParseError, ArrayIdPastWords)
{
    // A 64 B footprint holds 16 words, so array ids 0 to 15: each array
    // holds a word, and VC sizes its version table by the id.
    expectTraceError("0 0 r 0 n 0 16 0\n",
                     "array id 16 at or above the trace's 16 words");
    expectTraceError("0 0 r 0 n 0 4294967295 0\n0 4 w\n",
                     "t.trace:1: array id 4294967295");
}

TEST(TraceParseError, EpochDirective)
{
    expectTraceError("0 0 w 2\nepoch 1\n", "non-monotone epoch 1");
    expectTraceError("epoch 2\nepoch 1\n0 0 w\n", "non-monotone epoch 1");
    expectTraceError("0 0 w\nepoch\n", "malformed 'epoch' directive");
    expectTraceError("0 0 w\nepoch 1 2\n", "malformed 'epoch' directive");
    expectTraceError("0 0 w\nepoch -1\n", "malformed 'epoch' directive");
    expectTraceError("0 0 w\nepoch 9999999\n", "out of range");
    expectTraceError("epoch 1\nprocs 2\n0 0 w\n",
                     "must precede all accesses");
    expectTraceError("epoch 1\n", "no accesses");
}

TEST(TraceParseError, TornFinalLine)
{
    // Incomplete record with no trailing newline: the torn tail of a
    // killed writer. Must be diagnosed as torn, not accepted.
    expectTraceError("0 0 w 0\n0 8", "torn final line");
    expectTraceError("procs 2\n0 0 w\n1", "torn final line");
}

TEST(TraceParseError, ProcsDirective)
{
    expectTraceError("procs\n", "malformed 'procs' directive");
    expectTraceError("procs two\n", "malformed 'procs' directive");
    expectTraceError("procs 0\n", "malformed 'procs' directive");
    expectTraceError("procs 2000\n", "out of range");
    expectTraceError("procs 2\nprocs 2\n0 0 w\n", "duplicate 'procs'");
    expectTraceError("0 0 w\nprocs 2\n", "must precede all accesses");
}

TEST(TraceParseError, EmptyTrace)
{
    expectTraceError("", "no accesses");
    expectTraceError("# only a comment\n", "no accesses");
    expectTraceError("procs 4\n", "no accesses");
}

// ---------------------------------------------------------------------
// Replay: the checked-in sample trace runs under every scheme, and the
// result is byte-identical at any --jobs level and across repeats.

TEST(TraceReplay, SampleLoadsWithExpectedShape)
{
    TraceWorkload t = loadTraceSpec("trace:" + samplePath());
    EXPECT_EQ(t.procs, 4u);
    EXPECT_EQ(t.epochCount, 3u);
    EXPECT_EQ(t.reads, 16u);
    EXPECT_EQ(t.writes, 21u);
    EXPECT_GE(t.dataBytes, 64u);
}

TEST(TraceReplay, AllSchemesRunAndDiffer)
{
    TraceWorkload t = loadTraceSpec("trace:" + samplePath());
    std::vector<std::uint64_t> fps;
    for (SchemeKind k : kAllSchemes) {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 4;
        sim::RunResult r = runTrace(t, cfg);
        EXPECT_FALSE(r.abort.aborted()) << schemeName(k);
        EXPECT_EQ(r.reads, t.reads) << schemeName(k);
        EXPECT_EQ(r.writes, t.writes) << schemeName(k);
        // Boundaries crossed, as for a program: 2 for the 3 epochs.
        EXPECT_EQ(r.epochs, t.epochCount - 1) << schemeName(k);
        EXPECT_GT(r.cycles, 0u) << schemeName(k);
        fps.push_back(r.fingerprint());
    }
    // Base invalidates everything; the smarter schemes must beat it.
    MachineConfig base;
    base.scheme = SchemeKind::Base;
    base.procs = 4;
    const Counter baseMisses = runTrace(t, base).readMisses;
    MachineConfig hw;
    hw.scheme = SchemeKind::HW;
    hw.procs = 4;
    EXPECT_LT(runTrace(t, hw).readMisses, baseMisses);
    // And at least two schemes must disagree somewhere, or the replay
    // plumbing is ignoring the scheme entirely.
    bool anyDiff = false;
    for (std::size_t i = 1; i < fps.size(); ++i)
        anyDiff = anyDiff || fps[i] != fps[0];
    EXPECT_TRUE(anyDiff);
}

TEST(TraceReplay, SampleIsOracleClean)
{
    // Epoch 1 passes words between processors inside the epoch; the
    // record order defines the values, and every scheme returns them.
    TraceWorkload t = loadTraceSpec("trace:" + samplePath());
    for (SchemeKind k : kAllSchemes) {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 4;
        cfg.shadowEpochCheck = true;
        const sim::RunResult r = runTrace(t, cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << schemeName(k);
        EXPECT_EQ(r.shadowViolations, 0u) << schemeName(k);
        EXPECT_EQ(r.doallViolations, 0u) << schemeName(k);
    }
}

TEST(TraceReplay, IdenticalAcrossJobsAndRepeats)
{
    TraceWorkload t = loadTraceSpec("trace:" + samplePath());
    for (SchemeKind k : kAllSchemes) {
        MachineConfig cfg;
        cfg.scheme = k;
        cfg.procs = 4;
        const sim::RunResult ref = runTrace(t, cfg);
        for (unsigned jobs : {1u, 2u, 8u}) {
            // Replay the same trace on several worker threads at once:
            // every result must be byte-identical to the reference.
            auto runs = parallelMap(jobs, 8, [&](std::size_t) {
                return runTrace(t, cfg);
            });
            for (const sim::RunResult &r : runs) {
                EXPECT_TRUE(r == ref) << schemeName(k);
                EXPECT_EQ(r.fingerprint(), ref.fingerprint())
                    << schemeName(k);
            }
        }
    }
}

TEST(TraceReplay, FaultPlanCountersReported)
{
    // A trace cell reports the faults its plan injected, like any cell.
    TraceWorkload t = loadTraceSpec("trace:" + samplePath());
    MachineConfig cfg;
    cfg.scheme = SchemeKind::HW;
    cfg.procs = 4;
    cfg.fault = fault::FaultPlan::parse("0.2:7");
    sim::RunResult r = runTrace(t, cfg);
    EXPECT_GT(r.faultsInjected, 0u);
}

TEST(TraceReplay, WidenedConfigIsValidated)
{
    // 100 processors fit the trace format but not HW's 64 presence bits.
    TraceWorkload t = parseTraceText("procs 100\n99 16 r\n", "wide.trace");
    MachineConfig cfg;
    cfg.scheme = SchemeKind::HW;
    EXPECT_THROW(runTrace(t, cfg), FatalError);
    cfg.scheme = SchemeKind::TPI;
    EXPECT_EQ(runTrace(t, cfg).reads, 1u);
}

TEST(TraceReplay, NarrowConfigWidenedToTraceProcs)
{
    TraceWorkload t = loadTraceSpec("trace:" + samplePath());
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 1; // narrower than the trace's 4: must be widened
    sim::RunResult r = runTrace(t, cfg);
    EXPECT_FALSE(r.abort.aborted());
    EXPECT_EQ(r.reads, t.reads);
}
