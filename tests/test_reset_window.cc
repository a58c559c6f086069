/**
 * @file
 * Regression test for the two-phase tag-reset window: a narrower,
 * faster cousin of test_fastpath_equiv.cc aimed at one hand-written
 * interleaving that marches a program across several reset sweeps at a
 * 2-bit tag width (phase = 2 epochs).
 *
 * The program writes array A in an early epoch, spins through enough
 * unrelated epochs for A's timetags to be retired by the reset sweeps,
 * then reads A back. Its lowered ops must be the reference
 * interpreter's, and a run lowering the program and a run served from
 * the program cache must produce byte-identical RunResults and, with
 * observers attached, event-identical timelines (including the TagReset
 * instants the sweeps emit) - not merely equal aggregate counters.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "hir/builder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "op_equiv.hh"
#include "sim/machine.hh"
#include "sim/recorder.hh"

using namespace hscd;
using hir::ProgramBuilder;

namespace {

/** Write A, idle across reset sweeps on B, then read A back. */
compiler::CompiledProgram
resetWindowProgram(int idle_epochs)
{
    ProgramBuilder b;
    b.array("A", {std::int64_t{16}});
    b.array("B", {std::int64_t{16}});
    b.proc("MAIN", [&] {
        // Epoch 1: seed A with fresh timetags across all processors.
        b.doall("i", 0, 15, [&] { b.write("A", {b.v("i")}); });
        // Idle epochs touching only B: A's tags age one epoch per
        // boundary and cross at least two phase boundaries.
        b.doserial("k", 0, idle_epochs - 1, [&] {
            b.doall("i", 0, 15, [&] {
                b.read("B", {b.v("i")});
                b.write("B", {b.v("i")});
            });
        });
        // Final epoch: the marked reads of A arrive after the sweeps
        // have retired its tags - the reset window under test.
        b.doall("i", 0, 15, [&] { b.read("A", {b.v("i")}); });
    });
    return compiler::compileProgram(b.build());
}

struct ObservedRun
{
    sim::RunResult result;
    std::vector<obs::Timeline::Event> events;
    std::vector<obs::MetricSample> rows;
};

ObservedRun
runObserved(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    sim::Machine m(cp, cfg);
    obs::Timeline tl;
    obs::MetricsRecorder rec(obs::MetricsSpec::parse("epoch"));
    sim::RecorderSink sink(m, &tl, &rec);
    m.setTraceSink(&sink);
    ObservedRun out;
    out.result = m.run();
    out.events = tl.events();
    out.rows = rec.rows();
    return out;
}

MachineConfig
narrowTagConfig()
{
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.timetagBits = 2; // phase = 2 epochs: sweeps arrive quickly
    return cfg;
}

} // namespace

TEST(ResetWindow, InterpreterAndFastPathEmitIdenticalTimelines)
{
    const compiler::CompiledProgram cp = resetWindowProgram(6);
    const MachineConfig cfg = narrowTagConfig();
    EXPECT_TRUE(testref::opsMatchReference(cp));

    const ObservedRun fresh = runObserved(resetWindowProgram(6), cfg);
    const ObservedRun cached = runObserved(cp, cfg);

    // The interleaving must genuinely cross the reset window: the final
    // reads of A miss with TagReset class, and the sweeps show up as
    // TagReset instants on the timeline.
    EXPECT_GT(fresh.result.missTagReset, 0u)
        << "program never reached the reset window";
    const auto isReset = [](const obs::Timeline::Event &e) {
        return e.kind == obs::Timeline::Kind::ResetWindow ||
               (e.kind == obs::Timeline::Kind::Instant &&
                e.sub == std::uint8_t(obs::Timeline::InstantKind::TagReset));
    };
    EXPECT_TRUE(std::any_of(fresh.events.begin(), fresh.events.end(),
                            isReset));

    EXPECT_EQ(fresh.result, cached.result);
    EXPECT_EQ(fresh.result.fingerprint(), cached.result.fingerprint());
    ASSERT_FALSE(fresh.events.empty());
    EXPECT_EQ(fresh.events, cached.events);
    EXPECT_EQ(fresh.rows, cached.rows);
}

TEST(ResetWindow, SweepCountScalesWithIdleEpochs)
{
    // Sanity on the window geometry itself: lengthening the idle span
    // only adds reset work, and a cached program replays every length
    // identically.
    const MachineConfig cfg = narrowTagConfig();
    Counter prev = 0;
    for (int idle : {4, 6, 8}) {
        const compiler::CompiledProgram cp = resetWindowProgram(idle);
        const ObservedRun fresh = runObserved(cp, cfg);
        const ObservedRun cached = runObserved(cp, cfg);
        EXPECT_EQ(fresh.result, cached.result) << "idle=" << idle;
        EXPECT_EQ(fresh.events, cached.events) << "idle=" << idle;
        EXPECT_GE(fresh.result.missTagReset, prev) << "idle=" << idle;
        prev = fresh.result.missTagReset;
    }
}
