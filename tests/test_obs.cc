/**
 * @file
 * Observability layer contract tests: the metrics spec grammar and ring
 * buffer, JSON schema round-trips for both artifact kinds, the
 * fastpath-vs-interpreter event-identity guarantee, the zero-overhead
 * guard (attaching observers must not perturb the simulation), and the
 * provenance primitives.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/provenance.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

obs::MetricSample
sampleAt(std::uint64_t epoch)
{
    obs::MetricSample s;
    s.epoch = epoch;
    s.cycle = epoch * 1000;
    s.reads = epoch * 10;
    s.readMisses = epoch;
    s.networkLoad = 0.125 * double(epoch);
    return s;
}

} // namespace

TEST(MetricsSpec, GrammarRoundTrips)
{
    obs::MetricsSpec s = obs::MetricsSpec::parse("epoch");
    EXPECT_EQ(s.mode, obs::MetricsSpec::Mode::Epoch);
    EXPECT_EQ(s.every, 1u);
    EXPECT_EQ(obs::MetricsSpec::parse(s.str()), s);

    s = obs::MetricsSpec::parse("epoch:4");
    EXPECT_EQ(s.every, 4u);
    EXPECT_EQ(obs::MetricsSpec::parse(s.str()), s);

    s = obs::MetricsSpec::parse("cycles:500:cap=10");
    EXPECT_EQ(s.mode, obs::MetricsSpec::Mode::Cycles);
    EXPECT_EQ(s.every, 500u);
    EXPECT_EQ(s.cap, 10u);
    EXPECT_EQ(obs::MetricsSpec::parse(s.str()), s);

    EXPECT_FALSE(obs::MetricsSpec{}.enabled());
    EXPECT_TRUE(s.enabled());
}

TEST(MetricsSpec, MalformedSpecIsFatal)
{
    EXPECT_THROW(obs::MetricsSpec::parse("bogus"), FatalError);
    EXPECT_THROW(obs::MetricsSpec::parse("cycles"), FatalError);
    EXPECT_THROW(obs::MetricsSpec::parse("epoch:0"), FatalError);
    EXPECT_THROW(obs::MetricsSpec::parse("epoch:cap=0"), FatalError);
}

TEST(MetricsRecorder, RingKeepsNewestRows)
{
    obs::MetricsSpec spec = obs::MetricsSpec::parse("epoch:cap=4");
    obs::MetricsRecorder rec(spec);
    for (std::uint64_t e = 0; e < 10; ++e)
        rec.record(sampleAt(e));
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 6u);
    const std::vector<obs::MetricSample> rows = rec.rows();
    ASSERT_EQ(rows.size(), 4u);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], sampleAt(6 + i)) << "row " << i;
}

TEST(MetricsRecorder, JsonRoundTripsExactly)
{
    obs::MetricsRecorder rec(obs::MetricsSpec::parse("epoch:2"));
    for (std::uint64_t e = 0; e < 7; ++e)
        rec.record(sampleAt(e));

    obs::Provenance prov;
    prov.schema = "hscd-metrics";
    prov.tool = "test";
    prov.configHash = 0x1234;
    std::ostringstream os;
    rec.writeJson(os, prov);

    std::istringstream is(os.str());
    std::vector<obs::MetricSample> rows;
    std::string spec;
    ASSERT_TRUE(obs::readMetricsJson(is, rows, &spec));
    EXPECT_EQ(spec, "epoch:2:cap=65536");
    ASSERT_EQ(rows.size(), rec.rows().size());
    EXPECT_EQ(rows, rec.rows());
}

TEST(MetricsRecorder, ReaderRejectsForeignJson)
{
    std::istringstream is("{\"not\": \"ours\"}\n");
    std::vector<obs::MetricSample> rows;
    EXPECT_FALSE(obs::readMetricsJson(is, rows));
}

TEST(Timeline, PerfettoCountsRoundTrip)
{
    const unsigned procs = 4;
    obs::Timeline tl;
    tl.procSpan(0, 1, 100, 200);
    tl.procSpan(1, 1, 100, 180);
    tl.missFlow(0, 1, 0x40, 120, 101, /*cls=*/3, /*mark=*/1, /*dist=*/2);
    tl.missFlow(1, 1, 0x80, 130, 101, /*cls=*/5, /*mark=*/1, /*dist=*/1);
    tl.resetWindow(2, 260, 128);
    tl.instant(obs::Timeline::InstantKind::TagReset,
               obs::Timeline::memTrack(procs), 2, 260, 1);

    obs::Provenance prov;
    prov.schema = "hscd-trace";
    prov.tool = "test";
    std::ostringstream os;
    tl.writePerfetto(os, prov, procs, "test");

    std::istringstream is(os.str());
    obs::PerfettoCounts c;
    ASSERT_TRUE(obs::readPerfettoCounts(is, c));
    // Track naming: one process_name plus thread_name + thread_sort_index
    // for each processor track and the memory track.
    EXPECT_EQ(c.metadata, 1 + 2 * (procs + 1));
    // Slices: two epoch spans, two miss services, one reset window.
    EXPECT_EQ(c.slices, 5u);
    EXPECT_EQ(c.flowStarts, 2u); // one arrow per miss
    EXPECT_EQ(c.flowEnds, 2u);
    EXPECT_EQ(c.instants, 1u);
    EXPECT_EQ(tl.dropped(), 0u);
}

TEST(Timeline, CapDropsOnlyMissFlows)
{
    obs::Timeline tl(/*capEvents=*/2);
    tl.missFlow(0, 1, 0x40, 1, 100, 1, 1, 0);
    tl.missFlow(0, 1, 0x44, 2, 100, 1, 1, 0);
    tl.missFlow(0, 1, 0x48, 3, 100, 1, 1, 0); // over cap: dropped
    tl.procSpan(0, 1, 0, 10);                 // spans are never dropped
    EXPECT_EQ(tl.dropped(), 1u);
    ASSERT_EQ(tl.events().size(), 3u);
    EXPECT_EQ(tl.events().back().kind, obs::Timeline::Kind::ProcSpan);
}

namespace {

/** Run one workload with every observer attached. */
struct ObservedRun
{
    sim::RunResult result;
    std::vector<obs::Timeline::Event> events;
    std::vector<obs::MetricSample> rows;
};

ObservedRun
runObserved(const compiler::CompiledProgram &cp, bool fast_path)
{
    MachineConfig cfg;
    cfg.fastPath = fast_path;
    sim::Machine m(cp, cfg);
    obs::Timeline tl;
    obs::MetricsRecorder rec(obs::MetricsSpec::parse("epoch"));
    m.setTimeline(&tl);
    m.setMetrics(&rec);
    m.enableProfiling(true);
    ObservedRun out;
    out.result = m.run();
    out.events = tl.events();
    out.rows = rec.rows();
    return out;
}

} // namespace

TEST(ObsEquivalence, FastPathEmitsIdenticalTimeline)
{
    // The executor is the single producer of observability events, so
    // the interpreter and the epoch-stream fast path must emit
    // event-identical timelines and metric series, not merely equal
    // aggregates.
    const compiler::CompiledProgram cp = compiler::compileProgram(
        workloads::buildBenchmark("ocean", /*scale=*/1));
    const ObservedRun interp = runObserved(cp, /*fast_path=*/false);
    const ObservedRun fast = runObserved(cp, /*fast_path=*/true);

    EXPECT_EQ(interp.result, fast.result);
    ASSERT_FALSE(interp.events.empty());
    ASSERT_FALSE(interp.rows.empty());
    EXPECT_EQ(interp.events, fast.events);
    EXPECT_EQ(interp.rows, fast.rows);
}

TEST(ObsEquivalence, ObserversDoNotPerturbTheRun)
{
    // Zero-overhead guard, correctness half: attaching the recorders
    // must leave every simulated quantity (and the fingerprint) exactly
    // as an unobserved run produces it. The performance half is the
    // perf_smoke 2% gate.
    const compiler::CompiledProgram cp = compiler::compileProgram(
        workloads::buildBenchmark("qcd2", /*scale=*/1));
    MachineConfig cfg;
    sim::Machine plain_machine(cp, cfg);
    const sim::RunResult plain = plain_machine.run();
    const ObservedRun observed = runObserved(cp, cfg.fastPath);

    EXPECT_EQ(plain, observed.result);
    EXPECT_EQ(plain.fingerprint(), observed.result.fingerprint());
    // Profiling ran on the observed machine only; it must stay out of
    // the equality/fingerprint contract but still measure something.
    EXPECT_TRUE(observed.result.profile.any());
    EXPECT_FALSE(plain.profile.any());
}

TEST(PhaseProfile, RendersAndComparesAsDesigned)
{
    obs::PhaseProfile p;
    EXPECT_FALSE(p.any());
    p.execMs = 12.5;
    EXPECT_TRUE(p.any());
    EXPECT_NE(p.json().find("\"exec_ms\": 12.500"), std::string::npos);
    // Wall-clock is nondeterministic by nature, so the profile is
    // deliberately invisible to equality (see the header comment).
    obs::PhaseProfile q;
    EXPECT_TRUE(p == q);
}

TEST(Provenance, JsonCarriesEveryField)
{
    obs::Provenance p;
    p.schema = "hscd-test";
    p.tool = "unit";
    p.configHash = 0xdeadbeefull;
    p.faultSpec = "0.01:7:net";
    p.jobs = 8;
    const std::string j = p.json(0);
    EXPECT_NE(j.find("\"schema\": \"hscd-test/1\""), std::string::npos);
    EXPECT_NE(j.find("\"tool\": \"unit\""), std::string::npos);
    EXPECT_NE(j.find("\"config_hash\": \"00000000deadbeef\""),
              std::string::npos);
    EXPECT_NE(j.find("\"fault\": \"0.01:7:net\""), std::string::npos);
    EXPECT_NE(j.find("\"jobs\": 8"), std::string::npos);
}

TEST(Provenance, HashAndEscapePrimitives)
{
    // FNV-1a reference vectors.
    EXPECT_EQ(obs::fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(obs::fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(obs::fnv1a("ab"), obs::fnv1a("ba"));

    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}
