/**
 * @file
 * Observability layer contract tests: the metrics spec grammar and ring
 * buffer, JSON schema round-trips for both artifact kinds, event
 * identity between cached and freshly lowered programs, the zero-overhead
 * guard (attaching observers must not perturb the simulation), pinned
 * artifact digests, and the provenance primitives.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"
#include "sim/recorder.hh"
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
    // Values past 2^64 - 1 are rejected, not wrapped (2^64 + 1 would
    // otherwise read as 1).
    EXPECT_THROW(obs::MetricsSpec::parse("cycles:18446744073709551617"),
                 FatalError);
    EXPECT_THROW(obs::MetricsSpec::parse("epoch:cap=18446744073709551617"),
                 FatalError);
    EXPECT_THROW(obs::MetricsSpec::parse("cycles:99999999999999999999"),
                 FatalError);
    EXPECT_EQ(obs::MetricsSpec::parse("cycles:18446744073709551615").every,
              18446744073709551615ull);
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
runObserved(const compiler::CompiledProgram &cp, const MachineConfig &cfg,
            const std::string &metrics = "epoch")
{
    sim::Machine m(cp, cfg);
    obs::Timeline tl;
    obs::MetricsRecorder rec(obs::MetricsSpec::parse(metrics));
    sim::RecorderSink sink(m, &tl, &rec);
    m.setTraceSink(&sink);
    ObservedRun out;
    out.result = m.run();
    out.events = tl.events();
    out.rows = rec.rows();
    return out;
}

} // namespace

TEST(ObsEquivalence, FastPathEmitsIdenticalTimeline)
{
    // The executor is the single producer of observability events, so a
    // run whose program is lowered inside it and a run served from the
    // program cache must emit event-identical timelines and metric
    // series, not merely equal aggregates - under the static schedule
    // and under Dynamic self-scheduling alike.
    for (SchedPolicy sched : {SchedPolicy::Block, SchedPolicy::Dynamic}) {
        MachineConfig cfg;
        cfg.sched = sched;
        const compiler::CompiledProgram cp = compiler::compileProgram(
            workloads::buildBenchmark("ocean", /*scale=*/1));
        const ObservedRun fresh = runObserved(cp, cfg);
        const ObservedRun cached = runObserved(cp, cfg);

        EXPECT_EQ(fresh.result, cached.result);
        ASSERT_FALSE(fresh.events.empty());
        ASSERT_FALSE(fresh.rows.empty());
        EXPECT_EQ(fresh.events, cached.events);
        EXPECT_EQ(fresh.rows, cached.rows);
    }
}

TEST(ObsEquivalence, ObserversDoNotPerturbTheRun)
{
    // Zero-overhead guard, correctness half: attaching the recorders
    // must leave every simulated quantity (and the fingerprint) exactly
    // as an unobserved run produces it. The performance half is
    // measured end to end by simbench (BENCHMARK.json).
    const compiler::CompiledProgram cp = compiler::compileProgram(
        workloads::buildBenchmark("qcd2", /*scale=*/1));
    MachineConfig cfg;
    sim::Machine plain_machine(cp, cfg);
    const sim::RunResult plain = plain_machine.run();
    const ObservedRun observed = runObserved(cp, cfg);

    EXPECT_EQ(plain, observed.result);
    EXPECT_EQ(plain.fingerprint(), observed.result.fingerprint());
}

namespace {

/** FNV-1a over @p v's eight bytes, little end first. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

std::uint64_t
digestEvents(const std::vector<obs::Timeline::Event> &events)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const obs::Timeline::Event &e : events) {
        fnvMix(h, static_cast<std::uint64_t>(e.kind));
        fnvMix(h, e.sub);
        fnvMix(h, e.mark);
        fnvMix(h, e.track);
        fnvMix(h, e.epoch);
        fnvMix(h, e.ts);
        fnvMix(h, e.dur);
        fnvMix(h, e.addr);
        fnvMix(h, e.arg);
    }
    return h;
}

std::uint64_t
digestRows(const std::vector<obs::MetricSample> &rows)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const obs::MetricSample &r : rows) {
#define HSCD_METRIC_MIX(name) fnvMix(h, r.name);
        HSCD_METRIC_U64_FIELDS(HSCD_METRIC_MIX)
#undef HSCD_METRIC_MIX
        std::uint64_t bits;
        std::memcpy(&bits, &r.networkLoad, sizeof(bits));
        fnvMix(h, bits);
    }
    return h;
}

bool
hasInstant(const std::vector<obs::Timeline::Event> &events,
           obs::Timeline::InstantKind k)
{
    return std::any_of(events.begin(), events.end(), [k](const auto &e) {
        return e.kind == obs::Timeline::Kind::Instant &&
               e.sub == static_cast<std::uint8_t>(k);
    });
}

} // namespace

TEST(ObsEquivalence, ArtifactsPinned)
{
    // The timeline events and metric rows of three runs, pinned as FNV
    // digests: a plain TPI run sampled per epoch and per 5000 cycles, a
    // faulted run whose boundaries report injected faults and resets,
    // and a run that ends in a structured abort. Any change to what the executor
    // reports, or when, shows up here.
    const compiler::CompiledProgram ocean = compiler::compileProgram(
        workloads::buildBenchmark("ocean", /*scale=*/1));
    MachineConfig tpi;
    tpi.scheme = SchemeKind::TPI;

    const ObservedRun byEpoch = runObserved(ocean, tpi, "epoch");
    const ObservedRun byCycles = runObserved(ocean, tpi, "cycles:5000");
    EXPECT_EQ(byEpoch.events, byCycles.events);
    EXPECT_GT(byCycles.rows.size(), 1u);

    // 2-bit tags: boundaries report two-phase resets and injected
    // faults together.
    MachineConfig faulted = tpi;
    faulted.timetagBits = 2;
    faulted.fault.rate = 0.02;
    faulted.fault.seed = 3;
    const ObservedRun faults = runObserved(ocean, faulted, "epoch");
    EXPECT_FALSE(faults.result.aborted());
    EXPECT_TRUE(hasInstant(faults.events,
                           obs::Timeline::InstantKind::FaultInjected));
    EXPECT_TRUE(hasInstant(faults.events,
                           obs::Timeline::InstantKind::TagReset));

    // One retry per message: a second consecutive drop aborts the run
    // a few epochs in, after spans, samples and recovered faults.
    MachineConfig fragile = tpi;
    fragile.fault.rate = 0.01;
    fragile.fault.sites = fault::siteBit(fault::Site::NetDrop);
    fragile.faultMaxRetries = 1;
    const ObservedRun aborted = runObserved(ocean, fragile, "epoch");
    EXPECT_EQ(aborted.result.abort.kind, fault::AbortKind::Protocol);
    EXPECT_TRUE(hasInstant(aborted.events,
                           obs::Timeline::InstantKind::Abort));
    EXPECT_TRUE(hasInstant(aborted.events,
                           obs::Timeline::InstantKind::FaultInjected));
    EXPECT_FALSE(aborted.rows.empty());

    // HSCD_PRINT_PINS=1 prints the current values.
    struct Pin
    {
        std::size_t events;
        std::uint64_t eventDigest;
        std::size_t rows;
        std::uint64_t rowDigest;
    };
    const Pin pins[] = {
        {4093, 0xd188f4846503dcc7ull, 24, 0xb072f851e79b22d3ull},
        {4093, 0xd188f4846503dcc7ull, 16, 0x64e5d3695eca53fbull},
        {4200, 0x77e07441ce85659aull, 24, 0xc0db1703ca9f3e7bull},
        {1786, 0x0f8b7df2974d7d3cull, 9, 0xd3340dab19363855ull},
    };
    const ObservedRun *runs[] = {&byEpoch, &byCycles, &faults, &aborted};
    for (std::size_t i = 0; i < std::size(runs); ++i) {
        const ObservedRun &r = *runs[i];
        if (std::getenv("HSCD_PRINT_PINS"))
            std::printf("PIN {%zu, %#018llxull, %zu, %#018llxull},\n",
                        r.events.size(),
                        (unsigned long long)digestEvents(r.events),
                        r.rows.size(),
                        (unsigned long long)digestRows(r.rows));
        EXPECT_EQ(r.events.size(), pins[i].events) << "run " << i;
        EXPECT_EQ(digestEvents(r.events), pins[i].eventDigest) << "run " << i;
        EXPECT_EQ(r.rows.size(), pins[i].rows) << "run " << i;
        EXPECT_EQ(digestRows(r.rows), pins[i].rowDigest) << "run " << i;
    }
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
