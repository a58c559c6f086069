/**
 * @file
 * The campaign-cell core behind the sweep checkpoint (src/campaign/):
 * the journal's strict header parse - a header torn inside the identity
 * is rejected as structurally invalid, never misparsed as a shorter
 * foreign id - its bit-exact record codec, torn-tail compaction, and
 * the exception guard around a cell; the counter schema the codec, the
 * fingerprint and the cell JSON walk; and the sweep engine's abort
 * contract: an expired --deadline-ms and a SIGTERM mid-campaign both
 * exit with verify::ExitAbort (4) after checkpointing, never 0; the
 * soundness gate finish() applies after writing the artifacts; and the
 * fault campaign's classification on synthetic and trace workloads.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/journal.hh"
#include "common/log.hh"
#include "harness.hh"
#include "mem/coherence.hh"
#include "sweep.hh"
#include "verify/diagnostic.hh"
#include "workloads/trace.hh"

using namespace hscd;
using namespace hscd::campaign;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Deterministic synthetic cell: no simulator, microsecond-fast. */
sim::RunResult
fakeCell(std::size_t i)
{
    sim::RunResult r;
    r.tasks = 1 + i;
    r.parallelEpochs = 2;
    r.reads = 100 * (i + 1);
    r.writes = 10 * (i + 1);
    r.readHits = 90 * (i + 1);
    // A non-trivial double: must survive the journal bit-exactly.
    r.readMissRate = 0.1 + 1e-17 * double(i);
    return r;
}

/** Journal cells [0, n) of a @p cells-cell campaign to @p path, in order. */
void
journalCells(const std::string &path, std::size_t n, std::size_t cells)
{
    CellJournal j(path, "m v1", 7, cells);
    ASSERT_TRUE(j.open());
    for (std::size_t i = 0; i < n; ++i)
        j.append(i, {fakeCell(i), ""});
}

} // namespace

// --- journal primitives ------------------------------------------------

TEST(CellJournal, HeaderRoundTrip)
{
    const std::string h = journalHeader("test-magic v1", 0xdeadbeef1234u);
    std::uint64_t id = 0;
    EXPECT_TRUE(parseJournalHeader(h, "test-magic v1", id));
    EXPECT_EQ(id, 0xdeadbeef1234u);
}

TEST(CellJournal, TruncatedIdentityIsStructurallyInvalid)
{
    // The crash-recovery contract: a header torn inside the 16-hex
    // identity must be rejected as NOT-a-journal - never misparsed as a
    // shorter (foreign-looking) identity that would make resume
    // silently re-run or mis-attach.
    const std::string good = journalHeader("m v1", 0x0123456789abcdefu);
    std::uint64_t id = 0;
    ASSERT_TRUE(parseJournalHeader(good, "m v1", id));
    for (std::size_t cut = 1; cut <= 16; ++cut) {
        const std::string torn = good.substr(0, good.size() - cut);
        EXPECT_FALSE(parseJournalHeader(torn, "m v1", id))
            << "accepted a header missing " << cut << " identity bytes";
    }
}

TEST(CellJournal, WrongMagicOrExtraBytesRejected)
{
    const std::string h = journalHeader("mine v1", 42);
    std::uint64_t id = 0;
    EXPECT_FALSE(parseJournalHeader(h, "other v1", id));
    EXPECT_FALSE(parseJournalHeader(h + "0", id ? "" : "mine v1", id));
    EXPECT_FALSE(parseJournalHeader(h + " x", "mine v1", id));
    std::string nonHex = h;
    nonHex[nonHex.size() - 1] = 'g';
    EXPECT_FALSE(parseJournalHeader(nonHex, "mine v1", id));
}

TEST(CellJournal, ResultTokensRoundTripBitExactly)
{
    sim::RunResult r = fakeCell(7);
    r.readMissRate = 0.30000000000000004; // not representable cleanly
    std::ostringstream os;
    encodeResult(os, r);
    TokenReader tr(os.str());
    sim::RunResult back;
    ASSERT_TRUE(decodeResult(tr, back));
    EXPECT_EQ(back, r); // bit-exact via doubleBits
}

TEST(CellJournal, OutOfRangeAbortKindIsATornRecord)
{
    // A kind past AbortKind::ClockLimit must fail to decode, so resume
    // re-runs the cell instead of restoring a result that later panics
    // in abortKindName (9) or silently reads as a clean run (256).
    sim::RunResult r = fakeCell(3);
    r.abort.kind = fault::AbortKind::Watchdog;
    r.abort.reason = "marker";
    std::ostringstream os;
    encodeResult(os, r);
    const std::string good = os.str();
    const std::size_t at = good.find(" 2 marker ");
    ASSERT_NE(at, std::string::npos) << good;
    for (const char *kind : {"5", "9", "256"}) {
        const std::string bad =
            good.substr(0, at + 1) + kind + good.substr(at + 2);
        TokenReader tr(bad);
        sim::RunResult back;
        EXPECT_FALSE(decodeResult(tr, back)) << "kind " << kind;
    }
    TokenReader tr(good);
    sim::RunResult back;
    ASSERT_TRUE(decodeResult(tr, back));
    EXPECT_EQ(back, r);
}

TEST(CellJournal, UnterminatedLastRecordIsCompactedBeforeAppend)
{
    // A kill -9 can cut a record after its last token but before its
    // newline. The record is whole and restored, but the next append
    // would continue that line and tear both records, so restore()
    // rewrites the file first.
    const std::string path = freshDir("journal_unterminated") + "/j";
    {
        CellJournal j(path, "m v1", 7, 3);
        ASSERT_TRUE(j.open());
        j.append(0, {fakeCell(0), ""});
    }
    std::string bytes = slurp(path);
    ASSERT_EQ(bytes.back(), '\n');
    bytes.pop_back();
    std::ofstream(path, std::ios::trunc) << bytes;
    {
        CellJournal j(path, "m v1", 7, 3);
        ASSERT_EQ(j.restore(), CellJournal::State::Resumed);
        EXPECT_EQ(j.restored(), 1u);
        ASSERT_TRUE(j.open());
        j.append(1, {fakeCell(1), "boom"});
    }
    CellJournal j(path, "m v1", 7, 3);
    ASSERT_EQ(j.restore(), CellJournal::State::Resumed);
    EXPECT_EQ(j.restored(), 2u);
    EXPECT_EQ(j.dropped(), 0u);
    EXPECT_EQ(j.outcome(0).result, fakeCell(0));
    EXPECT_EQ(j.outcome(1).error, "boom");
    EXPECT_EQ(j.errors(), 1u);
    EXPECT_FALSE(j.has(2));
}

TEST(CellJournal, TornTailIsDroppedCompactedAndResumed)
{
    const std::string dir = freshDir("journal_torn");
    journalCells(dir + "/ref", 5, 5);
    const std::string reference = slurp(dir + "/ref");

    // Crash image: the header, two whole records and half of the third,
    // no newline - exactly what a kill -9 mid-append leaves.
    const std::string path = dir + "/j";
    std::istringstream lines(reference);
    std::string line, torn;
    for (int keep = 0; keep < 3 && std::getline(lines, line); ++keep)
        torn += line + "\n";
    const std::size_t whole = torn.size();
    ASSERT_TRUE(std::getline(lines, line));
    torn += line.substr(0, line.size() / 2);
    std::ofstream(path, std::ios::trunc) << torn;

    {
        CellJournal j(path, "m v1", 7, 5);
        ASSERT_EQ(j.restore(), CellJournal::State::Resumed);
        EXPECT_EQ(j.restored(), 2u);
        EXPECT_EQ(j.dropped(), 1u);
        EXPECT_TRUE(j.has(1));
        EXPECT_FALSE(j.has(2));
        // Compacted before any append: the torn half-line is gone.
        EXPECT_EQ(slurp(path), reference.substr(0, whole));
        ASSERT_TRUE(j.open());
        for (std::size_t i = 2; i < 5; ++i)
            j.append(i, {fakeCell(i), ""});
    }
    // Re-running the torn and missing cells rebuilds the uninterrupted
    // journal byte for byte, and every record restores.
    EXPECT_EQ(slurp(path), reference);
    CellJournal j(path, "m v1", 7, 5);
    ASSERT_EQ(j.restore(), CellJournal::State::Resumed);
    EXPECT_EQ(j.restored(), 5u);
    EXPECT_EQ(j.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(j.outcome(i).result, fakeCell(i)) << "cell " << i;
}

TEST(CellJournal, DuplicateAndOutOfRangeRecordsAreDropped)
{
    const std::string path = freshDir("journal_dup") + "/j";
    journalCells(path, 2, 3);
    std::string bytes = slurp(path);
    const std::size_t first = bytes.find('\n') + 1;
    const std::string record0 =
        bytes.substr(first, bytes.find('\n', first) + 1 - first);
    std::string outOfRange = record0;
    outOfRange.replace(0, 6, "cell 9"); // record0 starts "cell 0"
    std::ofstream(path, std::ios::app) << record0 << outOfRange;

    CellJournal j(path, "m v1", 7, 3);
    ASSERT_EQ(j.restore(), CellJournal::State::Resumed);
    EXPECT_EQ(j.restored(), 2u);
    EXPECT_EQ(j.dropped(), 2u);
    EXPECT_EQ(slurp(path), bytes) << "dropped records were not compacted";
}

TEST(CellJournal, ForeignAndTornHeaderJournalsRestoreNothing)
{
    const std::string dir = freshDir("journal_aside");
    const std::string good = journalHeader("m v1", 7);
    struct Case
    {
        const char *name;
        std::string header;
        CellJournal::State want;
    };
    const Case cases[] = {
        // Another magic over the same record layout: the strict header
        // parse makes it structurally not ours.
        {"magic", journalHeader("other v1", 7),
         CellJournal::State::NotAJournal},
        // Our magic, another campaign's identity.
        {"foreign", journalHeader("m v1", 7 ^ 0xabcdu),
         CellJournal::State::Foreign},
        // A header torn inside the identity.
        {"torn", good.substr(0, good.size() - 7),
         CellJournal::State::NotAJournal},
    };
    for (const Case &c : cases) {
        const std::string path = dir + "/" + c.name;
        {
            std::ofstream f(path);
            f << c.header << "\ncell 0 -";
            encodeResult(f, fakeCell(0));
            f << "\n";
        }
        const std::string before = slurp(path);
        CellJournal j(path, "m v1", 7, 3);
        EXPECT_EQ(j.restore(), c.want) << c.name;
        EXPECT_EQ(j.restored(), 0u) << c.name;
        EXPECT_FALSE(j.has(0)) << c.name;
        if (c.want == CellJournal::State::Foreign) {
            EXPECT_EQ(j.foundIdentity(), 7u ^ 0xabcdu);
        }
        // What becomes of the file is the caller's policy (the sweep
        // stops with exit 2): restore() leaves it as it found it.
        EXPECT_EQ(slurp(path), before) << c.name;
    }
}

// --- cell guard ----------------------------------------------------------

TEST(GuardedCall, AnyThrowBecomesTheCellsError)
{
    // Neither a throw of a non-std::exception type nor an exception
    // with an empty what() may escape or pass as a success.
    EXPECT_EQ(guardedCall([]() -> sim::RunResult { throw 42; }).error,
              "unhandled non-standard exception");
    EXPECT_EQ(guardedCall([]() -> sim::RunResult {
                  throw std::runtime_error("");
              }).error,
              "unhandled exception");
    EXPECT_EQ(guardedCall([]() -> sim::RunResult {
                  throw std::runtime_error("boom");
              }).error,
              "boom");
    const CellOutcome ok = guardedCall([] { return fakeCell(2); });
    EXPECT_EQ(ok.error, "");
    EXPECT_EQ(ok.result, fakeCell(2));
}

TEST(GuardedCall, SweepJournalsAndRestoresThrownErrors)
{
    // Through a checkpointed sweep both throws become structured cell
    // errors, the campaign completes, and a resume restores the errors
    // (escaped tokens, spaces and all) without re-running any cell.
    const std::string dir = freshDir("guarded_sweep");
    std::atomic<int> calls{0};
    auto sweepOnce = [&](bool resume, const std::string &json) {
        bench::SweepOptions opts;
        opts.jobs = 2;
        opts.checkpointPath = dir + "/j";
        opts.resume = resume;
        opts.jsonPath = json;
        bench::Sweep sweep(opts, "guarded");
        sweep.addCustom("ok-0", [&] {
            ++calls;
            return fakeCell(0);
        });
        sweep.addCustom("non-std", [&]() -> sim::RunResult {
            ++calls;
            throw 42;
        });
        sweep.addCustom("empty-what", [&]() -> sim::RunResult {
            ++calls;
            throw std::runtime_error("");
        });
        sweep.run();
        EXPECT_EQ(sweep.error(0), "");
        EXPECT_EQ(sweep[0], fakeCell(0));
        EXPECT_EQ(sweep.error(1), "unhandled non-standard exception");
        EXPECT_EQ(sweep.error(2), "unhandled exception");
        // finish() writes the JSON, then exits for the harness errors.
        std::ostringstream devnull;
        EXPECT_EXIT(sweep.finish(devnull),
                    testing::ExitedWithCode(verify::ExitInternal),
                    "non-std: harness error: unhandled non-standard "
                    "exception.*empty-what: harness error");
    };
    sweepOnce(false, dir + "/a.json");
    EXPECT_EQ(calls.load(), 3);
    sweepOnce(true, dir + "/b.json");
    EXPECT_EQ(calls.load(), 3) << "resume re-ran a journaled cell";
    const std::string json = slurp(dir + "/a.json");
    EXPECT_NE(json.find("\"error\": \"unhandled non-standard exception\""),
              std::string::npos);
    EXPECT_NE(json.find("\"error\": \"unhandled exception\""),
              std::string::npos);
    EXPECT_EQ(slurp(dir + "/b.json"), json);
}

// --- the soundness gate in finish() ------------------------------------

TEST(SweepGate, FailingCellsAreReportedAfterTheArtifacts)
{
    // Every failing cell is warned in add order, the exit code is the
    // first failing cell's (flagged: 3, though an aborted cell, 4,
    // follows), and the JSON already holds every cell.
    const std::string dir = freshDir("sweep_gate");
    bench::SweepOptions opts;
    opts.jobs = 1;
    opts.jsonPath = dir + "/gate.json";
    bench::Sweep sweep(opts, "gate");
    sweep.addCustom("flagged-0", [] {
        sim::RunResult r = fakeCell(0);
        r.oracleViolations = 1;
        return r;
    });
    sweep.addCustom("aborted-1", [] {
        sim::RunResult r = fakeCell(1);
        r.abort.kind = fault::AbortKind::Watchdog;
        r.abort.reason = "stuck";
        return r;
    });
    sweep.addCustom("flagged-2", [] {
        sim::RunResult r = fakeCell(2);
        r.shadowViolations = 2;
        return r;
    });
    sweep.run();
    std::ostringstream devnull;
    EXPECT_EXIT(sweep.finish(devnull),
                testing::ExitedWithCode(verify::ExitViolation),
                "flagged-0: 1 oracle / 0 race / 0 shadow violations.*"
                "aborted-1: run aborted \\(watchdog: stuck\\).*"
                "flagged-2: 0 oracle / 0 race / 2 shadow violations");
    const std::string json = slurp(opts.jsonPath);
    for (const char *label : {"flagged-0", "aborted-1", "flagged-2"})
        EXPECT_NE(json.find(csprintf("\"label\": \"%s\"", label)),
                  std::string::npos)
            << label;
}

TEST(FaultCampaign, SynthAndTraceCellsAreNeverSilent)
{
    // R1's predicate on workloads from two sources: a synthetic HIR
    // program through Sweep::add and the checked-in trace through
    // addCustom. Each gets a fault-free reference per scheme; then five
    // schemes x seeds 1..5 at rate 1e-3 over every site, seed s on
    // workload (s - 1) mod 2, each classified against its reference.
    const std::string synth = "synth:stencil:3";
    const workloads::TraceWorkload trace = workloads::loadTraceFile(
        std::string(HSCD_SOURCE_DIR) + "/tests/data/sample.trace");
    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW,
                                  SchemeKind::VC};
    bench::SweepOptions opts;
    opts.jobs = 2;
    bench::Sweep sweep(opts, "fault-campaign");
    auto add = [&](const std::string &label, bool isTrace,
                   const MachineConfig &cfg) {
        if (isTrace)
            return sweep.addCustom(label, [&trace, cfg] {
                return workloads::runTrace(trace, cfg);
            });
        return sweep.add(label, synth, cfg, /*scale=*/1);
    };
    auto config = [](SchemeKind k) {
        MachineConfig c = bench::makeConfig(k);
        c.shadowEpochCheck = true;
        return c;
    };

    std::vector<std::size_t> refs; // scheme-major, then synth, trace
    for (SchemeKind k : schemes)
        for (bool isTrace : {false, true})
            refs.push_back(add(csprintf("ref/%s/%s",
                                        isTrace ? "trace" : "synth",
                                        schemeName(k)),
                               isTrace, config(k)));
    struct Faulted
    {
        std::size_t cell, ref;
    };
    std::vector<Faulted> runs;
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            const bool isTrace = (seed - 1) % 2;
            MachineConfig c = config(schemes[s]);
            c.fault.rate = 1e-3;
            c.fault.seed = seed;
            c.fault.sites = fault::kSitesAll;
            runs.push_back(
                {add(csprintf("%s/seed=%d/%s", schemeName(schemes[s]),
                              seed, isTrace ? "trace" : "synth"),
                     isTrace, c),
                 refs[2 * s + (isTrace ? 1 : 0)]});
        }
    }
    sweep.run();

    std::size_t counts[5] = {}; // indexed by FaultOutcome
    for (const Faulted &f : runs) {
        ASSERT_EQ(sweep.error(f.cell), "");
        ASSERT_EQ(sweep.error(f.ref), "");
        ++counts[static_cast<std::size_t>(
            bench::classifyFaulted(sweep[f.cell], sweep[f.ref]))];
    }
    EXPECT_EQ(runs.size(), 25u);
    EXPECT_EQ(counts[std::size_t(bench::FaultOutcome::Clean)], 13u);
    EXPECT_EQ(counts[std::size_t(bench::FaultOutcome::Recovered)], 12u);
    EXPECT_EQ(counts[std::size_t(bench::FaultOutcome::Aborted)], 0u);
    EXPECT_EQ(counts[std::size_t(bench::FaultOutcome::Flagged)], 0u);
    EXPECT_EQ(counts[std::size_t(bench::FaultOutcome::Silent)], 0u);
}

// --- counter schema ------------------------------------------------------

namespace {

/** A distinct value for schema field @p i of type @p T. */
template <class T>
T
distinctValue(std::uint64_t i)
{
    if constexpr (std::is_floating_point_v<T>)
        return T(i) + 0.375;
    else
        return T(1000 + 7 * i);
}

/** One schema entry, expanded independently of the code under test. */
struct SchemaField
{
    const char *key;
    void (*set)(sim::RunResult &, std::uint64_t);
};

const std::vector<SchemaField> &
schemaFields()
{
    static const std::vector<SchemaField> fields = {
#define HSCD_TEST_FIELD(type, member, key, desc)                             \
    {key, [](sim::RunResult &r, std::uint64_t i) {                          \
         r.member = distinctValue<type>(i);                                  \
     }},
        HSCD_RESULT_FIELDS(HSCD_TEST_FIELD, HSCD_TEST_FIELD)
#undef HSCD_TEST_FIELD
    };
    return fields;
}

} // namespace

TEST(CounterSchema, EveryFieldRoundTripsFingerprintsAndEmitsOnce)
{
    const std::vector<SchemaField> &fields = schemaFields();
    sim::RunResult r;
    for (std::size_t i = 0; i < fields.size(); ++i)
        fields[i].set(r, i);

    std::ostringstream os;
    encodeResult(os, r);
    TokenReader tr(os.str());
    sim::RunResult back;
    ASSERT_TRUE(decodeResult(tr, back));
    EXPECT_TRUE(tr.atEnd());
    EXPECT_EQ(back, r);

    for (std::size_t i = 0; i < fields.size(); ++i) {
        sim::RunResult flipped = r;
        fields[i].set(flipped, i + fields.size());
        EXPECT_NE(flipped.fingerprint(), r.fingerprint()) << fields[i].key;
    }

    std::ostringstream json;
    writeResultCellJson(json, r, "");
    const std::string cell = json.str();
    std::size_t prev = 0;
    for (const SchemaField &f : fields) {
        const std::string key = std::string("\"") + f.key + "\": ";
        const std::size_t at = cell.find(key);
        ASSERT_NE(at, std::string::npos) << f.key;
        EXPECT_EQ(cell.find(key, at + 1), std::string::npos) << f.key;
        EXPECT_GT(at, prev) << f.key << " out of schema order";
        prev = at;
    }
}

TEST(CounterSchema, EveryCounterKeyIsListedOnce)
{
    // custom_machine lists the RunResult scalars, then the scheme-only
    // stats; no key may appear twice in that listing.
    std::vector<std::string> keys;
    sim::RunResult r;
    sim::forEachScalar(r, [&](const char *key, auto) { keys.push_back(key); });
#define HSCD_TEST_KEY(type, member, key, desc) keys.push_back(key);
    HSCD_SCHEME_ONLY_STATS(HSCD_TEST_KEY)
#undef HSCD_TEST_KEY
    std::set<std::string> seen;
    for (const std::string &k : keys)
        EXPECT_TRUE(seen.insert(k).second) << k << " listed twice";

    // SchemeStats holds each counter as the schema's type, from zero.
    const mem::SchemeStats st;
#define HSCD_TEST_MEMBER(type, member, ...)                                  \
    static_assert(std::is_same_v<decltype(mem::SchemeStats::member), type>); \
    EXPECT_EQ(st.member, 0) << #member;
    HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_TEST_MEMBER)
    HSCD_SCHEME_ONLY_STATS(HSCD_TEST_MEMBER)
#undef HSCD_TEST_MEMBER
}

namespace {

/**
 * A fixed non-trivial result: every scalar distinct, faults, one oracle
 * and one shadow violation, and an abort whose strings need escaping.
 */
sim::RunResult
pinnedResult()
{
    sim::RunResult r;
    r.cycles = 123456789; r.epochs = 42; r.parallelEpochs = 17;
    r.tasks = 2048;
    r.reads = 100003; r.writes = 40009; r.readHits = 90001;
    r.readMisses = 10002;
    r.readMissRate = 10002.0 / 100003.0; r.avgMissLatency = 37.625;
    r.missCold = 1201; r.missReplacement = 1302; r.missTrueShare = 1403;
    r.missFalseShare = 1504; r.missConservative = 1605;
    r.missTagReset = 1706; r.missUncached = 1807;
    r.timeReads = 5001; r.timeReadHits = 4002; r.bypassReads = 303;
    r.readPackets = 20011; r.writePackets = 20012;
    r.coherencePackets = 20013; r.writebackPackets = 20014;
    r.readWords = 30015; r.writeWords = 30016; r.writebackWords = 30017;
    r.trafficPackets = 60050; r.trafficWords = 90048;
    r.busyMax = 7000001; r.busyAvg = 6543210.125; r.serialCycles = 999;
    r.oracleViolations = 1; r.doallViolations = 3;
    r.firstViolations.push_back({0x1040, 7, 11, 12, 5, 3});
    r.shadowViolations = 2;
    r.firstShadowViolations.push_back({0x2080, 9, 1, 6, 2, 4});
    r.abort.kind = fault::AbortKind::Protocol;
    r.abort.reason = "retry budget \"exhausted\"\tat 3\\4";
    r.abort.cycle = 123450000; r.abort.epoch = 41; r.abort.proc = 2;
    r.abort.snapshot = "epoch 41, 0 parked\n  proc 0: t=1 busy=2\n";
    r.faultsInjected = 14; r.faultsRecovered = 13; r.faultRetries = 27;
    return r;
}

} // namespace

TEST(CounterSchema, PinnedResultIsByteIdentical)
{
    // Byte goldens: the fingerprint, the journal record and the cell
    // JSON of this result are compatibility contracts.
    const sim::RunResult r = pinnedResult();
    EXPECT_EQ(csprintf("%016x", r.fingerprint()), "31f3a46c753151e2");

    std::ostringstream tokens;
    encodeResult(tokens, r);
    EXPECT_EQ(tokens.str(),
              " 123456789 42 17 2048 100003 40009 90001 10002"
              " 3fb99ab6cdda89c0 4042d00000000000 1201 1302 1403 1504 1605"
              " 1706 1807 5001 4002 303 20011 20012 20013 20014 30015 30016"
              " 30017 60050 90048 7000001 4158f5da88000000 999 1 3 1 4160 7"
              " 11 12 5 3 2 1 8320 9 1 6 2 4 1"
              " retry%20budget%20\"exhausted\"%09at%203\\4 123450000 41 2"
              " epoch%2041,%200%20parked%0a%20%20proc%200:%20t=1%20busy=2%0a"
              " 14 13 27");

    std::ostringstream cell;
    writeResultCellJson(cell, r, "");
    EXPECT_EQ(cell.str(), R"GOLD(      "fingerprint": "31f3a46c753151e2",
      "cycles": 123456789,
      "epochs": 42,
      "parallel_epochs": 17,
      "tasks": 2048,
      "reads": 100003,
      "writes": 40009,
      "read_hits": 90001,
      "read_misses": 10002,
      "read_miss_rate": 0.1000169994900153,
      "avg_miss_latency": 37.625,
      "miss_cold": 1201,
      "miss_replacement": 1302,
      "miss_true_share": 1403,
      "miss_false_share": 1504,
      "miss_conservative": 1605,
      "miss_tag_reset": 1706,
      "miss_uncached": 1807,
      "time_reads": 5001,
      "time_read_hits": 4002,
      "bypass_reads": 303,
      "read_packets": 20011,
      "write_packets": 20012,
      "coherence_packets": 20013,
      "writeback_packets": 20014,
      "read_words": 30015,
      "write_words": 30016,
      "writeback_words": 30017,
      "traffic_packets": 60050,
      "traffic_words": 90048,
      "busy_max": 7000001,
      "busy_avg": 6543210.125,
      "serial_cycles": 999,
      "oracle_violations": 1,
      "doall_violations": 3,
      "shadow_violations": 2,
      "faults_injected": 14,
      "faults_recovered": 13,
      "fault_retries": 27,
      "abort": {
        "kind": "protocol",
        "reason": "retry budget \"exhausted\"\tat 3\\4",
        "cycle": 123450000,
        "epoch": 41,
        "proc": 2
      })GOLD");
}

// --- sweep abort contract ----------------------------------------------

namespace {

/** Run a 4-cell sweep whose second cell triggers @p trip. */
void
sweepAbortScenario(bench::SweepOptions opts, std::function<void()> trip)
{
    bench::Sweep sweep(opts, "abort-contract");
    sweep.addCustom("ok-0", [] { return fakeCell(0); });
    sweep.addCustom("trip", [trip] {
        trip();
        return fakeCell(1);
    });
    for (int i = 2; i < 4; ++i)
        sweep.addCustom(csprintf("slow-%d", i), [i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(80));
            return fakeCell(std::size_t(i));
        });
    sweep.run();
    std::ostringstream devnull;
    sweep.finish(devnull); // must std::exit(ExitAbort), never return
    std::exit(0);
}

} // namespace

TEST(SweepAbort, ExpiredDeadlineExitsWithAbortCode)
{
    bench::SweepOptions opts;
    opts.jobs = 1;
    opts.deadlineMs = 1; // expires before the later cells start
    EXPECT_EXIT(sweepAbortScenario(opts, [] {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(30));
                }),
                testing::ExitedWithCode(verify::ExitAbort), "deadline");
}

TEST(SweepAbort, SigtermCheckpointsAndExitsWithAbortCode)
{
    EXPECT_EXIT(
        {
            // parse() installs the SIGINT/SIGTERM handlers.
            std::vector<std::string> argvStrs = {"sweep-abort-test"};
            std::vector<char *> argv = {argvStrs[0].data()};
            bench::SweepOptions opts =
                bench::SweepOptions::parse(1, argv.data());
            opts.jobs = 1;
            opts.checkpointPath =
                testing::TempDir() + "sweep_abort_sig.journal";
            std::remove(opts.checkpointPath.c_str());
            sweepAbortScenario(opts, [] { std::raise(SIGTERM); });
        },
        testing::ExitedWithCode(verify::ExitAbort),
        "skipped.*journaled");
}
