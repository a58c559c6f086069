/**
 * @file
 * Unit and behavior tests for the campaign-server subsystem
 * (src/serve/): the strict JSON parser, the submission grammar and
 * identity contract, the PR 4-format journal primitives - in
 * particular that a header torn inside the identity is rejected as
 * structurally invalid, never misparsed as a shorter foreign id - the
 * durable queue's crash recovery (torn tails compacted, foreign and
 * invalid journals set aside), admission control, and the NDJSON
 * request dispatch. Also pins the sweep engine's abort contract:
 * an expired --deadline-ms and a SIGTERM mid-campaign both exit with
 * verify::ExitAbort (4) after checkpointing, never 0.
 */

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "harness.hh"
#include "mem/coherence.hh"
#include "serve/journal.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "sweep.hh"
#include "verify/diagnostic.hh"

using namespace hscd;
using namespace hscd::serve;

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
fakeCell(const CampaignSpec &, std::size_t i)
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

CampaignSpec
smallSpec(const std::string &name, std::size_t cells)
{
    CampaignSpec spec;
    spec.name = name;
    for (std::size_t i = 0; i < cells; ++i) {
        CellSpec c;
        c.workload = "adm";
        c.scheme = "tpi";
        c.scale = 1;
        c.label = csprintf("cell-%d", int(i));
        spec.cells.push_back(std::move(c));
    }
    return spec;
}

/** Spin until campaign @p id completes (bounded). */
CampaignQueue::Status
awaitComplete(CampaignQueue &q, std::uint64_t id)
{
    for (int spins = 0; spins < 2000; ++spins) {
        CampaignQueue::Status st = q.status(id);
        if (st.complete)
            return st;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "campaign never completed";
    return q.status(id);
}

} // namespace

// --- JSON parser -------------------------------------------------------

TEST(ServeJson, ParsesScalarsObjectsArrays)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a": 1.5, "b": "x\n\"y", "c": [true, false, null], "d": {}})",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.get("a")->number, 1.5);
    EXPECT_EQ(v.get("b")->text, "x\n\"y");
    ASSERT_TRUE(v.get("c")->isArray());
    EXPECT_EQ(v.get("c")->items.size(), 3u);
    EXPECT_TRUE(v.get("c")->items[0].boolean);
    EXPECT_TRUE(v.get("d")->isObject());
}

TEST(ServeJson, RejectsTrailingGarbageAndDepthBomb)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{} trailing", v, err));
    EXPECT_FALSE(parseJson("{\"a\": }", v, err));
    EXPECT_FALSE(parseJson("", v, err));
    std::string bomb;
    for (int i = 0; i < 100; ++i)
        bomb += "[";
    EXPECT_FALSE(parseJson(bomb, v, err));
    EXPECT_NE(err.find("nest"), std::string::npos) << err;
}

TEST(ServeJson, DumpRoundTrips)
{
    JsonValue v;
    std::string err;
    const std::string in =
        R"({"op": "submit", "n": 3, "tags": ["a", "b"]})";
    ASSERT_TRUE(parseJson(in, v, err));
    JsonValue again;
    ASSERT_TRUE(parseJson(v.dump(), again, err)) << err;
    EXPECT_EQ(again.get("n")->number, 3);
    EXPECT_EQ(again.get("tags")->items[1].text, "b");
}

// --- journal primitives ------------------------------------------------

TEST(ServeJournal, HeaderRoundTrip)
{
    const std::string h = journalHeader("test-magic v1", 0xdeadbeef1234u);
    std::uint64_t id = 0;
    EXPECT_TRUE(parseJournalHeader(h, "test-magic v1", id));
    EXPECT_EQ(id, 0xdeadbeef1234u);
}

TEST(ServeJournal, TruncatedIdentityIsStructurallyInvalid)
{
    // The crash-recovery contract of satellite 3: a header torn inside
    // the 16-hex identity must be rejected as NOT-a-journal - never
    // misparsed as a shorter (foreign-looking) identity that would make
    // resume silently re-run or mis-attach.
    const std::string good = journalHeader("m v1", 0x0123456789abcdefu);
    std::uint64_t id = 0;
    ASSERT_TRUE(parseJournalHeader(good, "m v1", id));
    for (std::size_t cut = 1; cut <= 16; ++cut) {
        const std::string torn = good.substr(0, good.size() - cut);
        EXPECT_FALSE(parseJournalHeader(torn, "m v1", id))
            << "accepted a header missing " << cut << " identity bytes";
    }
}

TEST(ServeJournal, WrongMagicOrExtraBytesRejected)
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

TEST(ServeJournal, ResultTokensRoundTripBitExactly)
{
    sim::RunResult r = fakeCell(CampaignSpec(), 7);
    r.readMissRate = 0.30000000000000004; // not representable cleanly
    std::ostringstream os;
    encodeResult(os, r);
    TokenReader tr(os.str());
    sim::RunResult back;
    ASSERT_TRUE(decodeResult(tr, back));
    EXPECT_EQ(back, r); // bit-exact via doubleBits
}

TEST(ServeJournal, OutOfRangeAbortKindIsATornRecord)
{
    // A kind past AbortKind::ClockLimit must fail to decode, so resume
    // re-runs the cell instead of restoring a result that later panics
    // in abortKindName (9) or silently reads as a clean run (256).
    sim::RunResult r = fakeCell(CampaignSpec(), 3);
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

TEST(ServeJournal, UnterminatedLastRecordIsCompactedBeforeAppend)
{
    // A kill -9 can cut a record after its last token but before its
    // newline. The record is whole and restored, but the next append
    // would continue that line and tear both records, so restore()
    // rewrites the file first.
    const std::string path = freshDir("serve_j_unterminated") + "/j";
    const CampaignSpec spec = smallSpec("j", 3);
    {
        CellJournal j(path, "m v1", 7, 3);
        ASSERT_TRUE(j.open());
        j.append(0, {fakeCell(spec, 0), ""});
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
        j.append(1, {fakeCell(spec, 1), "boom"});
    }
    CellJournal j(path, "m v1", 7, 3);
    ASSERT_EQ(j.restore(), CellJournal::State::Resumed);
    EXPECT_EQ(j.restored(), 2u);
    EXPECT_EQ(j.dropped(), 0u);
    EXPECT_EQ(j.outcome(0).result, fakeCell(spec, 0));
    EXPECT_EQ(j.outcome(1).error, "boom");
    EXPECT_EQ(j.errors(), 1u);
    EXPECT_FALSE(j.has(2));
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

// --- protocol ----------------------------------------------------------

TEST(ServeProtocol, SubmitRoundTripsThroughRequestJson)
{
    CampaignSpec spec = smallSpec("round-trip", 3);
    spec.cells[1].workload = "synth:stencil:3";
    spec.cells[1].scheme = "hw";
    spec.cells[2].procs = 32;
    spec.cells[2].affinity = false;
    spec.faultSpec = "0.001:9";
    spec.timeoutMs = 5000;

    JsonValue req;
    std::string err;
    ASSERT_TRUE(parseJson(spec.toRequestJson(), req, err)) << err;
    CampaignSpec back;
    ASSERT_TRUE(parseSubmit(req, back, err)) << err;
    EXPECT_EQ(back.identity(), spec.identity());
    EXPECT_EQ(back.canonical(), spec.canonical());
    EXPECT_EQ(back.timeoutMs, 5000);
}

TEST(ServeProtocol, IdentityExcludesExecutionBudgets)
{
    CampaignSpec a = smallSpec("budgets", 2);
    CampaignSpec b = a;
    b.timeoutMs = 9999;
    b.deadlineMs = 123456;
    // An interrupted submission retried with different budgets must
    // attach to the same durable campaign.
    EXPECT_EQ(a.identity(), b.identity());
    CampaignSpec c = a;
    c.cells[0].scheme = "hw";
    EXPECT_NE(a.identity(), c.identity());
}

TEST(ServeProtocol, StrictRejections)
{
    auto tryParse = [](const std::string &json) {
        JsonValue req;
        CampaignSpec out;
        std::string err;
        EXPECT_TRUE(parseJson(json, req, err)) << err;
        const bool ok = parseSubmit(req, out, err);
        return ok ? std::string() : err;
    };
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "adm", "scheme": "tpi"}], "typo_field": 1})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "nosuch", "scheme": "tpi"}]})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "adm", "scheme": "nosuch"}]})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x",
        "cells": []})"),
              "");
    EXPECT_NE(tryParse(R"({"op": "submit", "campaign": "x", "cells":
        [{"workload": "adm", "scheme": "tpi", "scale": 99}]})"),
              "");
}

// --- durable queue -----------------------------------------------------

TEST(ServeQueue, RunsPersistsAndRecovers)
{
    const std::string dir = freshDir("serve_q_basic");
    const CampaignSpec spec = smallSpec("basic", 4);
    std::string resultBytes;
    std::uint64_t id = 0;
    {
        CampaignQueue q(dir, QueueLimits(), fakeCell, 2);
        CampaignQueue::Admission a = q.submit(spec);
        ASSERT_EQ(a.status, CampaignQueue::Admission::Status::Accepted);
        id = a.id;

        // Idempotent resubmission.
        CampaignQueue::Admission again = q.submit(spec);
        EXPECT_EQ(again.status, CampaignQueue::Admission::Status::Dedup);
        EXPECT_EQ(again.id, id);

        CampaignQueue::Status st = awaitComplete(q, id);
        EXPECT_EQ(st.done, 4u);
        EXPECT_EQ(st.errors, 0u);
        ASSERT_FALSE(st.resultPath.empty());
        resultBytes = slurp(st.resultPath);
        EXPECT_NE(resultBytes.find("\"reads\": 400"), std::string::npos);
        q.shutdown(/*drain=*/true);
    }
    // A fresh process over the same state dir sees the finished
    // campaign without re-running anything.
    CampaignQueue q2(dir, QueueLimits(), fakeCell, 2);
    EXPECT_EQ(q2.recover(), 1u);
    CampaignQueue::Status st = q2.status(id);
    EXPECT_TRUE(st.complete);
    EXPECT_EQ(slurp(st.resultPath), resultBytes);
    q2.shutdown(true);
}

TEST(ServeQueue, TornJournalTailIsCompactedAndResumed)
{
    // Reference: run the campaign to completion in dir A.
    const std::string ref = freshDir("serve_q_torn_ref");
    const CampaignSpec spec = smallSpec("torn", 5);
    std::string refBytes, journal;
    {
        CampaignQueue q(ref, QueueLimits(), fakeCell, 1);
        CampaignQueue::Admission a = q.submit(spec);
        CampaignQueue::Status st = awaitComplete(q, a.id);
        refBytes = slurp(st.resultPath);
        q.shutdown(true);
        journal = slurp(ref + "/" + csprintf("%016x", a.id) + ".journal");
    }
    ASSERT_FALSE(refBytes.empty());

    // Crash image in dir B: the .req, plus the journal cut mid-record
    // exactly as kill -9 mid-append leaves it (header + 2 whole records
    // + half of the third, no newline).
    const std::string dir = freshDir("serve_q_torn");
    const std::string idHex = csprintf("%016x", spec.identity());
    {
        std::ofstream req(dir + "/" + idHex + ".req");
        req << spec.toRequestJson() << "\n";
    }
    std::istringstream lines(journal);
    std::string line, torn;
    for (int keep = 0; keep < 3 && std::getline(lines, line); ++keep)
        torn += line + "\n";
    ASSERT_TRUE(std::getline(lines, line));
    torn += line.substr(0, line.size() / 2);
    {
        std::ofstream j(dir + "/" + idHex + ".journal");
        j << torn;
    }

    CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
    ASSERT_EQ(q.recover(), 1u);
    const CampaignQueue::Status st = awaitComplete(q, spec.identity());
    EXPECT_EQ(st.done, 5u);
    // The torn record was discarded, the two whole ones restored, and
    // the final aggregate is byte-identical to the uninterrupted run's.
    EXPECT_EQ(q.counters().cellsRestored, 2u);
    EXPECT_EQ(q.counters().cellsRun, 3u);
    EXPECT_EQ(slurp(st.resultPath), refBytes);
    q.shutdown(true);
}

TEST(ServeQueue, ForeignAndTornHeaderJournalsAreSetAside)
{
    const CampaignSpec spec = smallSpec("aside", 3);
    const std::string idHex = csprintf("%016x", spec.identity());

    // A sweep checkpoint squatting on our key: the record layout is the
    // same, but its magic fails the strict header parse, so it is
    // structurally not ours - set aside as .invalid, campaign re-run
    // from scratch, nothing trusted.
    {
        const std::string dir = freshDir("serve_q_sweepmagic");
        {
            std::ofstream req(dir + "/" + idHex + ".req");
            req << spec.toRequestJson() << "\n";
            std::ofstream j(dir + "/" + idHex + ".journal");
            j << journalHeader("hscd-sweep-journal v2", spec.identity())
              << "\ncell 0 -";
            encodeResult(j, fakeCell(spec, 0));
            j << "\n";
        }
        CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
        ASSERT_EQ(q.recover(), 1u);
        const CampaignQueue::Status st =
            awaitComplete(q, spec.identity());
        EXPECT_EQ(st.done, 3u);
        EXPECT_EQ(q.counters().cellsRestored, 0u);
        EXPECT_TRUE(fs::exists(dir + "/" + idHex + ".journal.invalid"));
        q.shutdown(true);
    }

    // A well-formed serve journal carrying a different identity (e.g.
    // a file copied between state dirs): refused as foreign.
    {
        const std::string dir = freshDir("serve_q_foreign");
        {
            std::ofstream req(dir + "/" + idHex + ".req");
            req << spec.toRequestJson() << "\n";
            std::ofstream j(dir + "/" + idHex + ".journal");
            j << journalHeader("hscd-serve-journal v1",
                               spec.identity() ^ 0xabcdu)
              << "\n";
        }
        CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
        ASSERT_EQ(q.recover(), 1u);
        const CampaignQueue::Status st =
            awaitComplete(q, spec.identity());
        EXPECT_EQ(st.done, 3u);
        EXPECT_EQ(q.counters().cellsRestored, 0u);
        EXPECT_TRUE(fs::exists(dir + "/" + idHex + ".journal.foreign"));
        q.shutdown(true);
    }

    // Satellite 3, server side: a header torn inside the identity is
    // structurally invalid - set aside as .invalid, never misparsed.
    {
        const std::string dir = freshDir("serve_q_invalid");
        {
            std::ofstream req(dir + "/" + idHex + ".req");
            req << spec.toRequestJson() << "\n";
            const std::string good =
                journalHeader("hscd-serve-journal v1", spec.identity());
            std::ofstream j(dir + "/" + idHex + ".journal");
            j << good.substr(0, good.size() - 7); // torn mid-identity
        }
        CampaignQueue q(dir, QueueLimits(), fakeCell, 1);
        ASSERT_EQ(q.recover(), 1u);
        const CampaignQueue::Status st =
            awaitComplete(q, spec.identity());
        EXPECT_EQ(st.done, 3u);
        EXPECT_EQ(q.counters().cellsRestored, 0u);
        EXPECT_TRUE(fs::exists(dir + "/" + idHex + ".journal.invalid"));
        q.shutdown(true);
    }
}

TEST(ServeQueue, ThrowingCellsBecomeStructuredErrors)
{
    // Neither a throw of a non-std::exception type nor an exception
    // with an empty what() may kill the server or pass as a success:
    // both become the cell's error and the campaign completes.
    const std::string dir = freshDir("serve_q_throw");
    const CampaignSpec spec = smallSpec("throw", 4);
    auto cell = [](const CampaignSpec &s, std::size_t i) {
        if (i == 1)
            throw 42;
        if (i == 2)
            throw std::runtime_error("");
        return fakeCell(s, i);
    };
    CampaignQueue q(dir, QueueLimits(), cell, 2);
    const CampaignQueue::Admission a = q.submit(spec);
    ASSERT_EQ(a.status, CampaignQueue::Admission::Status::Accepted);
    const CampaignQueue::Status st = awaitComplete(q, a.id);
    EXPECT_EQ(st.done, 4u);
    EXPECT_EQ(st.errors, 2u);
    EXPECT_EQ(q.counters().cellErrors, 2u);
    const std::string result = slurp(st.resultPath);
    EXPECT_NE(result.find(
                  "\"error\": \"unhandled non-standard exception\""),
              std::string::npos);
    EXPECT_NE(result.find("\"error\": \"unhandled exception\""),
              std::string::npos);
    q.shutdown(true);
}

TEST(ServeQueue, OverBoundSubmissionsAreShed)
{
    const std::string dir = freshDir("serve_q_shed");
    QueueLimits limits;
    limits.maxQueuedCells = 2;
    // Workers that never run (queue full before shutdown): block cells
    // from draining by submitting more than the bound at once.
    CampaignQueue q(dir, limits, fakeCell, 1);
    const CampaignSpec big = smallSpec("too-big", 5);
    CampaignQueue::Admission a = q.submit(big);
    EXPECT_EQ(a.status, CampaignQueue::Admission::Status::Shed);
    EXPECT_NE(a.error, "");
    EXPECT_EQ(q.counters().shed, 1u);
    // Nothing durable was left behind for a shed submission.
    EXPECT_FALSE(
        fs::exists(dir + "/" + csprintf("%016x", big.identity()) +
                   ".req"));
    q.shutdown(true);
}

// --- server request dispatch ------------------------------------------

TEST(ServeServer, DispatchesNdjsonRequests)
{
    ServerOptions opt;
    opt.stateDir = freshDir("serve_srv");
    opt.workers = 1;
    opt.extraStats = [] {
        return std::string("\"caches\": {\"compile\": {}}");
    };
    Server server(opt, fakeCell);

    std::string resp = server.handleRequestLine("{\"op\": \"healthz\"}");
    EXPECT_NE(resp.find("\"ok\": true"), std::string::npos) << resp;

    resp = server.handleRequestLine("not json at all");
    EXPECT_NE(resp.find("\"ok\": false"), std::string::npos) << resp;

    resp = server.handleRequestLine("{\"op\": \"nosuch\"}");
    EXPECT_NE(resp.find("\"ok\": false"), std::string::npos) << resp;
    EXPECT_EQ(server.queue().counters().rejected, 2u);

    const CampaignSpec spec = smallSpec("ndjson", 2);
    resp = server.handleRequestLine(spec.toRequestJson());
    EXPECT_NE(resp.find("\"status\": \"accepted\""), std::string::npos)
        << resp;
    const std::string idHex = csprintf("%016x", spec.identity());
    EXPECT_NE(resp.find(idHex), std::string::npos) << resp;

    awaitComplete(server.queue(), spec.identity());
    resp = server.handleRequestLine(
        csprintf("{\"op\": \"poll\", \"id\": \"%s\"}", idHex));
    EXPECT_NE(resp.find("\"status\": \"complete\""), std::string::npos)
        << resp;

    resp = server.handleRequestLine("{\"op\": \"stats\"}");
    EXPECT_NE(resp.find("hscd-serve-stats"), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"caches\""), std::string::npos) << resp;
    server.queue().shutdown(true);
}

// --- sweep abort contract (satellites 2 and 6) -------------------------

namespace {

/** Run a 4-cell sweep whose second cell triggers @p trip. */
void
sweepAbortScenario(bench::SweepOptions opts, std::function<void()> trip)
{
    bench::Sweep sweep(opts, "abort-contract");
    sweep.addCustom("ok-0", [] { return fakeCell(CampaignSpec(), 0); });
    sweep.addCustom("trip", [trip] {
        trip();
        return fakeCell(CampaignSpec(), 1);
    });
    for (int i = 2; i < 4; ++i)
        sweep.addCustom(csprintf("slow-%d", i), [i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(80));
            return fakeCell(CampaignSpec(), std::size_t(i));
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
