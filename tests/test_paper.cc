/**
 * @file
 * The paper campaign (bench/paper.cc) and the sweep engine's cell
 * deduplication. Every claim of every row must hold at the campaign's
 * scale 2; the set that holds at scale 1 is pinned, so a claim whose
 * verdict flips with the workload scale is a recorded finding
 * (EXPERIMENTS.md) rather than a surprise. EXPERIMENTS.md quotes each
 * row's scale-2 output in a generated block, and cites every claim.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strutil.hh"
#include "harness.hh"
#include "obs/provenance.hh"
#include "paper.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

/** The whole campaign run at one scale. */
struct Campaign
{
    /**
     * Per row of paperRows(): what hscd_paper prints for it, a blank
     * line and its claims' ledger lines; the body of its block in
     * EXPERIMENTS.md.
     */
    std::vector<std::string> blocks;
    std::vector<Claim> claims; ///< every row's, in campaign order
    std::size_t cells = 0, runs = 0;
    /** FNV-1a over every cell's label, then over label and fingerprint. */
    std::uint64_t labels = 0, results = 0;
};

Campaign
campaignAt(int scale)
{
    std::vector<const Row *> rows;
    for (const Row &row : paperRows())
        rows.push_back(&row);
    SweepOptions opts;
    Sweep sweep(opts, "paper-claims");
    const std::vector<RowRun> runs = runRows(sweep, rows, scale);
    Campaign c;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::ostringstream os;
        printRow(os, *rows[r], runs[r]);
        os << "\n";
        for (const Claim &claim : runs[r].claims()) {
            os << claimLine(claim);
            c.claims.push_back(claim);
        }
        c.blocks.push_back(os.str());
    }
    c.cells = sweep.size();
    c.runs = sweep.runs();
    std::string labels, results;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        labels += sweep.label(i) + "\n";
        results += csprintf("%s %x\n", sweep.label(i), sweep[i].fingerprint());
    }
    c.labels = obs::fnv1a(labels);
    c.results = obs::fnv1a(results);
    return c;
}

/** The campaign at its own scale 2, run once per test process. */
const Campaign &
scale2()
{
    static const Campaign c = campaignAt(2);
    return c;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

const std::string kDocPath = HSCD_SOURCE_DIR "/EXPERIMENTS.md";
// Markers are whole lines.
const char kOpen[] = "\n<!-- hscd_paper:";
const char kOpenEnd[] = " -->\n";
const char kClose[] = "\n<!-- /hscd_paper -->\n";

/**
 * @p doc with the body of each block, the lines between its markers,
 * replaced by ```text fences around its row's text in @p c. @p ids
 * receives every block's ID in document order; a block with an unknown
 * ID keeps its body.
 */
std::string
regenerate(const std::string &doc, const Campaign &c,
           std::vector<std::string> &ids)
{
    constexpr std::size_t npos = std::string::npos;
    std::string out;
    std::size_t pos = 0, open;
    while ((open = doc.find(kOpen, pos)) != npos) {
        const std::size_t id = open + std::strlen(kOpen);
        const std::size_t idEnd = doc.find(kOpenEnd, id);
        const std::size_t close = doc.find(kClose, id);
        // The ID ends its line, and the block closes before the next
        // one opens.
        if (idEnd == npos || idEnd + 4 != doc.find('\n', id) ||
            close == npos || doc.find(kOpen, id) < close) {
            ADD_FAILURE() << "malformed block at byte " << open;
            break;
        }
        const std::size_t body = idEnd + std::strlen(kOpenEnd);
        ids.push_back(doc.substr(id, idEnd - id));
        out += doc.substr(pos, body - pos);
        const Row *row = findRow(ids.back());
        out += row ? "```text\n" + c.blocks[row - paperRows().data()] + "```"
                   : doc.substr(body, close - body);
        pos = close;
    }
    return out + doc.substr(pos);
}

} // namespace

TEST(PaperDoc, BlocksMatchCampaign)
{
    const std::string doc = slurp(kDocPath);
    ASSERT_FALSE(doc.empty()) << kDocPath;
    std::vector<std::string> ids;
    const std::string fresh = regenerate(doc, scale2(), ids);
    for (const Row &row : paperRows())
        EXPECT_EQ(std::count(ids.begin(), ids.end(), row.id), 1)
            << "EXPERIMENTS.md needs exactly one block of row " << row.id;
    for (const std::string &id : ids)
        EXPECT_TRUE(findRow(id)) << "block of unknown row '" << id << "'";
    if (fresh == doc)
        return;
    const std::string path = testing::TempDir() + "EXPERIMENTS.md";
    std::ofstream(path) << fresh;
    const std::size_t at =
        std::mismatch(doc.begin(), doc.end(), fresh.begin(), fresh.end())
            .first -
        doc.begin();
    ADD_FAILURE() << "EXPERIMENTS.md's generated blocks differ from the "
                     "campaign's output from line "
                  << 1 + std::count(doc.begin(), doc.begin() + at, '\n')
                  << "; the regenerated file is " << path
                  << ", so update the document with\n  cp " << path << " "
                  << kDocPath;
}

TEST(PaperDoc, ClaimsCited)
{
    // A citation is [`ID`]; claim IDs contain dots and hyphens.
    const std::string doc = slurp(kDocPath);
    const std::regex citation(R"(\[`([^`]*)`\])");
    std::set<std::string> cited, claims;
    for (std::sregex_iterator m(doc.begin(), doc.end(), citation), end;
         m != end; ++m)
        cited.insert((*m)[1]);
    for (const Claim &c : scale2().claims)
        claims.insert(c.id);
    for (const std::string &id : claims)
        EXPECT_TRUE(cited.count(id))
            << "claim " << id << " is not cited as [`" << id
            << "`] in EXPERIMENTS.md";
    for (const std::string &id : cited)
        EXPECT_TRUE(claims.count(id))
            << "EXPERIMENTS.md cites [`" << id << "`], which no row claims";
}

TEST(PaperClaims, AllHoldAtScale2)
{
    const std::vector<Claim> &claims = scale2().claims;
    EXPECT_GE(claims.size(), paperRows().size());
    for (const Claim &c : claims)
        EXPECT_TRUE(c.holds) << c.id << ": " << c.text << " (observed "
                             << c.observed << ")";
}

TEST(PaperClaims, Scale1Pinned)
{
    // These claims fail at scale 1 and hold at scale 2; EXPERIMENTS.md
    // records each flip. R1's grid is at scale 1 either way.
    const std::set<std::string> failAtScale1 = {
        "A2.chunk1-balances", // TRFD imbalance 1.79 both ways
        "F13.trfd-coalesce",  // 6.5x, not 10x
        "S1.4b-near-8b",      // 4 of 6, not 5
        "S4.trfd-outlier",    // TRFD 6.50x
        "S7.wt-stall",        // down to 1.42x
    };
    std::set<std::string> failed;
    std::string why;
    for (const Claim &c : campaignAt(1).claims) {
        if (c.holds)
            continue;
        failed.insert(c.id);
        why += "  " + c.id + " (observed " + c.observed + ")\n";
    }
    EXPECT_EQ(failed, failAtScale1) << "claims failing at scale 1:\n" << why;
}

TEST(PaperCampaign, CellListPinned)
{
    // Dedup, --json and GoldenMissRates read the campaign's cells by
    // position: adding, dropping, renaming or reordering one, or moving
    // any result, must be deliberate. A failure prints the new digest;
    // update it here with the change that moved it.
    const Campaign &c = scale2();
    EXPECT_EQ(c.cells, 2985u);
    EXPECT_EQ(c.runs, 2781u);
    EXPECT_EQ(c.labels, 0x7bf3ee51eed4e187ull) << std::hex << "labels 0x" << c.labels;
    EXPECT_EQ(c.results, 0x08b660021ed35cbcull) << std::hex << "results 0x" << c.results;
}

TEST(SweepDedup, SameCellRunsOnce)
{
    const std::string path = testing::TempDir() + "hscd_dedup.json";
    SweepOptions opts;
    opts.jobs = 2;
    opts.jsonPath = path;
    Sweep sweep(opts, "dedup");
    const MachineConfig tpi = makeConfig(SchemeKind::TPI);
    MachineConfig hw = makeConfig(SchemeKind::HW);
    const std::size_t a = sweep.add("first", "ADM", tpi, /*scale=*/1);
    const std::size_t other = sweep.add("other", "ADM", hw, /*scale=*/1);
    const std::size_t b = sweep.add("second", "ADM", tpi, /*scale=*/1);
    // Same config at another scale, or as a custom cell: its own run.
    sweep.add("scale2", "ADM", tpi, /*scale=*/2);
    sweep.addCustom("custom", [&] { return runBenchmark("ADM", tpi, 1); });
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_EQ(sweep.runs(), 4u);
    sweep.run();
    sweep.finish(std::cout);

    EXPECT_EQ(&sweep[a], &sweep[b]); // one result, read by both
    EXPECT_EQ(sweep[a].fingerprint(), sweep[4].fingerprint());
    EXPECT_NE(sweep[a].fingerprint(), sweep[other].fingerprint());
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"label\": \"first\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"second\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{') -
                  std::count(json.begin(), json.end(), '}'),
              0);
    std::remove(path.c_str());
}

TEST(SweepDedup, FaultPlanIsPartOfTheKey)
{
    // Under --fault, each cell's plan derives from its index within its
    // group: equal cells at the same index of two groups share a run,
    // and the same cell at another index does not.
    SweepOptions opts;
    opts.fault = fault::FaultPlan::parse("1e-3:7");
    Sweep sweep(opts, "dedup-fault");
    const MachineConfig tpi = makeConfig(SchemeKind::TPI);
    sweep.beginGroup("A");
    sweep.add("ADM", tpi, 1);
    sweep.add("TRFD", tpi, 1);
    sweep.beginGroup("B");
    sweep.add("ADM", tpi, 1);  // index 0 again: shared
    sweep.add("ADM", tpi, 1);  // index 1: a different plan
    EXPECT_EQ(sweep.runs(), 3u);
}
