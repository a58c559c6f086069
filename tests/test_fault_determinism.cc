/**
 * @file
 * Determinism and resilience contract of the fault-injection harness:
 * the same (workload, config, fault_seed) produces byte-identical
 * RunResults at any --jobs and whether the program's lowered form is
 * cached or built inside the run; a disabled plan is bit-for-bit
 * identical to a build
 * without the fault axis; the checkpoint journal restarts an
 * interrupted sweep with byte-identical final JSON; and a throwing or
 * timed-out cell becomes a structured per-cell "error" instead of
 * killing the sweep (finish() writes the JSON, then exits
 * verify::ExitInternal).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "harness.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

const std::vector<std::string> kBenchmarks = {"ADM", "OCEAN", "TRFD"};
const SchemeKind kSchemes[] = {SchemeKind::SC, SchemeKind::TPI,
                               SchemeKind::HW};

SweepOptions
faultOpts(unsigned jobs, const std::string &jsonPath = "")
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.jsonPath = jsonPath;
    opts.fault = fault::FaultPlan::parse("0.02:7");
    return opts;
}

/** Build and run the reference 3x3 faulted sweep. */
std::vector<sim::RunResult>
runFaultSweep(SweepOptions opts)
{
    Sweep sweep(opts, "fault-determinism");
    for (const std::string &name : kBenchmarks)
        for (SchemeKind k : kSchemes)
            sweep.add(name, makeConfig(k), /*scale=*/1);
    sweep.run();
    std::vector<sim::RunResult> out;
    out.reserve(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        EXPECT_EQ(sweep.error(i), "");
        out.push_back(sweep[i]);
    }
    if (!opts.jsonPath.empty()) {
        // finish() writes the JSON file, then its gate exits with the
        // first unsound cell's code: this plan gets some cells flagged.
        int want = verify::ExitSuccess;
        for (const sim::RunResult &r : out)
            if (want == verify::ExitSuccess)
                want = soundness(r).code;
        std::ostringstream devnull;
        EXPECT_EXIT(
            {
                sweep.finish(devnull);
                std::exit(verify::ExitSuccess);
            },
            testing::ExitedWithCode(want), "");
    }
    return out;
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

/**
 * Blank the provenance header's "jobs" line - the one field allowed to
 * differ across thread counts - and require it appears exactly once so
 * nothing else can hide behind the mask.
 */
std::string
maskJobsLine(std::string s)
{
    const std::string key = "\"jobs\":";
    std::size_t at = s.find(key);
    EXPECT_NE(at, std::string::npos) << "provenance header missing";
    if (at == std::string::npos)
        return s;
    const std::size_t eol = s.find('\n', at);
    s.replace(at, eol - at, key + " <masked>");
    EXPECT_EQ(s.find(key, at + key.size() + 1), std::string::npos)
        << "\"jobs\" must appear exactly once (provenance only)";
    return s;
}

} // namespace

TEST(FaultDeterminism, IdenticalResultsAtAnyJobs)
{
    const std::vector<sim::RunResult> serial = runFaultSweep(faultOpts(1));
    ASSERT_EQ(serial.size(), kBenchmarks.size() * 3);

    // Non-vacuous: the campaign injected faults somewhere.
    Counter injected = 0;
    for (const sim::RunResult &r : serial)
        injected += r.faultsInjected;
    EXPECT_GT(injected, 0u);

    for (unsigned jobs : {2u, 8u}) {
        const std::vector<sim::RunResult> parallel =
            runFaultSweep(faultOpts(jobs));
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i])
                << "cell " << i << " diverged at jobs=" << jobs << ": "
                << parallel[i].summary() << " vs " << serial[i].summary();
    }
}

TEST(FaultDeterminism, FaultedJsonIsByteIdenticalAcrossJobs)
{
    const std::string p1 = testing::TempDir() + "hscd_fault_j1.json";
    const std::string p8 = testing::TempDir() + "hscd_fault_j8.json";
    runFaultSweep(faultOpts(1, p1));
    runFaultSweep(faultOpts(8, p8));
    const std::string j1 = maskJobsLine(slurp(p1));
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, maskJobsLine(slurp(p8)));
    EXPECT_NE(j1.find("\"faults_injected\""), std::string::npos);
    std::remove(p1.c_str());
    std::remove(p8.c_str());
}

TEST(FaultDeterminism, FastPathMatchesInterpreterUnderFaults)
{
    // The harness's cached program (lowered by earlier cells) and a
    // fresh compile lowered inside the run must fault identically.
    for (const std::string &name : kBenchmarks) {
        const CompiledProgramPtr prog = compiledBenchmark(name, 1);
        for (SchemeKind k : kSchemes) {
            MachineConfig cfg = makeConfig(k);
            cfg.fault = fault::FaultPlan::parse("0.02:11");
            cfg.shadowEpochCheck = true;
            const compiler::CompiledProgram fresh =
                compiler::compileProgram(workloads::buildBenchmark(name, 1));
            sim::RunResult uncached = sim::simulate(fresh, cfg);
            sim::RunResult cached = sim::simulate(*prog, cfg);
            EXPECT_EQ(uncached, cached)
                << name << "/" << schemeName(k) << "\n  uncached: "
                << uncached.summary() << "\n  cached:   " << cached.summary();
        }
    }
}

TEST(FaultDeterminism, DisabledPlanKeepsLegacyJsonShape)
{
    const std::string path = testing::TempDir() + "hscd_nofault.json";
    SweepOptions opts;
    opts.jobs = 2;
    opts.jsonPath = path;
    std::vector<sim::RunResult> rs = runFaultSweep(opts);
    for (const sim::RunResult &r : rs) {
        EXPECT_EQ(r.faultsInjected, 0u);
        EXPECT_FALSE(r.aborted());
    }
    const std::string j = slurp(path);
    // None of the robustness-only keys may appear in fault-free output.
    EXPECT_EQ(j.find("\"faults_injected\""), std::string::npos);
    EXPECT_EQ(j.find("\"abort\""), std::string::npos);
    EXPECT_EQ(j.find("\"error\""), std::string::npos);
    EXPECT_EQ(j.find("\"shadow_violations\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(FaultDeterminism, ResumeReproducesByteIdenticalJson)
{
    const std::string json0 = testing::TempDir() + "hscd_ckpt_full.json";
    const std::string json1 = testing::TempDir() + "hscd_ckpt_res.json";
    const std::string ckpt = testing::TempDir() + "hscd_ckpt.journal";
    std::remove(ckpt.c_str());

    // Uninterrupted run, journaling as it goes.
    SweepOptions opts = faultOpts(4, json0);
    opts.checkpointPath = ckpt;
    runFaultSweep(opts);
    const std::string reference = slurp(json0);
    const std::string journal = slurp(ckpt);
    EXPECT_FALSE(journal.empty());

    // Full resume: every cell restored, output byte-identical.
    SweepOptions ropts = faultOpts(4, json1);
    ropts.checkpointPath = ckpt;
    ropts.resume = true;
    runFaultSweep(ropts);
    EXPECT_EQ(slurp(json1), reference);

    // Interrupted resume: keep the header and the first two records,
    // then half of the third exactly as a kill -9 mid-append leaves
    // it. The torn record and all missing cells are re-run; the final
    // JSON must still be byte-identical.
    std::istringstream all(journal);
    std::string line, torn;
    int keep = 3; // header + 2 records
    while (keep-- > 0 && std::getline(all, line))
        torn += line + "\n";
    ASSERT_TRUE(std::getline(all, line));
    torn += line.substr(0, line.size() / 2); // torn tail, no newline
    {
        std::ofstream f(ckpt, std::ios::trunc);
        f << torn;
    }
    SweepOptions topts = faultOpts(4, json1);
    topts.checkpointPath = ckpt;
    topts.resume = true;
    runFaultSweep(topts);
    EXPECT_EQ(slurp(json1), reference);

    // The torn tail was compacted away before the re-run cells were
    // appended, so the journal is the header plus one whole record per
    // cell. A second resume restores all of them: it runs no cell, so
    // it appends nothing, and the JSON is still byte-identical.
    const std::string resumed = slurp(ckpt);
    std::istringstream records(resumed);
    std::size_t lines = 0;
    while (std::getline(records, line))
        ++lines;
    EXPECT_EQ(lines, 1 + kBenchmarks.size() * 3);
    EXPECT_EQ(resumed.back(), '\n');
    runFaultSweep(topts);
    EXPECT_EQ(slurp(json1), reference);
    EXPECT_EQ(slurp(ckpt), resumed) << "second resume re-ran a cell";

    std::remove(json0.c_str());
    std::remove(json1.c_str());
    std::remove(ckpt.c_str());
}

TEST(FaultDeterminism, TornHeaderJournalIsRejected)
{
    // A checkpoint whose header was torn inside the 16-hex identity
    // (kill -9 before the header flushed whole) must be rejected as
    // not-a-journal - the old prefix parser would misparse the
    // truncated hash as a shorter, foreign-looking identity.
    const std::string ckpt = testing::TempDir() + "hscd_torn.journal";
    {
        SweepOptions opts;
        opts.jobs = 1;
        opts.checkpointPath = ckpt;
        Sweep sweep(opts, "torn-header");
        sweep.add("ADM", makeConfig(SchemeKind::SC), 1);
        sweep.run();
    }
    const std::string journal = slurp(ckpt);
    const std::size_t eol = journal.find('\n');
    ASSERT_NE(eol, std::string::npos);
    {
        // Keep the header minus its last 7 identity digits.
        std::ofstream f(ckpt, std::ios::trunc);
        f << journal.substr(0, eol - 7);
    }
    SweepOptions opts;
    opts.jobs = 1;
    opts.checkpointPath = ckpt;
    opts.resume = true;
    Sweep other(opts, "torn-header");
    other.add("ADM", makeConfig(SchemeKind::SC), 1);
    EXPECT_THROW(other.run(), FatalError);
    std::remove(ckpt.c_str());
}

TEST(FaultDeterminism, ForeignJournalIsRejected)
{
    const std::string ckpt = testing::TempDir() + "hscd_foreign.journal";
    {
        SweepOptions opts;
        opts.jobs = 1;
        opts.checkpointPath = ckpt;
        Sweep sweep(opts, "experiment-A");
        sweep.add("ADM", makeConfig(SchemeKind::SC), 1);
        sweep.run();
    }
    SweepOptions opts;
    opts.jobs = 1;
    opts.checkpointPath = ckpt;
    opts.resume = true;
    Sweep other(opts, "experiment-B");
    other.add("ADM", makeConfig(SchemeKind::SC), 1);
    EXPECT_THROW(other.run(), FatalError);
    std::remove(ckpt.c_str());
}

TEST(FaultDeterminism, ThrowingCellBecomesStructuredError)
{
    const std::string path = testing::TempDir() + "hscd_error.json";
    SweepOptions opts;
    opts.jobs = 2;
    opts.jsonPath = path;
    Sweep sweep(opts, "error-propagation");
    sweep.add("ADM", makeConfig(SchemeKind::SC), 1);
    const std::size_t bad = sweep.addCustom("exploder", []() -> sim::RunResult {
        throw std::runtime_error("boom: injected harness failure");
    });
    sweep.add("TRFD", makeConfig(SchemeKind::TPI), 1);
    sweep.run(); // must not throw

    EXPECT_EQ(sweep.error(0), "");
    EXPECT_EQ(sweep.error(bad), "boom: injected harness failure");
    EXPECT_EQ(sweep.error(2), "");
    EXPECT_GT(sweep[0].cycles, 0u);
    EXPECT_GT(sweep[2].cycles, 0u);

    // finish() writes the JSON first, then exits for the harness error.
    std::ostringstream devnull;
    EXPECT_EXIT(sweep.finish(devnull),
                testing::ExitedWithCode(verify::ExitInternal),
                "exploder: harness error: boom");
    const std::string j = slurp(path);
    EXPECT_NE(j.find("\"error\": \"boom: injected harness failure\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FaultDeterminism, TimedOutCellIsIsolated)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.timeoutMs = 50;
    Sweep sweep(opts, "timeout");
    const std::size_t slow = sweep.addCustom("sleeper", []() -> sim::RunResult {
        std::this_thread::sleep_for(std::chrono::seconds(10));
        return {};
    });
    sweep.add("ADM", makeConfig(SchemeKind::SC), 1);
    sweep.run();
    EXPECT_NE(sweep.error(slow).find("timeout"), std::string::npos)
        << sweep.error(slow);
    EXPECT_EQ(sweep.error(1), "");
    EXPECT_GT(sweep[1].cycles, 0u);
}
