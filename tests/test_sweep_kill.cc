/**
 * @file
 * The kill -9 resume gate of the sweep engine, at process level. A real
 * campaign (hscd_paper --only F11: six workloads x five schemes) is
 * started with --checkpoint and SIGKILLed at seeded journal-record
 * thresholds: the first as soon as its journal appears, the last
 * several cells before the end. After each kill it is restarted with
 * --resume, and the last restart runs to the end. The finished campaign
 * must match an uninterrupted run byte for byte: its stdout minus the
 * wall-clock line, its warnings, its exit status, its --json and its
 * journal. Every restart must restore exactly the whole records the
 * killed run left. A kill the campaign outruns fails the test; it never
 * passes silently.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/strutil.hh"

using namespace hscd;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kCells = 30;  ///< F11: six workloads x five schemes
constexpr std::size_t kMargin = 10; ///< cells left after the last kill
constexpr std::size_t kKills = 4;   ///< kill points, the first at 0

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Whole records in the journal at @p path; -1 while it does not exist. */
long
records(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return -1;
    const long lines = std::count(std::istreambuf_iterator<char>(f),
                                  std::istreambuf_iterator<char>(), '\n');
    return std::max(0L, lines - 1); // less the header
}

/**
 * fork/exec @p args with stdout and stderr sent to files; the child's
 * pid, or -1 when it could not be started.
 */
pid_t
spawn(const std::vector<std::string> &args, const std::string &out,
      const std::string &err)
{
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const int fo = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int fe = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const pid_t pid = fo < 0 || fe < 0 ? -1 : ::fork();
    if (pid == 0) {
        ::dup2(fo, STDOUT_FILENO);
        ::dup2(fe, STDERR_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    if (fo >= 0)
        ::close(fo);
    if (fe >= 0)
        ::close(fe);
    return pid;
}

/** Wait for @p pid to end; its wait status. */
int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

std::string
describe(int status)
{
    if (WIFEXITED(status))
        return csprintf("exited with status %d", WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return csprintf("was killed by signal %d", WTERMSIG(status));
    return csprintf("ended with wait status %d", status);
}

/**
 * SIGKILL @p pid once the journal at @p journal holds at least @p at
 * whole records (at 0: as soon as the journal exists), polling every
 * 200 us. Returns "" when the kill landed in the running sweep, and
 * otherwise why it did not.
 */
std::string
killAt(pid_t pid, const std::string &journal, long at)
{
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return csprintf("the campaign outran the kill at %d records: "
                            "the sweep %s with %d records journaled",
                            at, describe(status), records(journal));
        if (records(journal) >= at)
            break;
        if (std::chrono::steady_clock::now() > giveUp) {
            ::kill(pid, SIGKILL);
            reap(pid);
            return csprintf("no kill at %d records: the journal held %d "
                            "after 120 s",
                            at, records(journal));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::kill(pid, SIGKILL);
    const int status = reap(pid);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL)
        return csprintf("the campaign outran the kill at %d records: the "
                        "sweep %s before the SIGKILL",
                        at, describe(status));
    return "";
}

/** The lines of @p text that start with @p prefix (@p keep) or not. */
std::string
filterLines(const std::string &text, const std::string &prefix, bool keep)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line))
        if ((line.rfind(prefix, 0) == 0) == keep)
            out += line + "\n";
    return out;
}

/** What the gate compares of one finished campaign. */
struct Finished
{
    std::string status;   ///< how the process ended
    std::string table;    ///< stdout minus the wall-clock line
    std::string warnings; ///< stderr's [warn] lines
    std::string json;     ///< "" when the sweep wrote none
    std::string journal;
};

Finished
finished(int status, const std::string &stem)
{
    return {describe(status),
            filterLines(slurp(stem + ".out"), "[sweep ", false),
            filterLines(slurp(stem + ".err"), "[warn]", true),
            slurp(stem + ".json"), slurp(stem + ".journal")};
}

/** A restart's stderr must report restoring all @p left records. */
void
expectRestored(const std::string &err, long left)
{
    // A resume that dropped whole records would re-run their cells and
    // still print the same table, so the restored count is checked on
    // its own.
    if (left == 0)
        return;
    const std::string log = slurp(err);
    EXPECT_NE(log.find(csprintf("resume: %d of %d cells restored", left,
                                kCells)),
              std::string::npos)
        << "after a kill at " << left << " records:\n" << log;
}

/**
 * Run the gate with @p extra appended to every command line; @p seed
 * picks the kill points. @p want receives the uninterrupted reference.
 */
void
killResumeGate(const std::string &name,
               const std::vector<std::string> &extra, std::uint64_t seed,
               Finished &want)
{
    const std::string dir = testing::TempDir() + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);

    auto command = [&](const std::string &stem, bool resume) {
        std::vector<std::string> args = {HSCD_SWEEP_BIN, "--only", "F11",
                                         "--jobs", "1",
                                         "--checkpoint", stem + ".journal",
                                         "--json", stem + ".json"};
        args.insert(args.end(), extra.begin(), extra.end());
        if (resume)
            args.push_back("--resume");
        return args;
    };

    const std::string ref = dir + "/ref";
    const pid_t refPid =
        spawn(command(ref, false), ref + ".out", ref + ".err");
    ASSERT_GT(refPid, 0) << "cannot start " << HSCD_SWEEP_BIN;
    want = finished(reap(refPid), ref);
    ASSERT_EQ(records(ref + ".journal"), long(kCells)) << want.status;

    // Seeded kill points: 0, then distinct thresholds that leave at
    // least kMargin cells to run after the last kill.
    Rng rng(seed);
    std::vector<long> at = {0};
    while (at.size() < kKills) {
        const long k = rng.range(1, kCells - kMargin);
        if (std::find(at.begin(), at.end(), k) == at.end())
            at.push_back(k);
    }
    std::sort(at.begin(), at.end());

    const std::string run = dir + "/run";
    const std::string journal = run + ".journal";
    long left = 0; // whole records the last killed start left behind
    for (std::size_t i = 0; i < at.size(); ++i) {
        const std::string stem = dir + csprintf("/start%d", i);
        const pid_t pid =
            spawn(command(run, i > 0), stem + ".out", stem + ".err");
        ASSERT_GT(pid, 0) << "cannot start " << HSCD_SWEEP_BIN;
        // A restart must journal at least one new cell before its kill,
        // so every kill lands in a running campaign.
        const long threshold = i ? std::max(at[i], left + 1) : 0;
        ASSERT_EQ(killAt(pid, journal, threshold), "") << "kill " << i;
        if (i > 0)
            expectRestored(stem + ".err", left);
        left = records(journal);
    }

    // The last restart runs to its end and must match the reference.
    const pid_t pid = spawn(command(run, true), run + ".out", run + ".err");
    ASSERT_GT(pid, 0) << "cannot start " << HSCD_SWEEP_BIN;
    const int status = reap(pid);
    expectRestored(run + ".err", left);
    const Finished got = finished(status, run);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.table, want.table);
    EXPECT_EQ(got.warnings, want.warnings);
    EXPECT_EQ(got.json, want.json);
    EXPECT_EQ(got.journal, want.journal);
    if (!testing::Test::HasFailure())
        fs::remove_all(dir, ec); // kept for a look when the gate fails
}

} // namespace

TEST(SweepKillResume, FaultFreeCampaignIsByteIdentical)
{
    Finished ref;
    killResumeGate("sweep_kill_faultfree", {}, 1, ref);
    EXPECT_EQ(ref.status, "exited with status 0");
    EXPECT_NE(ref.json.find("\"cells\""), std::string::npos);
    EXPECT_NE(ref.table.find("TPI/HW"), std::string::npos);
}

TEST(SweepKillResume, FaultedCampaignIsByteIdentical)
{
    // Under this plan an injected corruption reaches ADM/TPI and the
    // oracle flags it. F11 still renders its table and writes --json,
    // then its gate warns about the cell and exits 3, so the restored
    // cells reach every output the gate compares.
    Finished ref;
    killResumeGate("sweep_kill_faulted", {"--fault", "1e-3:7"}, 7, ref);
    EXPECT_EQ(ref.status, "exited with status 3");
    EXPECT_NE(ref.warnings.find("ADM/TPI: "), std::string::npos);
    EXPECT_NE(ref.warnings.find("oracle"), std::string::npos);
    EXPECT_NE(ref.table.find("TPI/HW"), std::string::npos);
    const std::size_t at = ref.json.find("\"label\": \"ADM/TPI\"");
    ASSERT_NE(at, std::string::npos);
    const std::string cell =
        ref.json.substr(at, ref.json.find("\"label\"", at + 1) - at);
    EXPECT_NE(cell.find("\"oracle_violations\""), std::string::npos)
        << cell;
}
