/**
 * @file
 * hscd_mc: exhaustive model checker for TPI + two-phase reset.
 *
 * Explores every interleaving of a small TPI machine (2-3 processors,
 * a few words, 1-3 timetag bits) under the compiler's conflict-freedom
 * contract, including every firing pattern of a bounded fault budget
 * (mem.tag flips, mem.epoch flushes, net.drop retry/abort), and checks:
 *
 *   - no-stale-read: a read hit never returns a stale value unless an
 *     injected fault raised a tag (the documented oracle escape hatch);
 *   - bounded-tag-age + modular-agreement: the two-phase reset schedule
 *     keeps every consultable tag within one modular period, so n-bit
 *     hardware tag arithmetic never wraps into a false hit;
 *   - deadlock-freedom and the bounded-liveness verdict: exploration
 *     exhausts the space and every terminal state either completed the
 *     horizon or carries a structured protocol abort.
 *
 * A violation is emitted as the shortest action path and replayed
 * through the real TpiScheme (scripted faults at exact injection
 * opportunities) to confirm the implementation reproduces it. Clean
 * runs still cross-check a batch of pseudo-random full paths against
 * the implementation, outcome by outcome, so the model cannot silently
 * drift away from the code it abstracts.
 *
 *   hscd_mc                                  # 2p/2w/1-bit, no faults
 *   hscd_mc --faults 1 --sites mem,net.drop  # every 1-fault pattern
 *   hscd_mc --procs 3 --words 4 --bits 2 --json out.json
 *
 * Exit codes follow the verify::ExitCode contract: 0 clean exhaustive
 * verdict, 1 state-capped (not exhaustive), 2 usage error, 3 invariant
 * violation or model/implementation divergence, 5 harness error.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "fault/plan.hh"
#include "mc/explorer.hh"
#include "mc/replay.hh"
#include "obs/provenance.hh"
#include "verify/diagnostic.hh"

namespace {

using namespace hscd;

struct CliOptions
{
    mc::McConfig model;
    std::string sitesSpec = "all";
    bool symmetry = true;
    std::uint64_t maxStates = 8'000'000;
    std::uint64_t xcheck = 32;
    bool verbose = false;
    std::string jsonPath;
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    const mc::McConfig &m = opt.model;
    Params p;
    p.define("procs", std::to_string(m.procs), "processors, 2..3")
        .define("words", std::to_string(m.words), "shared words, 1..4")
        .define("line-words", std::to_string(m.lineWords),
                "words per cache line")
        .define("bits", std::to_string(m.timetagBits), "timetag bits, 1..3")
        .define("epochs", std::to_string(m.horizonEpochs),
                "explored horizon; 0 means 2*2^bits+1")
        .define("ops", std::to_string(m.opsPerEpoch),
                "references per processor per epoch")
        .define("faults", std::to_string(m.faultBudget),
                "injected-fault budget per run, 0..2")
        .define("sites", opt.sitesSpec,
                "fault sites (mem, net.drop, mem.tag, all, ...)")
        .defineFlag("no-critical", "skip lock-ordered (critical) writes")
        .defineFlag("no-promote", "model tpiPromoteOnHit=false machines")
        .defineFlag("no-symmetry", "disable processor symmetry reduction")
        .define("max-states", std::to_string(opt.maxStates),
                "abandon past this many states")
        .define("xcheck", std::to_string(opt.xcheck),
                "random full paths replayed on the real scheme;\n"
                "0 disables")
        .define("json", "", "write a machine-readable verdict to this file")
        .defineFlag("verbose", "print per-phase detail")
        .defineFlag("help", "this text")
        .alias("-h", "help");
    const std::vector<std::string> args = p.parseCommandLine(argc, argv);
    if (p.getBool("help")) {
        std::printf(
            "usage: %s [options]\n"
            "\n"
            "Exhaustively model-checks the TPI timetag protocol: explores\n"
            "every legal interleaving (and every fault firing pattern, when\n"
            "a budget is given) of a small machine, checks the no-stale-read\n"
            "and timetag-wraparound invariants, and cross-checks paths\n"
            "against the real TpiScheme via scripted trace replay.\n"
            "\n"
            "Options:\n%s",
            argv[0], p.help().c_str());
        std::exit(verify::ExitSuccess);
    }
    if (!args.empty())
        fatal("unexpected argument '%s'", args.front());

    auto narrow = [&p](const char *key) {
        return unsigned(
            p.getUint(key, 0, std::numeric_limits<unsigned>::max()));
    };
    opt.model.procs = narrow("procs");
    opt.model.words = narrow("words");
    opt.model.lineWords = narrow("line-words");
    opt.model.timetagBits = narrow("bits");
    opt.model.horizonEpochs = narrow("epochs");
    opt.model.opsPerEpoch = narrow("ops");
    opt.model.faultBudget = narrow("faults");
    opt.sitesSpec = p.getString("sites");
    opt.model.faultSites =
        fault::FaultPlan::parse("1:1:" + opt.sitesSpec).sites;
    opt.model.allowCritical = !p.getBool("no-critical");
    opt.model.promote = !p.getBool("no-promote");
    opt.symmetry = !p.getBool("no-symmetry");
    opt.maxStates = p.getUint("max-states");
    opt.xcheck = p.getUint("xcheck");
    opt.jsonPath = p.getString("json");
    opt.verbose = p.getBool("verbose");
    opt.model.validate();
    return opt;
}

struct XcheckTally
{
    std::uint64_t paths = 0;
    std::uint64_t outcomes = 0;
    bool ok = true;
    std::string detail;
};

void
writeJsonReport(const CliOptions &opt, const mc::ExploreResult &res,
                const XcheckTally &xc, const char *verdict,
                bool cexReplayOk)
{
    std::ofstream os(opt.jsonPath);
    if (!os) {
        warn("cannot write --json file '%s'", opt.jsonPath);
        return;
    }
    const mc::McConfig &m = opt.model;

    obs::Provenance prov;
    prov.schema = "hscd-mc";
    prov.tool = "mc";
    prov.configHash = obs::fnv1a(csprintf(
        "%s:sites=%s:sym=%d:cap=%d:xcheck=%d", m.str(), opt.sitesSpec,
        opt.symmetry ? 1 : 0, int(opt.maxStates), int(opt.xcheck)));
    prov.faultSpec = m.faultBudget == 0
                         ? "off"
                         : csprintf("budget=%d:sites=%s", m.faultBudget,
                                    opt.sitesSpec);

    os << "{\n  \"provenance\": " << prov.json(2) << ",\n";
    os << csprintf(
        "  \"config\": {\"procs\": %d, \"words\": %d, \"line_words\": %d,"
        " \"bits\": %d, \"epochs\": %d, \"ops\": %d, \"faults\": %d,"
        " \"sites\": \"%s\", \"critical\": %s, \"promote\": %s,"
        " \"symmetry\": %s},\n",
        m.procs, m.words, m.lineWords, m.timetagBits, m.horizon(),
        m.opsPerEpoch, m.faultBudget, obs::jsonEscape(opt.sitesSpec),
        m.allowCritical ? "true" : "false", m.promote ? "true" : "false",
        opt.symmetry ? "true" : "false");
    os << csprintf(
        "  \"results\": {\"states\": %d, \"transitions\": %d,"
        " \"depth\": %d, \"completed\": %d, \"aborted\": %d,"
        " \"xcheck_paths\": %d, \"xcheck_outcomes\": %d,"
        " \"verdict\": \"%s\"}",
        res.states, res.transitions, res.maxDepth, res.completed,
        res.aborted, xc.paths, xc.outcomes, verdict);
    if (res.cex) {
        os << csprintf(",\n  \"counterexample\": {\"invariant\": \"%s\","
                       " \"detail\": \"%s\", \"replay_ok\": %s,"
                       " \"steps\": [",
                       mc::invariantName(res.cex->invariant),
                       obs::jsonEscape(res.cex->detail),
                       cexReplayOk ? "true" : "false");
        for (std::size_t i = 0; i < res.cex->path.size(); ++i)
            os << csprintf("%s\"%s\"", i ? ", " : "",
                           obs::jsonEscape(res.cex->path[i].str()));
        os << "]}";
    }
    os << "\n}\n";
}

int
run(const CliOptions &opt)
{
    const mc::McConfig &m = opt.model;
    std::printf("mc: %s symmetry=%d\n", m.str().c_str(),
                opt.symmetry ? 1 : 0);

    mc::ExploreOptions eopt;
    eopt.symmetry = opt.symmetry;
    eopt.maxStates = opt.maxStates;
    mc::ExploreResult res = mc::explore(m, eopt);

    std::printf("mc: explored %llu states, %llu transitions, depth %llu\n",
                (unsigned long long)res.states,
                (unsigned long long)res.transitions,
                (unsigned long long)res.maxDepth);
    std::printf("mc: terminals: %llu completed, %llu aborted\n",
                (unsigned long long)res.completed,
                (unsigned long long)res.aborted);

    bool cexReplayOk = false;
    XcheckTally xc;
    const char *verdict = "clean";

    if (res.cex) {
        verdict = "counterexample";
        std::printf("mc: %s", res.cex->str().c_str());
        // A counterexample is only real if the implementation walks the
        // same path to the same outcomes; divergence means the model is
        // wrong, which is its own finding.
        mc::CheckReport rep = mc::crossCheck(m, res.cex->path);
        cexReplayOk = rep.ok;
        if (rep.ok) {
            std::printf("mc: counterexample replays identically on "
                        "TpiScheme (%llu outcomes)\n",
                        (unsigned long long)rep.compared);
        } else {
            std::printf("mc: counterexample does NOT replay on "
                        "TpiScheme: %s\n", rep.detail.c_str());
        }
    } else if (res.hitStateCap) {
        verdict = "bounded";
        std::printf("mc: state cap %llu reached - verdict is bounded, "
                    "not exhaustive\n",
                    (unsigned long long)opt.maxStates);
    } else {
        for (std::uint64_t i = 0; i < opt.xcheck; ++i) {
            std::vector<mc::Action> path = mc::randomWalk(m, i + 1);
            mc::CheckReport rep = mc::crossCheck(m, path);
            ++xc.paths;
            xc.outcomes += rep.compared;
            if (!rep.ok) {
                xc.ok = false;
                xc.detail = rep.detail;
                verdict = "divergence";
                std::printf("mc: model/implementation divergence on "
                            "path %llu: %s\n", (unsigned long long)(i + 1),
                            rep.detail.c_str());
                if (opt.verbose) {
                    for (const mc::Action &a : path)
                        std::printf("    %s\n", a.str().c_str());
                }
                break;
            }
        }
        if (xc.ok && xc.paths > 0)
            std::printf("mc: cross-check: %llu/%llu paths agree with "
                        "TpiScheme (%llu outcomes)\n",
                        (unsigned long long)xc.paths,
                        (unsigned long long)xc.paths,
                        (unsigned long long)xc.outcomes);
    }

    std::printf("mc: verdict %s\n", verdict);
    if (!opt.jsonPath.empty())
        writeJsonReport(opt, res, xc, verdict, cexReplayOk);

    if (res.cex || !xc.ok)
        return verify::ExitViolation;
    if (res.hitStateCap)
        return verify::ExitDiagnostics;
    return verify::ExitSuccess;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const FatalError &) {
        // fatal() has already printed the message.
        return verify::ExitUsage;
    }
    try {
        return run(opt);
    } catch (const FatalError &) {
        return verify::ExitInternal;
    }
}
