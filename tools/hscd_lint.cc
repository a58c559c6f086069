/**
 * @file
 * hscd_lint: run the coherence soundness verifier over programs.
 *
 * Lints any mix of the six Perfect-Club-like workloads and seeded
 * random programs (`gen:<seed>`) through the full pass pipeline: HIR
 * well-formedness lints, epoch-graph structural lints, the
 * stale-marking soundness oracle, and the marking-precision analyses.
 *
 *   hscd_lint                      # all six workloads, text output
 *   hscd_lint --werror ocean qcd2  # two workloads, warnings are fatal
 *   hscd_lint --json gen:42        # one generated program, JSON
 *   hscd_lint --sarif=out.sarif    # also write a SARIF 2.1.0 log
 *   hscd_lint --tighten trfd       # rewrite proven-over-conservative
 *                                  # marks, re-verify, and report the
 *                                  # TPI CONSERVATIVE-miss delta
 *   hscd_lint --catalog            # print docs/DIAGNOSTICS.md content
 *
 * Exit code: 0 clean, 1 errors (or warnings under --werror), 2 on a
 * usage error, 3 when a post-tighten runtime check flags a violation,
 * per the verify::ExitCode contract. Output is rendered in input order
 * after all programs are linted, so both stdout and the SARIF file are
 * byte-identical at any --jobs.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/strutil.hh"
#include "compiler/analysis.hh"
#include "mem/machine_config.hh"
#include "obs/provenance.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "verify/catalog.hh"
#include "verify/precision.hh"
#include "verify/sarif.hh"
#include "verify/verify.hh"
#include "workloads/synth.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

namespace {

using namespace hscd;

struct CliOptions
{
    bool json = false;
    bool werror = false;
    bool listOnly = false;
    bool catalog = false;
    bool tighten = false;
    bool symbolic = false;
    bool conservative = false;
    unsigned maxDistance = 255;       ///< compiler distance budget
    std::string sarifPath;
    unsigned jobs = 1;
    int scale = 1;
    verify::LintOptions lint;
    std::vector<std::string> targets;
};

/** Everything one target produces (rendered later, in input order). */
struct TargetResult
{
    verify::DiagnosticEngine diags{""};
    // trace:<file> targets are parse-validated and summarized instead
    // of linted (a trace has no HIR to lint); non-empty when used.
    std::string traceNote;
    // --tighten extras:
    bool tightenRan = false;
    bool tightenRefused = false;       ///< pre-tighten lint failed
    std::size_t rewrites = 0;
    verify::DiagnosticEngine post{""}; ///< re-lint after the rewrite
    std::uint64_t missBefore = 0;
    std::uint64_t missAfter = 0;
    std::uint64_t violations = 0;      ///< oracle+shadow+doall, after
};

/** The seed of a `gen:<seed>` target. */
std::uint64_t
genSeed(const std::string &target)
{
    return Params::parseUint("gen seed", target.substr(4));
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    Params p;
    p.defineFlag("json", "render diagnostics as JSON")
        .define("sarif", "", "also write a SARIF 2.1.0 log to this file")
        .defineFlag("werror", "warnings also produce exit code 1")
        .defineFlag("tighten",
                    "rewrite proven-over-conservative marks\n"
                    "(MARK001), re-lint, and re-simulate TPI\n"
                    "with the runtime checkers on")
        .defineFlag("symbolic",
                    "mark against declared parameter ranges\n"
                    "(separate-compilation style) instead of\n"
                    "the bound problem size")
        .defineFlag("conservative",
                    "compile a migration-safe marking (no\n"
                    "serial-processor-affinity reasoning); the\n"
                    "verified machine still pins serial epochs,\n"
                    "so --tighten can win the precision back")
        .define("max-distance", std::to_string(opt.maxDistance),
                "compiler Time-Read distance budget (an\n"
                "operand-width limit). The oracle still\n"
                "verifies against the full timetag window, so\n"
                "a small budget is what --tighten provably\n"
                "relaxes")
        .defineFlag("catalog", "print the diagnostic catalog markdown")
        .define("jobs", std::to_string(opt.jobs),
                "lint this many programs concurrently")
        .define("scale", std::to_string(opt.scale),
                "workload problem scale")
        .define("timetag-bits", std::to_string(opt.lint.timetagBits),
                "timetag width checked by GRAPH002/oracle,\n"
                "1..32")
        .defineFlag("no-oracle", "skip the oracle and the MARK/GRAPH004\n"
                                 "passes that build on it")
        .defineFlag("list", "list targets and exit")
        .defineFlag("help", "this text")
        .alias("-h", "help");
    const std::vector<std::string> args = p.parseCommandLine(argc, argv);
    if (p.getBool("help")) {
        std::string list;
        for (const std::string &n : workloads::benchmarkNames())
            list += (list.empty() ? "" : "|") + n;
        std::printf(
            "usage: %s [options] [target...]\n"
            "\n"
            "Targets: any of the six workloads (%s),\n"
            "         gen:<seed> for a random legal-DOALL program,\n"
            "         synth:<family>:<seed> for a synthetic workload\n"
            "         (families: falseshare, migratory, prodcons, reuse,\n"
            "         stencil, streaming),\n"
            "         trace:<file> to strictly parse-validate an external\n"
            "         memory trace (exit 2 on malformed input), or\n"
            "         'all' for all six workloads (also the default).\n"
            "\n"
            "Options:\n%s",
            argv[0], list.c_str(), p.help().c_str());
        std::exit(verify::ExitSuccess);
    }
    constexpr auto kUnsignedMax = std::numeric_limits<unsigned>::max();
    opt.json = p.getBool("json");
    opt.sarifPath = p.getString("sarif");
    opt.werror = p.getBool("werror");
    opt.tighten = p.getBool("tighten");
    opt.symbolic = p.getBool("symbolic");
    opt.conservative = p.getBool("conservative");
    opt.maxDistance = unsigned(p.getUint("max-distance", 0, kUnsignedMax));
    opt.catalog = p.getBool("catalog");
    opt.jobs = std::max(1u, unsigned(p.getUint("jobs", 0, kUnsignedMax)));
    opt.scale = int(p.getUint("scale", 1, std::numeric_limits<int>::max()));
    opt.lint.timetagBits = unsigned(p.getUint("timetag-bits", 1, 32));
    opt.lint.runOracle = !p.getBool("no-oracle");
    opt.listOnly = p.getBool("list");
    if (opt.tighten && !opt.lint.runOracle)
        fatal("--tighten needs the oracle (drop --no-oracle)");

    const std::vector<std::string> names = workloads::benchmarkNames();
    for (const std::string &a : args) {
        if (a == "all")
            opt.targets.insert(opt.targets.end(), names.begin(), names.end());
        else
            opt.targets.push_back(a);
    }
    if (opt.targets.empty())
        opt.targets = names;
    for (const std::string &t : opt.targets) {
        if (t.rfind("gen:", 0) == 0)
            genSeed(t);
        else if (workloads::isSynthSpec(t))
            workloads::parseSynthSpec(t);
        else if (workloads::isTraceSpec(t))
            workloads::traceSpecPath(t);
        else if (std::none_of(names.begin(), names.end(),
                              [&](const std::string &n) {
                                  return toLower(n) == toLower(t);
                              }))
            fatal("unknown target '%s' (see --help)", t);
    }
    return opt;
}

hir::Program
buildTarget(const std::string &name, int scale)
{
    if (name.rfind("gen:", 0) == 0) {
        testgen::GenOptions g;
        g.seed = genSeed(name);
        return testgen::randomLegalProgram(g);
    }
    return workloads::buildBenchmark(name, scale);
}

/** TPI machine matching the lint's timetag width, checkers armed. */
MachineConfig
tightenConfig(const CliOptions &opt)
{
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.timetagBits = opt.lint.timetagBits;
    cfg.shadowEpochCheck = true;
    return cfg;
}

TargetResult
lintOne(const CliOptions &opt, const std::string &target)
{
    if (workloads::isTraceSpec(target)) {
        // Strict parse (fatal -> exit 2 in main); summarize on success.
        const workloads::TraceWorkload t =
            workloads::loadTraceSpec(target);
        TargetResult r;
        r.traceNote = csprintf(
            "trace[%s]: parse ok: procs=%d reads=%d writes=%d "
            "epoch_count=%d footprint=%d bytes\n",
            t.source, t.procs, t.reads, t.writes, t.epochCount,
            t.dataBytes);
        return r;
    }
    compiler::AnalysisOptions aopts;
    aopts.timetagBits = opt.lint.timetagBits;
    aopts.symbolicParams = opt.symbolic;
    aopts.assumeSerialAffinity = !opt.conservative;
    aopts.maxDistance = opt.maxDistance;

    TargetResult r;
    compiler::CompiledProgram cp = compiler::compileProgram(
        buildTarget(target, opt.scale), aopts);
    r.diags = verify::lintProgram(cp, target, opt.lint);
    if (!opt.tighten)
        return r;

    // Tighten only a program the verifier accepts: rewriting marks on
    // top of real errors would launder them into "tightened" output.
    if (r.diags.failed(opt.werror)) {
        r.tightenRefused = true;
        return r;
    }
    r.tightenRan = true;

    const MachineConfig cfg = tightenConfig(opt);
    const sim::RunResult before = sim::simulate(cp, cfg);
    r.missBefore = before.missConservative;

    verify::AnalysisCache cache;
    const verify::OracleReport &oracle = cache.oracle(cp, opt.lint);
    const verify::PrecisionReport prep =
        verify::precisionAnalyze(cp, opt.lint, oracle);
    verify::tightenMarking(cp, prep);
    r.rewrites = prep.overConservative.size();

    // Re-verify the rewritten marking end to end: the static oracle
    // must stay clean and the runtime checkers must stay silent.
    r.post = verify::lintProgram(cp, target + ":tightened", opt.lint);
    const sim::RunResult after = sim::simulate(cp, cfg);
    r.missAfter = after.missConservative;
    r.violations = after.oracleViolations + after.shadowViolations +
                   after.doallViolations;
    return r;
}

} // namespace

int
main(int argc, char **argv)
try {
    CliOptions opt = parseArgs(argc, argv);

    if (opt.catalog) {
        std::fputs(verify::catalogMarkdown().c_str(), stdout);
        return 0;
    }
    if (opt.listOnly) {
        for (const std::string &t : opt.targets)
            std::printf("%s\n", t.c_str());
        return 0;
    }

    // Lint in parallel, render strictly in input order: the output is
    // byte-identical at any --jobs (same contract as the sweep engine).
    std::vector<TargetResult> results = parallelMap(
        opt.jobs, opt.targets.size(),
        [&](std::size_t i) { return lintOne(opt, opt.targets[i]); });

    obs::Provenance prov;
    prov.schema = "hscd-lint";
    prov.tool = "lint";
    std::string key = csprintf(
        "scale=%d:timetag=%d:oracle=%d:tighten=%d:symbolic=%d:"
        "conservative=%d:maxdist=%d",
        opt.scale, int(opt.lint.timetagBits), int(opt.lint.runOracle),
        int(opt.tighten), int(opt.symbolic), int(opt.conservative),
        int(opt.maxDistance));
    for (const std::string &t : opt.targets)
        key += ":" + t;
    prov.configHash = obs::fnv1a(key);
    prov.jobs = opt.jobs;

    if (opt.json) {
        // Provenance header object first, then one diagnostics object
        // per target (same contract as the sweep/metrics artifacts).
        std::printf("{\"provenance\": %s}\n", prov.json(0).c_str());
    }

    int exit_code = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const TargetResult &r = results[i];
        if (!r.traceNote.empty()) {
            std::fputs(r.traceNote.c_str(), stdout);
            continue;
        }
        if (opt.json) {
            std::fputs(r.diags.renderJson().c_str(), stdout);
            std::fputc('\n', stdout);
        } else {
            std::fputs(r.diags.renderText().c_str(), stdout);
        }
        exit_code = std::max(exit_code, r.diags.exitCode(opt.werror));

        if (opt.tighten && r.tightenRefused) {
            std::printf("tighten[%s]: refused (lint failed)\n",
                        opt.targets[i].c_str());
        } else if (opt.tighten && r.tightenRan) {
            if (!opt.json)
                std::fputs(r.post.renderText().c_str(), stdout);
            std::printf(
                "tighten[%s]: rewrites=%zu conservative-misses "
                "%llu -> %llu violations=%llu\n",
                opt.targets[i].c_str(), r.rewrites,
                static_cast<unsigned long long>(r.missBefore),
                static_cast<unsigned long long>(r.missAfter),
                static_cast<unsigned long long>(r.violations));
            // A violation or a post-tighten lint error means the
            // rewrite broke soundness: flag it, never report success.
            if (r.violations > 0 || r.post.errors() > 0)
                exit_code =
                    std::max(exit_code, int(verify::ExitViolation));
        }
    }

    if (!opt.sarifPath.empty()) {
        std::vector<verify::DiagnosticEngine> engines;
        engines.reserve(results.size());
        for (TargetResult &r : results)
            engines.push_back(std::move(r.diags));
        const std::string sarif = verify::renderSarif(engines, prov);
        std::FILE *f = std::fopen(opt.sarifPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         opt.sarifPath.c_str());
            return verify::ExitInternal;
        }
        std::fputs(sarif.c_str(), f);
        std::fclose(f);
    }
    return exit_code;
} catch (const FatalError &) {
    // A user error (bad flag, target, trace file or spec); fatal() has
    // already printed the reason.
    return verify::ExitUsage;
}
