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

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

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

bool
strcaseeq(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

void
usage(const char *argv0)
{
    std::string names;
    for (const std::string &n : workloads::benchmarkNames())
        names += (names.empty() ? "" : "|") + n;
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
        "Options:\n"
        "  --json             render diagnostics as JSON\n"
        "  --sarif=FILE       also write a SARIF 2.1.0 log to FILE\n"
        "  --werror           warnings also produce exit code 1\n"
        "  --tighten          rewrite proven-over-conservative marks\n"
        "                     (MARK001), re-lint, and re-simulate TPI\n"
        "                     with the runtime checkers on\n"
        "  --symbolic         mark against declared parameter ranges\n"
        "                     (separate-compilation style) instead of\n"
        "                     the bound problem size\n"
        "  --conservative     compile a migration-safe marking (no\n"
        "                     serial-processor-affinity reasoning); the\n"
        "                     verified machine still pins serial epochs,\n"
        "                     so --tighten can win the precision back\n"
        "  --max-distance=N   compiler Time-Read distance budget (an\n"
        "                     operand-width limit; default 255). The\n"
        "                     oracle still verifies against the full\n"
        "                     timetag window, so a small budget is what\n"
        "                     --tighten provably relaxes\n"
        "  --catalog          print the diagnostic catalog markdown\n"
        "  --jobs=N           lint N programs concurrently (default 1)\n"
        "  --scale=N          workload problem scale (default 1)\n"
        "  --timetag-bits=N   timetag width checked by GRAPH002/oracle\n"
        "  --no-oracle        skip the oracle and the MARK/GRAPH004\n"
        "                     passes that build on it\n"
        "  --list             list targets and exit\n"
        "  --help             this text\n",
        argv0, names.c_str());
}

/** The seed of a `gen:<seed>` target: decimal digits only, in 64 bits. */
std::optional<std::uint64_t>
genSeed(const std::string &target)
{
    const char *first = target.c_str() + 4; // past "gen:"
    const char *last = target.c_str() + target.size();
    std::uint64_t seed = 0;
    const auto [end, ec] = std::from_chars(first, last, seed);
    if (first == last || ec != std::errc() || end != last)
        return std::nullopt;
    return seed;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const std::string &prefix) {
            return a.substr(prefix.size());
        };
        if (a == "--json") {
            opt.json = true;
        } else if (a == "--werror") {
            opt.werror = true;
        } else if (a == "--list") {
            opt.listOnly = true;
        } else if (a == "--catalog") {
            opt.catalog = true;
        } else if (a == "--tighten") {
            opt.tighten = true;
        } else if (a == "--symbolic") {
            opt.symbolic = true;
        } else if (a == "--conservative") {
            opt.conservative = true;
        } else if (a.rfind("--max-distance=", 0) == 0) {
            opt.maxDistance = static_cast<unsigned>(
                std::atoi(value("--max-distance=").c_str()));
        } else if (a.rfind("--sarif=", 0) == 0) {
            opt.sarifPath = value("--sarif=");
        } else if (a == "--no-oracle") {
            opt.lint.runOracle = false;
        } else if (a.rfind("--jobs=", 0) == 0) {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(value("--jobs=").c_str(), nullptr, 10));
            if (opt.jobs == 0)
                opt.jobs = 1;
        } else if (a.rfind("--scale=", 0) == 0) {
            opt.scale = std::atoi(value("--scale=").c_str());
        } else if (a.rfind("--timetag-bits=", 0) == 0) {
            opt.lint.timetagBits = static_cast<unsigned>(
                std::atoi(value("--timetag-bits=").c_str()));
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        } else if (a == "all") {
            for (const std::string &n : workloads::benchmarkNames())
                opt.targets.push_back(n);
        } else {
            opt.targets.push_back(a);
        }
    }
    if (opt.tighten && !opt.lint.runOracle) {
        std::fprintf(stderr,
                     "--tighten needs the oracle (drop --no-oracle)\n");
        std::exit(verify::ExitUsage);
    }
    if (opt.targets.empty())
        opt.targets = workloads::benchmarkNames();
    for (const std::string &t : opt.targets) {
        if (t.rfind("gen:", 0) == 0) {
            if (!genSeed(t)) {
                std::fprintf(stderr, "%s: bad seed in '%s' (want "
                             "gen:<decimal seed below 2^64>)\n", argv[0],
                             t.c_str());
                std::exit(verify::ExitUsage);
            }
            continue;
        }
        if (workloads::isSynthSpec(t)) {
            try {
                workloads::parseSynthSpec(t);
            } catch (const FatalError &) {
                // fatal() already emitted the reason.
                std::exit(verify::ExitUsage);
            }
            continue;
        }
        if (workloads::isTraceSpec(t)) {
            try {
                workloads::traceSpecPath(t);
            } catch (const FatalError &) {
                std::exit(verify::ExitUsage);
            }
            continue;
        }
        bool known = false;
        for (const std::string &n : workloads::benchmarkNames())
            if (strcaseeq(t, n))
                known = true;
        if (!known) {
            std::fprintf(stderr, "%s: unknown target '%s'\n", argv[0],
                         t.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    return opt;
}

hir::Program
buildTarget(const std::string &name, int scale)
{
    if (name.rfind("gen:", 0) == 0) {
        testgen::GenOptions g;
        g.seed = *genSeed(name); // parseArgs checked it
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
{
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
    std::vector<TargetResult> results;
    try {
        results = parallelMap(
            opt.jobs, opt.targets.size(),
            [&](std::size_t i) { return lintOne(opt, opt.targets[i]); });
    } catch (const FatalError &) {
        // User error (bad trace file, malformed spec); the reason was
        // already emitted by fatal().
        return verify::ExitUsage;
    }

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
}
