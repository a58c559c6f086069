/**
 * @file
 * hscd_faultcheck: fault-injection campaign driver.
 *
 * Fans a corpus of fault seeds across the coherence schemes and asserts
 * the robustness contract end to end: every faulted run must either
 *
 *   - complete clean (faults absorbed: retransmissions, NACK repairs,
 *     epoch resyncs) and execute exactly the same work as the
 *     fault-free reference run (tasks, epochs, reads, writes), or
 *   - stop itself with a structured abort (protocol retry exhaustion,
 *     watchdog, deadlock), or
 *   - be flagged by the soundness oracles (value-stamp, shadow-epoch,
 *     DOALL race) when an injected corruption reached architectural
 *     state.
 *
 * What is never acceptable is a *silent* corruption: a run that
 * completes unflagged but did different work than the reference. The
 * campaign counts exactly that and fails (exit 3) if it ever happens.
 *
 *   hscd_faultcheck                         # 100 seeds, all schemes
 *   hscd_faultcheck --rates 1e-4,1e-3,0.01  # fault-rate sweep table
 *   hscd_faultcheck --seeds 500 --sites net --jobs 16
 *
 * Exit codes follow the verify::ExitCode contract: 0 clean campaign,
 * 2 usage error, 3 silent corruption detected, 5 harness error.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/strutil.hh"
#include "fault/plan.hh"
#include "obs/provenance.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"
#include "workloads/synth.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

namespace {

using namespace hscd;

struct CliOptions
{
    std::vector<double> rates = {1e-4, 1e-3, 1e-2};
    std::uint64_t seeds = 100;
    std::uint64_t seedBase = 1;
    unsigned sites = fault::kSitesAll;
    std::string sitesSpec = "all";
    unsigned jobs = 0;
    int scale = 1;
    std::vector<SchemeKind> schemes = {SchemeKind::Base, SchemeKind::SC,
                                       SchemeKind::TPI, SchemeKind::HW,
                                       SchemeKind::VC};
    bool verbose = false;
    std::string jsonPath;
    /** Workload specs to fan across; empty = the six benchmarks. */
    std::vector<std::string> workloadSpecs;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Runs a fault-injection campaign: `seeds` fault seeds per\n"
        "(rate x scheme), each seed picking one of the six workloads,\n"
        "and verifies that no run is ever silently wrong - every fault\n"
        "is either recovered, aborted, or flagged by the oracles.\n"
        "\n"
        "Options:\n"
        "  --seeds N        fault seeds per (rate x scheme) (default 100)\n"
        "  --seed-base N    first fault seed (default 1)\n"
        "  --rates R,R,...  fault rates to sweep (default 1e-4,1e-3,1e-2)\n"
        "  --sites LIST     site mask: all|net|mem|dir or site names\n"
        "                   (default all)\n"
        "  --schemes L,L    schemes to fan across (default all five)\n"
        "  --workloads L,L  workload specs the seeds rotate over:\n"
        "                   benchmark names, gen:<seed>,\n"
        "                   synth:<family>:<seed>, or trace:<file>\n"
        "                   (default: the six benchmarks)\n"
        "  --scale N        workload problem scale (default 1)\n"
        "  --jobs N         run cells on N threads (default: all)\n"
        "  --json PATH      write the campaign table as JSON (with a\n"
        "                   provenance header) to PATH\n"
        "  --verbose        print each non-clean run\n"
        "  --help           this text\n",
        argv0);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s requires an argument\n",
                             argv[0], flag);
                std::exit(verify::ExitUsage);
            }
            return argv[++i];
        };
        auto number = [&](const char *flag) {
            const std::string v = value(flag);
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0') {
                std::fprintf(stderr, "%s: bad %s value '%s'\n", argv[0],
                             flag, v.c_str());
                std::exit(verify::ExitUsage);
            }
            return d;
        };
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--seeds") {
            opt.seeds = static_cast<std::uint64_t>(number("--seeds"));
        } else if (a == "--seed-base") {
            opt.seedBase =
                static_cast<std::uint64_t>(number("--seed-base"));
        } else if (a == "--scale") {
            opt.scale = static_cast<int>(number("--scale"));
        } else if (a == "--jobs") {
            opt.jobs = static_cast<unsigned>(number("--jobs"));
        } else if (a == "--verbose") {
            opt.verbose = true;
        } else if (a == "--json") {
            opt.jsonPath = value("--json");
        } else if (a == "--rates") {
            opt.rates.clear();
            std::string v = value("--rates");
            std::size_t pos = 0;
            while (pos <= v.size()) {
                std::size_t comma = v.find(',', pos);
                if (comma == std::string::npos)
                    comma = v.size();
                const std::string tok = v.substr(pos, comma - pos);
                char *end = nullptr;
                double r = std::strtod(tok.c_str(), &end);
                if (end == tok.c_str() || *end != '\0' || r < 0 ||
                    r > 1) {
                    std::fprintf(stderr, "%s: bad rate '%s'\n", argv[0],
                                 tok.c_str());
                    std::exit(verify::ExitUsage);
                }
                opt.rates.push_back(r);
                pos = comma + 1;
            }
            if (opt.rates.empty()) {
                std::fprintf(stderr, "%s: --rates needs at least one\n",
                             argv[0]);
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--sites") {
            opt.sitesSpec = value("--sites");
            try {
                // Reuse the plan grammar: rate/seed are dummies here.
                opt.sites =
                    fault::FaultPlan::parse("1:1:" + opt.sitesSpec).sites;
            } catch (const FatalError &) {
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--workloads") {
            opt.workloadSpecs.clear();
            std::string v = value("--workloads");
            for (const std::string &tok : split(v, ',')) {
                const std::string t = trim(tok);
                bool ok = t.rfind("gen:", 0) == 0 ||
                          workloads::isTraceSpec(t);
                if (workloads::isSynthSpec(t)) {
                    try {
                        workloads::parseSynthSpec(t);
                        ok = true;
                    } catch (const FatalError &) {
                        std::exit(verify::ExitUsage);
                    }
                }
                for (const std::string &n : workloads::benchmarkNames())
                    if (toLower(t) == toLower(n))
                        ok = true;
                if (!ok) {
                    std::fprintf(stderr,
                                 "%s: unknown workload spec '%s'\n",
                                 argv[0], t.c_str());
                    std::exit(verify::ExitUsage);
                }
                opt.workloadSpecs.push_back(t);
            }
            if (opt.workloadSpecs.empty()) {
                std::fprintf(stderr,
                             "%s: --workloads needs at least one\n",
                             argv[0]);
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--schemes") {
            opt.schemes.clear();
            std::string v = value("--schemes");
            std::size_t pos = 0;
            while (pos <= v.size()) {
                std::size_t comma = v.find(',', pos);
                if (comma == std::string::npos)
                    comma = v.size();
                try {
                    opt.schemes.push_back(
                        parseScheme(v.substr(pos, comma - pos)));
                } catch (const FatalError &) {
                    std::exit(verify::ExitUsage);
                }
                pos = comma + 1;
            }
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    return opt;
}

/** One faulted run and how it ended. */
enum class Verdict
{
    Clean,     ///< completed, no faults actually injected
    Recovered, ///< completed, injected faults all absorbed
    Aborted,   ///< structured abort (detected)
    Flagged,   ///< oracle/shadow/race violation (detected)
    Silent,    ///< completed unflagged but did different work - BAD
    Internal,  ///< harness exception - BAD
};

struct CellOut
{
    Verdict verdict = Verdict::Internal;
    sim::RunResult run;
    std::string error;
};

struct TableRow
{
    std::uint64_t runs = 0, clean = 0, recovered = 0, aborted = 0,
                  flagged = 0, silent = 0, internal = 0;
    std::uint64_t injected = 0, retries = 0;
};

std::string
rowJson(const TableRow &t)
{
    return csprintf(
        "{\"runs\": %d, \"clean\": %d, \"recovered\": %d, "
        "\"aborted\": %d, \"flagged\": %d, \"silent\": %d, "
        "\"internal\": %d, \"injected\": %d, \"retries\": %d}",
        int(t.runs), int(t.clean), int(t.recovered), int(t.aborted),
        int(t.flagged), int(t.silent), int(t.internal), int(t.injected),
        int(t.retries));
}

/**
 * Machine-readable campaign report: a provenance header (config hash
 * over everything that shapes the corpus), the campaign parameters, one
 * row per (rate x scheme), totals, and the verdict. Deterministic at
 * any --jobs except the provenance "jobs" field itself.
 */
void
writeJsonReport(const CliOptions &opt,
                const std::map<std::pair<double, int>, TableRow> &rows,
                const TableRow &total, const char *verdict)
{
    std::ofstream os(opt.jsonPath);
    if (!os) {
        warn("cannot write --json file '%s'", opt.jsonPath);
        return;
    }
    std::string rates, schemes;
    for (double r : opt.rates)
        rates += csprintf("%s%.9g", rates.empty() ? "" : ",", r);
    for (SchemeKind k : opt.schemes)
        schemes += csprintf("%s%s", schemes.empty() ? "" : ",",
                            schemeName(k));

    obs::Provenance prov;
    prov.schema = "hscd-faultcheck";
    prov.tool = "faultcheck";
    prov.configHash = obs::fnv1a(csprintf(
        "rates=%s:seeds=%d:base=%d:sites=%s:schemes=%s:scale=%d", rates,
        int(opt.seeds), int(opt.seedBase), opt.sitesSpec, schemes,
        opt.scale));
    prov.faultSpec = csprintf("rates=%s:sites=%s", rates, opt.sitesSpec);
    prov.jobs = opt.jobs;

    os << "{\n  \"provenance\": " << prov.json(2) << ",\n";
    os << csprintf("  \"seeds\": %d,\n  \"seed_base\": %d,\n"
                   "  \"scale\": %d,\n  \"sites\": \"%s\",\n",
                   int(opt.seeds), int(opt.seedBase), opt.scale,
                   obs::jsonEscape(opt.sitesSpec).c_str());
    os << "  \"rows\": [\n";
    bool first = true;
    for (double rate : opt.rates) {
        for (SchemeKind k : opt.schemes) {
            auto it = rows.find({rate, static_cast<int>(k)});
            if (it == rows.end())
                continue;
            os << csprintf("%s    {\"rate\": %.9g, \"scheme\": \"%s\", "
                           "\"row\": %s}",
                           first ? "" : ",\n", rate, schemeName(k),
                           rowJson(it->second).c_str());
            first = false;
        }
    }
    os << "\n  ],\n";
    os << "  \"total\": " << rowJson(total) << ",\n";
    os << csprintf("  \"verdict\": \"%s\"\n}\n", verdict);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);
    const std::vector<std::string> benchmarks =
        opt.workloadSpecs.empty() ? workloads::benchmarkNames()
                                  : opt.workloadSpecs;

    // Load each workload once, up front (shared across all runs):
    // compiled HIR for names/gen:/synth: specs, parsed records for
    // trace: specs. A bad spec or malformed trace is a usage error.
    std::map<std::string, compiler::CompiledProgram> programs;
    std::map<std::string, workloads::TraceWorkload> traces;
    try {
        for (const std::string &name : benchmarks) {
            if (workloads::isTraceSpec(name)) {
                traces.emplace(name, workloads::loadTraceSpec(name));
            } else if (name.rfind("gen:", 0) == 0) {
                testgen::GenOptions g;
                g.seed = std::strtoull(name.substr(4).c_str(), nullptr,
                                       10);
                programs.emplace(name,
                                 compiler::compileProgram(
                                     testgen::randomLegalProgram(g)));
            } else {
                programs.emplace(
                    name, compiler::compileProgram(
                              workloads::buildBenchmark(name, opt.scale)));
            }
        }
    } catch (const FatalError &) {
        // fatal() already emitted the reason (file:line for traces).
        return verify::ExitUsage;
    }

    // One faulted run (or its fault-free reference when cfg.fault is
    // disabled). Trace workloads replay through the scheme directly;
    // they carry no value oracle, so corruption there surfaces as an
    // abort or as differing work counts (the Silent check below).
    auto runOne = [&](const std::string &name, const MachineConfig &cfg) {
        auto t = traces.find(name);
        if (t != traces.end())
            return workloads::runTrace(t->second, cfg);
        return sim::simulate(programs.at(name), cfg);
    };

    // Fault-free reference per (scheme, workload): the "same work"
    // baseline completed runs are checked against.
    std::map<std::pair<int, std::string>, sim::RunResult> refs;
    for (SchemeKind k : opt.schemes) {
        for (const std::string &name : benchmarks) {
            MachineConfig cfg;
            cfg.scheme = k;
            cfg.shadowEpochCheck = true;
            refs.emplace(std::make_pair(static_cast<int>(k), name),
                         runOne(name, cfg));
        }
    }

    struct Cell
    {
        double rate;
        SchemeKind scheme;
        std::uint64_t seed;
        const std::string *benchmark;
    };
    std::vector<Cell> cells;
    for (double rate : opt.rates)
        for (SchemeKind k : opt.schemes)
            for (std::uint64_t s = 0; s < opt.seeds; ++s) {
                Cell c;
                c.rate = rate;
                c.scheme = k;
                c.seed = opt.seedBase + s;
                c.benchmark = &benchmarks[s % benchmarks.size()];
                cells.push_back(c);
            }

    std::printf("== hscd_faultcheck: %d runs (%d rates x %d schemes x "
                "%d seeds), sites=%s, scale=%d ==\n",
                int(cells.size()), int(opt.rates.size()),
                int(opt.schemes.size()), int(opt.seeds),
                opt.sitesSpec.c_str(), opt.scale);

    std::vector<CellOut> outs = parallelMap(
        opt.jobs, cells.size(), [&](std::size_t i) {
            const Cell &c = cells[i];
            CellOut out;
            MachineConfig cfg;
            cfg.scheme = c.scheme;
            cfg.shadowEpochCheck = true;
            cfg.fault.rate = c.rate;
            cfg.fault.seed = c.seed;
            cfg.fault.sites = opt.sites;
            try {
                out.run = runOne(*c.benchmark, cfg);
            } catch (const std::exception &e) {
                out.error = e.what();
                out.verdict = Verdict::Internal;
                return out;
            }
            const sim::RunResult &r = out.run;
            if (r.aborted()) {
                out.verdict = Verdict::Aborted;
            } else if (r.oracleViolations || r.shadowViolations ||
                       r.doallViolations) {
                out.verdict = Verdict::Flagged;
            } else {
                // Completed and unflagged: it must have done exactly the
                // reference run's work, or the fault silently changed
                // the computation.
                const sim::RunResult &ref = refs.at(
                    {static_cast<int>(c.scheme), *c.benchmark});
                const bool same_work = r.tasks == ref.tasks &&
                                       r.epochs == ref.epochs &&
                                       r.parallelEpochs ==
                                           ref.parallelEpochs &&
                                       r.reads == ref.reads &&
                                       r.writes == ref.writes;
                if (!same_work)
                    out.verdict = Verdict::Silent;
                else if (r.faultsInjected == 0)
                    out.verdict = Verdict::Clean;
                else
                    out.verdict = Verdict::Recovered;
            }
            return out;
        });

    // Aggregate and render in deterministic (rate, scheme) order.
    std::map<std::pair<double, int>, TableRow> rows;
    TableRow total;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const CellOut &o = outs[i];
        TableRow &row = rows[{c.rate, static_cast<int>(c.scheme)}];
        for (TableRow *t : {&row, &total}) {
            ++t->runs;
            t->injected += o.run.faultsInjected;
            t->retries += o.run.faultRetries;
            switch (o.verdict) {
              case Verdict::Clean: ++t->clean; break;
              case Verdict::Recovered: ++t->recovered; break;
              case Verdict::Aborted: ++t->aborted; break;
              case Verdict::Flagged: ++t->flagged; break;
              case Verdict::Silent: ++t->silent; break;
              case Verdict::Internal: ++t->internal; break;
            }
        }
        const bool bad = o.verdict == Verdict::Silent ||
                         o.verdict == Verdict::Internal;
        if (bad || (opt.verbose && o.verdict != Verdict::Clean &&
                    o.verdict != Verdict::Recovered)) {
            std::printf(
                "  [%s] rate=%g scheme=%s seed=%llu %s: %s\n",
                bad ? "FAIL" : "info", c.rate, schemeName(c.scheme),
                static_cast<unsigned long long>(c.seed),
                c.benchmark->c_str(),
                !o.error.empty() ? o.error.c_str()
                                 : o.run.summary().c_str());
        }
    }

    std::printf("\n%-10s %-6s %6s %6s %10s %8s %8s %7s %10s %9s\n",
                "rate", "scheme", "runs", "clean", "recovered", "aborted",
                "flagged", "silent", "injected", "retries");
    for (double rate : opt.rates) {
        for (SchemeKind k : opt.schemes) {
            const TableRow &t = rows[{rate, static_cast<int>(k)}];
            std::printf(
                "%-10g %-6s %6d %6d %10d %8d %8d %7d %10d %9d\n", rate,
                schemeName(k), int(t.runs), int(t.clean),
                int(t.recovered), int(t.aborted), int(t.flagged),
                int(t.silent), int(t.injected), int(t.retries));
        }
    }
    std::printf("%-10s %-6s %6d %6d %10d %8d %8d %7d %10d %9d\n", "total",
                "-", int(total.runs), int(total.clean),
                int(total.recovered), int(total.aborted),
                int(total.flagged), int(total.silent),
                int(total.injected), int(total.retries));

    const char *verdict = total.internal ? "internal-error"
                          : total.silent ? "silent-corruption"
                                         : "clean";
    if (!opt.jsonPath.empty())
        writeJsonReport(opt, rows, total, verdict);

    if (total.internal) {
        std::printf("\nverdict: %d harness errors - campaign invalid\n",
                    int(total.internal));
        return verify::ExitInternal;
    }
    if (total.silent) {
        std::printf("\nverdict: %d SILENT CORRUPTIONS across %d runs\n",
                    int(total.silent), int(total.runs));
        return verify::ExitViolation;
    }
    std::printf("\nverdict: zero silent corruptions across %d faulted "
                "runs (%d recovered, %d aborted, %d flagged)\n",
                int(total.runs), int(total.recovered), int(total.aborted),
                int(total.flagged));
    return verify::ExitSuccess;
}
