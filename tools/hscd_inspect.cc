/**
 * @file
 * hscd_inspect: query observability artifacts and instrumented runs.
 *
 * Answers "what happened?" questions about a simulation from four
 * sources: a metrics time-series JSON (`--metrics FILE`, written by the
 * bench `--metrics/--metrics-out` flags), a Perfetto timeline
 * (`--perfetto FILE`, written by `--trace-out`), a recorded text trace
 * (`--trace FILE`, outcomes re-derived with a modelled infinite-capacity
 * TPI cache), or an in-process run of a workload (`--workload NAME`,
 * exact scheme verdicts via the TraceSink outcome stream).
 *
 *   hscd_inspect --metrics metrics.json summary
 *   hscd_inspect --metrics metrics.json epoch 12
 *   hscd_inspect --workload ocean line 0x1a40
 *   hscd_inspect --workload ocean why-miss 3 0x1a40
 *   hscd_inspect --workload ocean why-miss auto
 *
 * `why-miss` is the flagship query: for a Time-Read miss it reconstructs
 * the word's timetag from the outcome stream (fills stamp the demanded
 * word with the fill epoch and its line-mates with epoch-1; a passing
 * Time-Read promotes to the current epoch; a write stamps the write
 * epoch, or epoch-1 under a lock) and reports whether the miss was
 * TRUE-SHARE (a foreign write landed after the timetag - no marking
 * distance could have kept the copy) or CONSERVATIVE (the data was still
 * fresh - the compiler's distance was simply too small, and the report
 * states the distance that would have hit).
 *
 * Exit codes per the verify::ExitCode contract: 0 success, 1 the query
 * matched nothing, 2 usage error, 5 unreadable input.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/strutil.hh"
#include "compiler/analysis.hh"
#include "mem/coherence.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "verify/diagnostic.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

namespace {

using namespace hscd;

using ULL = unsigned long long;

struct CliOptions
{
    std::string metricsPath;
    std::string perfettoPath;
    std::string tracePath;
    std::string workload;
    SchemeKind scheme = SchemeKind::TPI;
    int scale = 1;
    unsigned procs = 0; ///< 0 keeps the Figure 8 default
    std::size_t limit = 64;
    std::string missClass; ///< why-miss auto: restrict to this class
    std::string command;
    std::vector<std::string> args;
};

void
usage(const char *argv0)
{
    std::string names;
    for (const std::string &n : workloads::benchmarkNames())
        names += (names.empty() ? "" : "|") + n;
    std::printf(
        "usage: %s [sources] <command> [args]\n"
        "\n"
        "Commands:\n"
        "  summary                 totals from every given source\n"
        "  epoch <n>               per-interval detail for epoch n\n"
        "  line <addr>             event timeline of one cache line\n"
        "  why-miss <proc> <addr>  attribute Time-Read misses at addr\n"
        "  why-miss auto           explain the first attributable miss\n"
        "\n"
        "Sources (at least one):\n"
        "  --metrics FILE    metrics series JSON (bench --metrics)\n"
        "  --perfetto FILE   Perfetto timeline JSON (bench --trace-out)\n"
        "  --trace FILE      recorded text trace; outcomes re-derived\n"
        "                    with a modelled infinite-capacity TPI cache\n"
        "  --workload NAME   run NAME in-process (%s)\n"
        "                    and inspect the exact scheme verdicts\n"
        "\n"
        "Workload-mode options:\n"
        "  --scheme S        base|sc|tpi|hw|vc (default tpi)\n"
        "  --scale N         workload problem scale (default 1)\n"
        "  --procs N         processor count (default: Figure 8)\n"
        "\n"
        "Other:\n"
        "  --limit N         max events listed by `line` (default 64)\n"
        "  --class C         why-miss auto: pick a miss of class C\n"
        "                    (e.g. true-share, conservative)\n"
        "  --help            this text\n",
        argv0, names.c_str());
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    std::vector<std::string> positional;
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
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--metrics") {
            opt.metricsPath = value("--metrics");
        } else if (a == "--perfetto") {
            opt.perfettoPath = value("--perfetto");
        } else if (a == "--trace") {
            opt.tracePath = value("--trace");
        } else if (a == "--workload") {
            opt.workload = value("--workload");
        } else if (a == "--scheme") {
            try {
                opt.scheme = parseScheme(value("--scheme"));
            } catch (const FatalError &) {
                std::exit(verify::ExitUsage);
            }
        } else if (a == "--scale") {
            opt.scale = std::atoi(value("--scale").c_str());
        } else if (a == "--procs") {
            opt.procs = static_cast<unsigned>(
                std::strtoul(value("--procs").c_str(), nullptr, 10));
        } else if (a == "--limit") {
            opt.limit = static_cast<std::size_t>(
                std::strtoull(value("--limit").c_str(), nullptr, 10));
        } else if (a == "--class") {
            opt.missClass = value("--class");
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        } else {
            positional.push_back(a);
        }
    }
    if (positional.empty()) {
        std::fprintf(stderr, "%s: no command given\n", argv[0]);
        usage(argv[0]);
        std::exit(verify::ExitUsage);
    }
    opt.command = positional.front();
    opt.args.assign(positional.begin() + 1, positional.end());
    if (opt.metricsPath.empty() && opt.perfettoPath.empty() &&
        opt.tracePath.empty() && opt.workload.empty()) {
        std::fprintf(stderr, "%s: no source given (--metrics, --perfetto, "
                             "--trace or --workload)\n", argv[0]);
        std::exit(verify::ExitUsage);
    }
    return opt;
}

std::uint64_t
parseNumber(const std::string &s, const char *what)
{
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0') {
        std::fprintf(stderr, "hscd_inspect: bad %s '%s'\n", what,
                     s.c_str());
        std::exit(verify::ExitUsage);
    }
    return v;
}

// ---------------------------------------------------------------------
// Outcome stream: one record per memory reference with its verdict.

struct Outcome
{
    mem::MemOp op;
    bool hit = false;
    Cycles stall = 0;
    mem::MissClass cls = mem::MissClass::None;
    EpochId epoch = 0;
};

struct Source
{
    std::vector<Outcome> recs;
    EpochId epochs = 0;      ///< last epoch id seen
    unsigned lineBytes = 16;
    bool exact = false;      ///< scheme verdicts vs. modelled cache
    bool promote = true;     ///< Time-Read hits refresh the timetag
    sim::RunResult run;      ///< workload mode only
    bool hasRun = false;
    std::string what;        ///< banner: where the outcomes came from
};

/** Record the exact scheme verdict of every reference during a run. */
class OutcomeLog : public sim::TraceSink
{
  public:
    void onAccess(const mem::MemOp &) override {}

    void
    onBoundary(EpochId epoch) override
    {
        if (epoch > epochs)
            epochs = epoch;
    }

    void
    onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
              EpochId epoch) override
    {
        recs.push_back({op, res.hit, res.stall, res.cls, epoch});
    }

    std::vector<Outcome> recs;
    EpochId epochs = 0;
};

Source
runWorkload(const CliOptions &opt)
{
    // trace:<file> replays an external trace through the chosen scheme
    // with the exact per-access verdict stream (same path the compiled
    // workloads use); the strict parser makes malformed input exit 2.
    if (workloads::isTraceSpec(opt.workload)) {
        Source src;
        try {
            const workloads::TraceWorkload t =
                workloads::loadTraceSpec(opt.workload);
            MachineConfig cfg;
            cfg.scheme = opt.scheme;
            cfg.procs = opt.procs ? opt.procs : t.procs;
            if (cfg.procs < t.procs)
                cfg.procs = t.procs;
            OutcomeLog log;
            src.run = workloads::runTrace(t, cfg, &log);
            src.hasRun = true;
            src.exact = true;
            src.lineBytes = cfg.lineBytes;
            src.promote = cfg.tpiPromoteOnHit;
            src.recs = std::move(log.recs);
            src.epochs = log.epochs;
            src.what = csprintf(
                "trace %s (scheme %s, %d procs, exact)", t.source,
                schemeName(cfg.scheme), cfg.procs);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "hscd_inspect: %s\n", e.what());
            std::exit(verify::ExitUsage);
        }
        return src;
    }
    compiler::AnalysisOptions aopts;
    aopts.assumeSerialAffinity = true;
    compiler::CompiledProgram cp;
    try {
        cp = compiler::compileProgram(
            workloads::buildBenchmark(opt.workload, opt.scale), aopts);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "hscd_inspect: %s\n", e.what());
        std::exit(verify::ExitUsage);
    }
    MachineConfig cfg;
    cfg.scheme = opt.scheme;
    if (opt.procs)
        cfg.procs = opt.procs;
    sim::Machine m(cp, cfg);
    OutcomeLog log;
    m.setTraceSink(&log);

    Source src;
    src.run = m.run();
    src.hasRun = true;
    src.exact = true;
    src.lineBytes = cfg.lineBytes;
    src.promote = cfg.tpiPromoteOnHit;
    src.recs = std::move(log.recs);
    src.epochs = log.epochs;
    src.what = csprintf("workload %s (scheme %s, scale %d, exact)",
                        opt.workload, schemeName(cfg.scheme), opt.scale);
    return src;
}

/**
 * Re-derive outcomes for a recorded trace with a modelled TPI cache:
 * infinite capacity (no replacement misses), word timetags with demand/
 * side fill, promote-on-hit, and the paper's write stamping. Good
 * enough for why-miss attribution when only the trace survived; the
 * --workload mode is exact and preferred.
 */
Source
loadTrace(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "hscd_inspect: cannot read '%s'\n",
                     path.c_str());
        std::exit(verify::ExitInternal);
    }
    sim::ParsedTrace t;
    try {
        t = sim::readTrace(is);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "hscd_inspect: %s\n", e.what());
        std::exit(verify::ExitUsage);
    }

    Source src;
    src.exact = false;
    src.what = csprintf("trace %s (%d procs, modelled TPI cache)", path,
                        int(t.procs));

    struct WordState
    {
        bool valid = false;
        EpochId tt = 0;
    };
    std::map<std::pair<ProcId, Addr>, WordState> cache;
    std::set<std::pair<ProcId, Addr>> lineCached;
    std::map<Addr, std::pair<EpochId, ProcId>> lastWrite;
    const Addr lineMask = ~Addr(src.lineBytes - 1);
    EpochId epoch = 0;
    // Fetch a line: the demanded word is vouched through the current
    // epoch, its line-mates through epoch-1 (invalid in epoch 0).
    auto fillLine = [&](ProcId proc, Addr demanded) {
        const Addr base = demanded & lineMask;
        lineCached.insert({proc, base});
        for (Addr a = base; a < base + src.lineBytes; a += 4) {
            WordState &st = cache[{proc, a}];
            if (a == demanded) {
                st.valid = true;
                st.tt = epoch;
            } else {
                st.valid = epoch > 0;
                st.tt = epoch ? epoch - 1 : 0;
            }
        }
    };
    for (const sim::TraceRecord &r : t.records) {
        if (r.type == sim::TraceRecord::Type::Boundary) {
            epoch = r.epoch;
            if (epoch > src.epochs)
                src.epochs = epoch;
            continue;
        }
        const mem::MemOp &op = r.op;
        Outcome o;
        o.op = op;
        o.epoch = epoch;
        const Addr word = op.addr & ~Addr(3);
        const bool present =
            lineCached.count({op.proc, op.addr & lineMask}) != 0;
        if (op.write) {
            o.hit = present;
            if (!present)
                fillLine(op.proc, word); // write-allocate
            WordState &st = cache[{op.proc, word}];
            if (!op.critical) {
                st.valid = true;
                st.tt = epoch;
            } else {
                st.valid = epoch > 0;
                st.tt = epoch ? epoch - 1 : 0;
            }
            lastWrite[word] = {epoch, op.proc};
        } else if (op.mark == compiler::MarkKind::Bypass) {
            o.hit = false; // uncached single-word fetch, unclassified
        } else {
            const WordState st = cache[{op.proc, word}];
            bool fresh = true;
            if (st.valid && op.mark == compiler::MarkKind::TimeRead) {
                const EpochId floor =
                    epoch >= op.distance ? epoch - op.distance : 0;
                fresh = st.tt >= floor;
            }
            if (present && st.valid && fresh) {
                o.hit = true;
                if (op.mark == compiler::MarkKind::TimeRead)
                    cache[{op.proc, word}].tt = epoch; // promote
            } else {
                o.hit = false;
                if (!present) {
                    o.cls = mem::MissClass::Cold;
                } else if (!st.valid) {
                    o.cls = mem::MissClass::TagReset;
                } else {
                    auto lw = lastWrite.find(word);
                    const bool stale = lw != lastWrite.end() &&
                                       lw->second.second != op.proc &&
                                       lw->second.first > st.tt &&
                                       lw->second.first <= epoch;
                    o.cls = stale ? mem::MissClass::TrueShare
                                  : mem::MissClass::Conservative;
                }
                fillLine(op.proc, word);
            }
        }
        src.recs.push_back(o);
    }
    return src;
}

const char *
markName(compiler::MarkKind m)
{
    switch (m) {
      case compiler::MarkKind::Normal: return "normal";
      case compiler::MarkKind::TimeRead: return "time-read";
      case compiler::MarkKind::Bypass: return "bypass";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Timetag reconstruction for one (processor, word) pair.

struct WordHistory
{
    bool valid = false;
    EpochId tt = 0;
    std::string source = "never cached";
    EpochId sourceEpoch = 0;
    /** Writes to the word by *other* processors, in stream order. */
    std::vector<std::pair<EpochId, ProcId>> foreignWrites;
};

/**
 * Replay outcomes [0, end) and reconstruct what processor @p p's cached
 * copy of @p word looked like: the timetag the hardware would compare
 * against a Time-Read floor, and where that timetag came from. Follows
 * the TPI stamping rules exactly (demand fill = fill epoch, side fill =
 * epoch-1, promote-on-hit, write = epoch or epoch-1 under a lock).
 * Evictions are invisible in the stream, but every query site branches
 * on the scheme's own miss class first, so a replaced copy is never
 * misattributed.
 */
WordHistory
replayWord(const Source &s, ProcId p, Addr word, std::size_t end)
{
    WordHistory h;
    const Addr lineMask = ~Addr(s.lineBytes - 1);
    const Addr line = word & lineMask;
    // A line-mate fill vouches for this word only up to epoch-1; in
    // epoch 0 there is no representable EC-1, so the tag stays invalid.
    auto sideFill = [&h](EpochId e) {
        h.valid = e > 0;
        h.tt = e ? e - 1 : 0;
        h.source = e ? "side fill" : "side fill (epoch 0: invalid)";
        h.sourceEpoch = e;
    };
    for (std::size_t i = 0; i < end && i < s.recs.size(); ++i) {
        const Outcome &o = s.recs[i];
        const Addr w = o.op.addr & ~Addr(3);
        const bool sameLine = (o.op.addr & lineMask) == line;
        if (o.op.write) {
            if (o.op.proc != p) {
                if (w == word &&
                    (h.foreignWrites.empty() ||
                     h.foreignWrites.back() !=
                         std::make_pair(o.epoch, o.op.proc)))
                    h.foreignWrites.emplace_back(o.epoch, o.op.proc);
                continue;
            }
            if (!sameLine)
                continue;
            // A write miss allocates the whole line before stamping
            // the written word, so a missing write to a line-mate
            // side-fills this word too.
            if (!o.hit && w != word)
                sideFill(o.epoch);
            if (w == word) {
                if (!o.op.critical) {
                    h.valid = true;
                    h.tt = o.epoch;
                    h.source = "write";
                } else if (o.epoch) {
                    h.valid = true;
                    h.tt = o.epoch - 1;
                    h.source = "critical write";
                } else {
                    h.valid = false;
                    h.tt = 0;
                    h.source = "critical write (epoch 0: invalid)";
                }
                h.sourceEpoch = o.epoch;
            }
            continue;
        }
        // Bypass reads go around the cache: no fill, no tag change.
        if (o.op.proc != p || o.op.mark == compiler::MarkKind::Bypass)
            continue;
        if (!o.hit) {
            // A read miss (re)fetches the whole line.
            if (!sameLine || o.cls == mem::MissClass::Uncached)
                continue;
            if (w == word) {
                h.valid = true;
                h.tt = o.epoch;
                h.source = "demand fill";
                h.sourceEpoch = o.epoch;
            } else {
                sideFill(o.epoch);
            }
        } else if (w == word && s.promote &&
                   o.op.mark == compiler::MarkKind::TimeRead) {
            h.tt = o.epoch;
            h.source = "time-read promote";
            h.sourceEpoch = o.epoch;
        }
    }
    return h;
}

// ---------------------------------------------------------------------
// Commands over the outcome stream.

void
explainOne(const Source &s, std::size_t idx, unsigned seq, unsigned total)
{
    const Outcome &o = s.recs[idx];
    const ProcId p = o.op.proc;
    const Addr word = o.op.addr & ~Addr(3);
    const EpochId floor =
        o.epoch >= o.op.distance ? o.epoch - o.op.distance : 0;

    std::printf("  miss %u/%u: epoch %llu, cycle %llu, time-read d=%u "
                "(floor = %llu)%s\n",
                seq, total, ULL(o.epoch), ULL(o.op.now), o.op.distance,
                ULL(floor),
                s.exact ? csprintf(", scheme class: %s",
                                   mem::missClassName(o.cls)).c_str()
                        : "");

    // Misses the scheme already blames on cache shape are not marking
    // questions; say so instead of second-guessing.
    if (o.cls == mem::MissClass::Cold ||
        o.cls == mem::MissClass::Replacement) {
        std::printf("    verdict: %s - no live copy to vouch for; the "
                    "timetag was never consulted.\n",
                    o.cls == mem::MissClass::Cold ? "COLD (first touch)"
                                                  : "CAPACITY (evicted)");
        return;
    }

    const WordHistory h = replayWord(s, p, word, idx);
    if (o.cls == mem::MissClass::TagReset) {
        // The line was present but the word's tag invalid: either the
        // two-phase reset wiped it, or an epoch-0 fill never vouched.
        if (!h.valid && h.source != "never cached")
            std::printf("    verdict: INVALID TAG - the word's tag was "
                        "never set (%s); no distance could hit.\n",
                        h.source.c_str());
        else
            std::printf("    verdict: TAG-RESET - the copy was "
                        "invalidated by timetag wraparound (two-phase "
                        "reset), not by the marking distance.\n");
        return;
    }
    if (!h.valid) {
        std::printf("    no reconstructable copy before this miss "
                    "(%s).\n",
                    h.source == "never cached" ? "first touch in the "
                                                 "stream"
                                               : h.source.c_str());
        return;
    }
    std::printf("    cached timetag = %llu (%s in epoch %llu); "
                "%llu < floor %llu so the Time-Read cannot vouch.\n",
                ULL(h.tt), h.source.c_str(), ULL(h.sourceEpoch),
                ULL(h.tt), ULL(floor));

    // Foreign write after the timetag but not after the reader's epoch?
    const std::pair<EpochId, ProcId> *staleBy = nullptr;
    const std::pair<EpochId, ProcId> *lastForeign = nullptr;
    for (const auto &fw : h.foreignWrites) {
        lastForeign = &fw;
        if (!staleBy && fw.first > h.tt && fw.first <= o.epoch)
            staleBy = &fw;
    }
    if (staleBy) {
        std::printf("    foreign write in (%llu, %llu]: epoch %llu by "
                    "proc %u - the copy really was stale.\n",
                    ULL(h.tt), ULL(o.epoch), ULL(staleBy->first),
                    unsigned(staleBy->second));
        std::printf("    verdict: TRUE-SHARE - timetag state is "
                    "correct; no marking distance could have kept "
                    "this copy.\n");
    } else {
        if (lastForeign)
            std::printf("    foreign writes in (%llu, %llu]: none "
                        "(last foreign write: epoch %llu by proc %u).\n",
                        ULL(h.tt), ULL(o.epoch), ULL(lastForeign->first),
                        unsigned(lastForeign->second));
        else
            std::printf("    foreign writes in (%llu, %llu]: none "
                        "(no other processor ever wrote this word).\n",
                        ULL(h.tt), ULL(o.epoch));
        std::printf("    verdict: CONSERVATIVE - the data was still "
                    "fresh; a marking distance d >= %llu (epoch - "
                    "timetag) would have hit.\n",
                    ULL(o.epoch - h.tt));
    }
    if (s.exact) {
        const mem::MissClass want = staleBy ? mem::MissClass::TrueShare
                                            : mem::MissClass::Conservative;
        std::printf("    (reconstruction %s the scheme's %s "
                    "classification)\n",
                    o.cls == want ? "agrees with" : "DISAGREES with",
                    mem::missClassName(o.cls));
    }
}

int
cmdWhyMiss(const Source &s, const CliOptions &opt)
{
    ProcId p = 0;
    Addr addr = 0;
    if (opt.args.size() == 1 && opt.args[0] == "auto") {
        // Pick the first Time-Read miss the marking layer can answer
        // for: the scheme blames staleness or conservatism, not shape.
        bool found = false;
        for (const Outcome &o : s.recs) {
            if (o.op.write || o.hit ||
                o.op.mark != compiler::MarkKind::TimeRead)
                continue;
            if (o.cls != mem::MissClass::TrueShare &&
                o.cls != mem::MissClass::Conservative)
                continue;
            if (!opt.missClass.empty() &&
                opt.missClass != mem::missClassName(o.cls))
                continue;
            p = o.op.proc;
            addr = o.op.addr;
            found = true;
            break;
        }
        if (!found) {
            std::printf("why-miss auto: no attributable Time-Read miss "
                        "in %s\n", s.what.c_str());
            return verify::ExitDiagnostics;
        }
        std::printf("why-miss auto: picked proc %u, addr %#llx\n",
                    unsigned(p), ULL(addr));
    } else if (opt.args.size() == 2) {
        p = static_cast<ProcId>(parseNumber(opt.args[0], "proc"));
        addr = parseNumber(opt.args[1], "addr");
    } else {
        std::fprintf(stderr, "hscd_inspect: why-miss needs <proc> <addr> "
                             "or 'auto'\n");
        return verify::ExitUsage;
    }

    const Addr word = addr & ~Addr(3);
    std::vector<std::size_t> misses, trMisses;
    for (std::size_t i = 0; i < s.recs.size(); ++i) {
        const Outcome &o = s.recs[i];
        if (o.op.write || o.hit || o.op.proc != p ||
            (o.op.addr & ~Addr(3)) != word)
            continue;
        misses.push_back(i);
        if (o.op.mark == compiler::MarkKind::TimeRead)
            trMisses.push_back(i);
    }
    std::printf("why-miss: proc %u, word %#llx in %s\n", unsigned(p),
                ULL(word), s.what.c_str());
    if (trMisses.empty()) {
        std::printf("  no Time-Read misses at this word by this "
                    "processor (%d other misses).\n", int(misses.size()));
        return verify::ExitDiagnostics;
    }
    for (std::size_t k = 0; k < trMisses.size(); ++k)
        explainOne(s, trMisses[k], unsigned(k + 1),
                   unsigned(trMisses.size()));
    return verify::ExitSuccess;
}

int
cmdLine(const Source &s, const CliOptions &opt)
{
    if (opt.args.size() != 1) {
        std::fprintf(stderr, "hscd_inspect: line needs <addr>\n");
        return verify::ExitUsage;
    }
    const Addr addr = parseNumber(opt.args[0], "addr");
    const Addr lineMask = ~Addr(s.lineBytes - 1);
    const Addr base = addr & lineMask;

    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < s.recs.size(); ++i)
        if ((s.recs[i].op.addr & lineMask) == base)
            hits.push_back(i);
    std::printf("line %#llx (%u bytes) in %s: %d events\n", ULL(base),
                s.lineBytes, s.what.c_str(), int(hits.size()));
    if (hits.empty())
        return verify::ExitDiagnostics;

    std::printf("  %-7s %-10s %-5s %-12s %-22s %s\n", "epoch", "cycle",
                "proc", "addr", "op", "result");
    const std::size_t shown = std::min(hits.size(), opt.limit);
    for (std::size_t k = 0; k < shown; ++k) {
        const Outcome &o = s.recs[hits[k]];
        std::string opdesc = o.op.write
                                 ? std::string(o.op.critical
                                                   ? "W (critical)"
                                                   : "W")
                                 : csprintf("R %s", markName(o.op.mark));
        if (!o.op.write && o.op.mark == compiler::MarkKind::TimeRead)
            opdesc += csprintf(" d=%d", int(o.op.distance));
        std::string result;
        if (o.hit)
            result = "hit";
        else if (o.cls == mem::MissClass::None)
            result = csprintf("miss (stall %d)", int(o.stall));
        else
            result = csprintf("MISS %s (stall %d)",
                              mem::missClassName(o.cls), int(o.stall));
        std::printf("  %-7llu %-10llu %-5u %#-12llx %-22s %s\n",
                    ULL(o.epoch), ULL(o.op.now), unsigned(o.op.proc),
                    ULL(o.op.addr), opdesc.c_str(), result.c_str());
    }
    if (shown < hits.size())
        std::printf("  ... %d more events (raise --limit)\n",
                    int(hits.size() - shown));
    return verify::ExitSuccess;
}

void
outcomeTotals(const Source &s, EpochId only_epoch, bool filter)
{
    Counter reads = 0, writes = 0, misses = 0, timeReads = 0,
            timeReadHits = 0;
    std::map<mem::MissClass, Counter> byClass;
    for (const Outcome &o : s.recs) {
        if (filter && o.epoch != only_epoch)
            continue;
        if (o.op.write) {
            ++writes;
            continue;
        }
        ++reads;
        if (o.op.mark == compiler::MarkKind::TimeRead) {
            ++timeReads;
            if (o.hit)
                ++timeReadHits;
        }
        if (!o.hit) {
            ++misses;
            if (o.cls != mem::MissClass::None)
                ++byClass[o.cls];
        }
    }
    std::printf("  reads %llu (misses %llu, rate %.4f), writes %llu\n",
                ULL(reads), ULL(misses),
                reads ? double(misses) / double(reads) : 0.0, ULL(writes));
    if (timeReads)
        std::printf("  time-reads %llu, hits %llu (%.4f)\n",
                    ULL(timeReads), ULL(timeReadHits),
                    double(timeReadHits) / double(timeReads));
    for (const auto &kv : byClass)
        std::printf("    miss class %-12s %llu\n",
                    mem::missClassName(kv.first), ULL(kv.second));
}

// ---------------------------------------------------------------------
// Metrics-file commands.

std::vector<std::uint64_t>
sampleValues(const obs::MetricSample &s)
{
    return {
#define HSCD_METRIC_VALUE(name) s.name,
        HSCD_METRIC_U64_FIELDS(HSCD_METRIC_VALUE)
#undef HSCD_METRIC_VALUE
    };
}

const std::vector<std::string> &
sampleNames()
{
    static const std::vector<std::string> names = {
#define HSCD_METRIC_NAME(name) #name,
        HSCD_METRIC_U64_FIELDS(HSCD_METRIC_NAME)
#undef HSCD_METRIC_NAME
    };
    return names;
}

std::vector<obs::MetricSample>
loadMetrics(const std::string &path, std::string *spec)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "hscd_inspect: cannot read '%s'\n",
                     path.c_str());
        std::exit(verify::ExitInternal);
    }
    std::vector<obs::MetricSample> rows;
    if (!obs::readMetricsJson(is, rows, spec)) {
        std::fprintf(stderr, "hscd_inspect: '%s' is not a metrics series "
                             "(schema hscd-metrics)\n", path.c_str());
        std::exit(verify::ExitInternal);
    }
    return rows;
}

int
metricsEpoch(const std::string &path, EpochId n)
{
    std::string spec;
    const std::vector<obs::MetricSample> rows = loadMetrics(path, &spec);
    if (rows.empty()) {
        std::printf("metrics %s: no rows\n", path.c_str());
        return verify::ExitDiagnostics;
    }
    std::size_t at = rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].epoch == n) {
            at = i;
            break;
        }
    if (at == rows.size()) {
        std::printf("metrics %s: no sample at epoch %llu (retained "
                    "window: epoch %llu..%llu)\n", path.c_str(), ULL(n),
                    ULL(rows.front().epoch), ULL(rows.back().epoch));
        return verify::ExitDiagnostics;
    }
    const obs::MetricSample &cur = rows[at];
    const obs::MetricSample prev =
        at ? rows[at - 1] : obs::MetricSample{};
    std::printf("metrics %s (spec %s): epoch %llu vs previous sample "
                "(epoch %llu)\n", path.c_str(), spec.c_str(), ULL(n),
                at ? ULL(prev.epoch) : 0ull);
    const std::vector<std::uint64_t> c = sampleValues(cur);
    const std::vector<std::uint64_t> p = sampleValues(prev);
    const std::vector<std::string> &names = sampleNames();
    std::printf("  %-18s %14s %14s\n", "counter", "cumulative", "delta");
    for (std::size_t i = 0; i < names.size(); ++i) {
        // epoch/cycle are coordinates, not counters; print plainly.
        if (names[i] == "epoch" || names[i] == "cycle") {
            std::printf("  %-18s %14llu\n", names[i].c_str(), ULL(c[i]));
            continue;
        }
        std::printf("  %-18s %14llu %14lld\n", names[i].c_str(),
                    ULL(c[i]),
                    static_cast<long long>(c[i]) -
                        static_cast<long long>(p[i]));
    }
    std::printf("  %-18s %14.6f\n", "networkLoad", cur.networkLoad);
    return verify::ExitSuccess;
}

void
metricsSummary(const std::string &path)
{
    std::string spec;
    const std::vector<obs::MetricSample> rows = loadMetrics(path, &spec);
    std::printf("metrics %s: spec %s, %d samples\n", path.c_str(),
                spec.c_str(), int(rows.size()));
    if (rows.empty())
        return;
    const obs::MetricSample &last = rows.back();
    std::printf("  window: epoch %llu..%llu, cycle %llu..%llu\n",
                ULL(rows.front().epoch), ULL(last.epoch),
                ULL(rows.front().cycle), ULL(last.cycle));
    std::printf("  totals: reads %llu (misses %llu, rate %.4f), writes "
                "%llu\n", ULL(last.reads), ULL(last.readMisses),
                last.reads ? double(last.readMisses) / double(last.reads)
                           : 0.0, ULL(last.writes));
    std::printf("  misses: cold %llu, repl %llu, true-share %llu, "
                "false-share %llu, conservative %llu, tag-reset %llu, "
                "uncached %llu\n", ULL(last.missCold),
                ULL(last.missReplacement), ULL(last.missTrueShare),
                ULL(last.missFalseShare), ULL(last.missConservative),
                ULL(last.missTagReset), ULL(last.missUncached));
    std::printf("  time-reads %llu (hits %llu), traffic %llu packets / "
                "%llu words, tag resets %llu, faults %llu\n",
                ULL(last.timeReads), ULL(last.timeReadHits),
                ULL(last.trafficPackets), ULL(last.trafficWords),
                ULL(last.tagResets), ULL(last.faultsInjected));
}

void
perfettoSummary(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "hscd_inspect: cannot read '%s'\n",
                     path.c_str());
        std::exit(verify::ExitInternal);
    }
    obs::PerfettoCounts c;
    if (!obs::readPerfettoCounts(is, c)) {
        std::fprintf(stderr, "hscd_inspect: '%s' is not one of our "
                             "Perfetto timelines\n", path.c_str());
        std::exit(verify::ExitInternal);
    }
    std::printf("perfetto %s: %llu slices (epoch spans + miss services "
                "+ reset windows), %llu/%llu flow arrows, %llu instants, "
                "%llu track-metadata records\n", path.c_str(),
                ULL(c.slices), ULL(c.flowStarts), ULL(c.flowEnds),
                ULL(c.instants), ULL(c.metadata));
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    // Build the outcome stream when any command needs one.
    const bool wantOutcomes =
        !opt.workload.empty() || !opt.tracePath.empty();
    Source src;
    if (!opt.workload.empty())
        src = runWorkload(opt);
    else if (!opt.tracePath.empty())
        src = loadTrace(opt.tracePath);

    if (opt.command == "summary") {
        if (!opt.metricsPath.empty())
            metricsSummary(opt.metricsPath);
        if (!opt.perfettoPath.empty())
            perfettoSummary(opt.perfettoPath);
        if (wantOutcomes) {
            std::printf("%s: %d references, %llu epochs\n",
                        src.what.c_str(), int(src.recs.size()),
                        ULL(src.epochs));
            if (src.hasRun)
                std::printf("  %s\n", src.run.summary().c_str());
            outcomeTotals(src, 0, false);
        }
        return verify::ExitSuccess;
    }
    if (opt.command == "epoch") {
        if (opt.args.size() != 1) {
            std::fprintf(stderr, "hscd_inspect: epoch needs <n>\n");
            return verify::ExitUsage;
        }
        const EpochId n = parseNumber(opt.args[0], "epoch");
        if (!opt.metricsPath.empty())
            return metricsEpoch(opt.metricsPath, n);
        if (wantOutcomes) {
            std::printf("epoch %llu in %s:\n", ULL(n), src.what.c_str());
            outcomeTotals(src, n, true);
            return verify::ExitSuccess;
        }
        std::fprintf(stderr, "hscd_inspect: epoch needs --metrics, "
                             "--workload or --trace\n");
        return verify::ExitUsage;
    }
    if (opt.command == "line" || opt.command == "why-miss") {
        if (!wantOutcomes) {
            std::fprintf(stderr, "hscd_inspect: %s needs --workload or "
                                 "--trace\n", opt.command.c_str());
            return verify::ExitUsage;
        }
        return opt.command == "line" ? cmdLine(src, opt)
                                     : cmdWhyMiss(src, opt);
    }
    std::fprintf(stderr, "hscd_inspect: unknown command '%s'\n",
                 opt.command.c_str());
    usage(argv[0]);
    return verify::ExitUsage;
}
