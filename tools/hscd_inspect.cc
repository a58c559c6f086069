/**
 * @file
 * hscd_inspect: query observability artifacts and instrumented runs.
 *
 * Answers "what happened?" questions about a simulation from three
 * sources: a metrics time-series JSON (`--metrics FILE`, written by the
 * bench `--metrics/--metrics-out` flags), a Perfetto timeline
 * (`--perfetto FILE`, written by `--trace-out`), or an in-process run
 * of a workload (`--workload NAME`; `--workload trace:FILE` replays a
 * trace file through the `--scheme` scheme). A run collects the
 * scheme's own verdicts and TagEvents through a TraceSink.
 *
 *   hscd_inspect --metrics metrics.json summary
 *   hscd_inspect --metrics metrics.json epoch 12
 *   hscd_inspect --workload ocean line 0x1a40
 *   hscd_inspect --workload ocean why-miss 3 0x1a40
 *   hscd_inspect --workload ocean why-miss auto
 *
 * `why-miss` is the flagship query: for a Time-Read miss it reads the
 * copy's timetag, validity and provenance from the last TagEvent TPI
 * emitted for that (processor, word) before the compare, and explains
 * the scheme's own miss class: TRUE-SHARE names the foreign write that
 * made the copy stale, CONSERVATIVE the marking distance that would have
 * hit, and an invalid tag the reset, flush, fault or epoch-0 fill that
 * cleared it. Schemes without timetags get their class and nothing more.
 *
 * Exit codes per the verify::ExitCode contract: 0 success, 1 the query
 * matched nothing, 2 usage error, 5 unreadable input.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
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
    std::string workload;
    SchemeKind scheme = SchemeKind::TPI;
    int scale = 1;
    unsigned procs = 0; ///< 0 keeps the Figure 8 default
    std::size_t limit = 64;
    std::string missClass; ///< why-miss auto: restrict to this class
    std::string command;
    std::vector<std::string> args;
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    std::string names;
    for (const std::string &n : workloads::benchmarkNames())
        names += (names.empty() ? "" : "|") + n;
    const std::string trueShare =
        mem::missClassName(mem::MissClass::TrueShare);
    const std::string conservative =
        mem::missClassName(mem::MissClass::Conservative);
    Params p;
    p.define("metrics", "", "metrics series JSON (bench --metrics)")
        .define("perfetto", "", "Perfetto timeline JSON (bench --trace-out)")
        .define("workload", "",
                "run this workload in-process\n(" + names +
                    "|trace:FILE)")
        .define("scheme", "tpi",
                "scheme of a --workload run:\nbase|sc|tpi|hw|vc")
        .define("scale", std::to_string(opt.scale),
                "workload problem scale")
        .define("procs", std::to_string(opt.procs),
                "workload processor count; 0 keeps Figure 8's")
        .define("limit", std::to_string(opt.limit),
                "max events listed by `line`")
        .define("class", "",
                "why-miss auto: pick a miss of this class\n(" + trueShare +
                    " or " + conservative + ")")
        .defineFlag("help", "this text")
        .alias("-h", "help");
    const std::vector<std::string> args = p.parseCommandLine(argc, argv);
    if (p.getBool("help")) {
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
            "Sources (at least one): --metrics, --perfetto, --workload.\n"
            "\n"
            "Options:\n%s",
            argv[0], p.help().c_str());
        std::exit(verify::ExitSuccess);
    }
    opt.metricsPath = p.getString("metrics");
    opt.perfettoPath = p.getString("perfetto");
    opt.workload = p.getString("workload");
    opt.scheme = parseScheme(p.getString("scheme"));
    opt.scale = int(p.getUint("scale", 1, std::numeric_limits<int>::max()));
    opt.procs = unsigned(
        p.getUint("procs", 0, std::numeric_limits<unsigned>::max()));
    opt.limit = p.getUint("limit");
    opt.missClass = p.getString("class");
    if (!opt.missClass.empty() && opt.missClass != trueShare &&
        opt.missClass != conservative)
        fatal("--class must be %s or %s (the classes why-miss auto "
              "picks), got '%s'", trueShare, conservative, opt.missClass);
    if (args.empty())
        fatal("no command given (see --help)");
    opt.command = args.front();
    opt.args.assign(args.begin() + 1, args.end());
    if (opt.metricsPath.empty() && opt.perfettoPath.empty() &&
        opt.workload.empty())
        fatal("no source given (--metrics, --perfetto or --workload)");
    return opt;
}

// ---------------------------------------------------------------------
// Outcome stream: one record per memory reference with its verdict, and
// the scheme's TagEvents in emission order.

struct Outcome
{
    mem::MemOp op;
    bool hit = false;
    Cycles stall = 0;
    mem::MissClass cls = mem::MissClass::None;
    EpochId epoch = 0;
    std::size_t tagBegin = 0; ///< first of this access's TagEvents
};

struct Tag
{
    mem::TagEvent ev;
    std::size_t rec = 0; ///< the access it belongs to or precedes
};

struct Source
{
    std::vector<Outcome> recs;
    std::vector<Tag> tags;
    EpochId epochs = 0;      ///< last epoch id seen
    unsigned lineBytes = 16;
    SchemeKind scheme = SchemeKind::TPI;
    sim::RunResult run;
    std::string what;        ///< banner: where the outcomes came from
};

/** Record the scheme verdict and TagEvents of every reference. */
class OutcomeLog : public sim::TraceSink
{
  public:
    explicit OutcomeLog(Source &src) : _src(src) {}

    void
    onAccess(const mem::MemOp &) override
    {
        _tagBegin = _src.tags.size();
    }

    void
    onBoundary(EpochId epoch) override
    {
        if (epoch > _src.epochs)
            _src.epochs = epoch;
    }

    void
    onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
              EpochId epoch) override
    {
        _src.recs.push_back(
            {op, res.hit, res.stall, res.cls, epoch, _tagBegin});
    }

    void
    onTag(const mem::TagEvent &ev) override
    {
        _src.tags.push_back({ev, _src.recs.size()});
    }

  private:
    Source &_src;
    std::size_t _tagBegin = 0;
};

/**
 * Run the outcome stream's source on a Machine under --scheme: the
 * --workload benchmark, compiled, or a --workload trace:<file> spec
 * through workloads::runTrace. A config the machine rejects or
 * malformed input exits 2.
 */
Source
runSource(const CliOptions &opt)
{
    Source src;
    OutcomeLog log(src);
    MachineConfig cfg;
    cfg.scheme = opt.scheme;
    if (workloads::isTraceSpec(opt.workload)) {
        const workloads::TraceWorkload t =
            workloads::loadTraceSpec(opt.workload);
        cfg.procs = std::max(opt.procs, t.procs);
        src.run = workloads::runTrace(t, cfg, &log);
        src.what = csprintf("trace %s (scheme %s, %d procs)",
                            t.source, schemeName(cfg.scheme),
                            cfg.procs);
    } else {
        compiler::AnalysisOptions aopts;
        aopts.assumeSerialAffinity = true;
        const compiler::CompiledProgram cp = compiler::compileProgram(
            workloads::buildBenchmark(opt.workload, opt.scale), aopts);
        if (opt.procs)
            cfg.procs = opt.procs;
        sim::Machine m(cp, cfg);
        m.setTraceSink(&log);
        src.run = m.run();
        src.what = csprintf("workload %s (scheme %s, scale %d)",
                            opt.workload, schemeName(cfg.scheme),
                            opt.scale);
    }
    src.lineBytes = cfg.lineBytes;
    src.scheme = cfg.scheme;
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
// Commands over the outcome stream.

/**
 * The last TagEvent for access @p idx's (processor, word) before its
 * Time-Read compare: every event before the access, plus the FaultFlip
 * that may open the access's own events. Null if there is none.
 */
const Tag *
copyBeforeCompare(const Source &s, std::size_t idx)
{
    const Outcome &o = s.recs[idx];
    const Addr word = o.op.addr & ~Addr(3);
    std::size_t end = o.tagBegin;
    while (end < s.tags.size() && s.tags[end].rec == idx &&
           s.tags[end].ev.cause == mem::TagCause::FaultFlip)
        ++end;
    for (std::size_t k = end; k-- > 0;) {
        const mem::TagEvent &ev = s.tags[k].ev;
        if (ev.proc == o.op.proc && ev.word == word)
            return &s.tags[k];
    }
    return nullptr;
}

/** The first write to access @p idx's word by another processor after
 *  @p tag and before the access; null if there is none. */
const Outcome *
foreignWriteAfter(const Source &s, const Tag &tag, std::size_t idx)
{
    const Outcome &o = s.recs[idx];
    const Addr word = o.op.addr & ~Addr(3);
    for (std::size_t i = tag.rec; i < idx; ++i) {
        const Outcome &w = s.recs[i];
        if (w.op.write && w.op.proc != o.op.proc &&
            (w.op.addr & ~Addr(3)) == word)
            return &w;
    }
    return nullptr;
}

void
explainOne(const Source &s, std::size_t idx, unsigned seq, unsigned total)
{
    const Outcome &o = s.recs[idx];
    std::printf("  miss %u/%u: epoch %llu, cycle %llu, time-read d=%u, "
                "scheme class: %s\n",
                seq, total, ULL(o.epoch), ULL(o.op.now), o.op.distance,
                mem::missClassName(o.cls));

    if (s.scheme != SchemeKind::TPI) {
        std::printf("    scheme %s keeps no timetags, so no tag "
                    "explains this class.\n", schemeName(s.scheme));
        return;
    }
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

    const Tag *tag = copyBeforeCompare(s, idx);
    if (!tag) {
        std::printf("    no timetag event for this word before the "
                    "miss.\n");
        return;
    }
    const mem::TagEvent &ev = tag->ev;
    std::printf("    copy: timetag %llu, %s (%s in epoch %llu)\n",
                ULL(ev.tt), ev.valid ? "valid" : "invalid",
                mem::tagCauseName(ev.cause), ULL(ev.epoch));

    switch (o.cls) {
      case mem::MissClass::TrueShare:
        if (const Outcome *w = foreignWriteAfter(s, *tag, idx))
            std::printf("    foreign write after it: epoch %llu by proc "
                        "%u - the copy really was stale.\n",
                        ULL(w->epoch), unsigned(w->op.proc));
        std::printf("    verdict: TRUE-SHARE - no marking distance could "
                    "have kept this copy.\n");
        return;
      case mem::MissClass::Conservative:
        std::printf("    verdict: CONSERVATIVE - the data was still "
                    "fresh; a marking distance d >= %llu (epoch - "
                    "timetag) would have hit.\n",
                    ULL(o.epoch - ev.tt));
        return;
      case mem::MissClass::TagReset:
        switch (ev.cause) {
          case mem::TagCause::PhaseReset:
            std::printf("    verdict: TAG-RESET - the copy was "
                        "invalidated by timetag wraparound (two-phase "
                        "reset), not by the marking distance.\n");
            return;
          case mem::TagCause::Flushed:
            std::printf("    verdict: FLUSHED - the whole cache was "
                        "flash-invalidated; no distance could hit.\n");
            return;
          case mem::TagCause::FaultFlip:
            std::printf("    verdict: FAULT-FLIP - an injected bit flip "
                        "was the last change to the word's tag.\n");
            return;
          default:
            std::printf("    verdict: INVALID TAG - the %s never vouched "
                        "for the word; no distance could hit.\n",
                        mem::tagCauseName(ev.cause));
            return;
        }
      default:
        return;
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
        p = static_cast<ProcId>(Params::parseUint(
            "proc", opt.args[0], 0, std::numeric_limits<ProcId>::max()));
        addr = Params::parseUint("addr", opt.args[1]);
    } else {
        fatal("why-miss needs <proc> <addr> or 'auto'");
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
    if (opt.args.size() != 1)
        fatal("line needs <addr>");
    const Addr addr = Params::parseUint("addr", opt.args[0]);
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
    if (!is)
        fatal("cannot read '%s'", path);
    std::vector<obs::MetricSample> rows;
    if (!obs::readMetricsJson(is, rows, spec))
        fatal("'%s' is not a metrics series (schema hscd-metrics)", path);
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
    if (!is)
        fatal("cannot read '%s'", path);
    obs::PerfettoCounts c;
    if (!obs::readPerfettoCounts(is, c))
        fatal("'%s' is not one of our Perfetto timelines", path);
    std::printf("perfetto %s: %llu slices (epoch spans + miss services "
                "+ reset windows), %llu/%llu flow arrows, %llu instants, "
                "%llu track-metadata records\n", path.c_str(),
                ULL(c.slices), ULL(c.flowStarts), ULL(c.flowEnds),
                ULL(c.instants), ULL(c.metadata));
}

} // namespace

int
main(int argc, char **argv)
try {
    const CliOptions opt = parseArgs(argc, argv);

    // Build the outcome stream when any command needs one.
    const bool wantOutcomes = !opt.workload.empty();
    const Source src = wantOutcomes ? runSource(opt) : Source{};

    if (opt.command == "summary") {
        if (!opt.metricsPath.empty())
            metricsSummary(opt.metricsPath);
        if (!opt.perfettoPath.empty())
            perfettoSummary(opt.perfettoPath);
        if (wantOutcomes) {
            std::printf("%s: %d references, %llu epochs\n",
                        src.what.c_str(), int(src.recs.size()),
                        ULL(src.epochs));
            std::printf("  %s\n", src.run.summary().c_str());
            outcomeTotals(src, 0, false);
        }
        return verify::ExitSuccess;
    }
    if (opt.command == "epoch") {
        if (opt.args.size() != 1)
            fatal("epoch needs <n>");
        const EpochId n = Params::parseUint("epoch", opt.args[0]);
        if (!opt.metricsPath.empty())
            return metricsEpoch(opt.metricsPath, n);
        if (wantOutcomes) {
            std::printf("epoch %llu in %s:\n", ULL(n), src.what.c_str());
            outcomeTotals(src, n, true);
            return verify::ExitSuccess;
        }
        fatal("epoch needs --metrics or --workload");
    }
    if (opt.command == "line" || opt.command == "why-miss") {
        if (!wantOutcomes)
            fatal("%s needs --workload", opt.command);
        return opt.command == "line" ? cmdLine(src, opt)
                                     : cmdWhyMiss(src, opt);
    }
    fatal("unknown command '%s' (see --help)", opt.command);
} catch (const FatalError &) {
    // fatal() has already printed the message.
    return verify::ExitUsage;
}
