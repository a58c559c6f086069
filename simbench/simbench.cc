/**
 * @file
 * simbench: the simulator's end-to-end benchmark.
 *
 * A workload is a list of cells (program x machine configuration). One
 * process runs it as a closed loop of back-to-back passes over every
 * cell; a pass starts when the previous one has finished. The cell order
 * inside each pass is a permutation drawn from --seed. Every cell is
 * checked: it must not throw or abort, must report no oracle, shadow or
 * DOALL violation, and its RunResult::fingerprint() must equal the value
 * pinned for its label in pins.txt. Any failure is counted and makes the
 * process exit 1.
 *
 * Untraced (--trace 0), the run reports refs_per_s, setup_s and
 * peak_rss_mb. Traced (--trace 1), it alternates traced and untraced
 * passes; traced passes record spans around the calls into each layer
 * (span.hh), and the per-layer metrics are derived from those spans.
 * The last line of stdout is one JSON object with the results; run.py
 * turns it into the benchmark's result line. README.md documents the
 * workloads and the metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "compiler/analysis.hh"
#include "harness.hh"
#include "obs/profile.hh"
#include "obs/provenance.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "span.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using simbench::SpanScope;
using simbench::Tracer;

namespace {

constexpr int kScale = 2;
constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;

const SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW,
                                  SchemeKind::VC};

struct Cell
{
    std::string label;
    std::string program;
    MachineConfig cfg;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /** Run the cells through bench::Sweep on the harness caches. */
    bool viaSweep = false;
};

Cell
makeCell(const std::string &program, SchemeKind scheme, unsigned procs,
         SchedPolicy sched)
{
    Cell c;
    c.program = program;
    c.cfg = bench::makeConfig(scheme);
    c.cfg.procs = procs;
    c.cfg.sched = sched;
    c.label = program + "/" + schemeName(scheme) + "/p" +
              std::to_string(procs) + "/" + schedName(sched);
    if (sched == SchedPolicy::Dynamic) {
        c.cfg.dynamicChunk = 4;
        c.label += std::to_string(c.cfg.dynamicChunk);
    }
    return c;
}

/** The six programs x five schemes at P=16 under @p sched. */
std::vector<Cell>
paperGrid(SchedPolicy sched)
{
    std::vector<Cell> cells;
    for (const std::string &p : workloads::benchmarkNames())
        for (SchemeKind k : kAllSchemes)
            cells.push_back(makeCell(p, k, 16, sched));
    return cells;
}

std::vector<Workload>
allWorkloads()
{
    std::vector<Workload> ws;
    ws.push_back({"paper-p16", paperGrid(SchedPolicy::Block), false});

    Workload procs{"procs-sweep", {}, false};
    for (const std::string &p : workloads::benchmarkNames())
        for (unsigned n : {4u, 16u, 64u})
            for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW})
                procs.cells.push_back(makeCell(p, k, n, SchedPolicy::Block));
    ws.push_back(std::move(procs));

    ws.push_back({"dynamic-sched", paperGrid(SchedPolicy::Dynamic), false});
    ws.push_back({"campaign-jobs", paperGrid(SchedPolicy::Block), true});
    return ws;
}

// --------------------------------------------------------------------------
// Running cells and passes

struct CellOutcome
{
    sim::RunResult result;
    std::string error;         ///< exception text ("" when the cell ran)
    bool streamed = false;     ///< Machine::run replayed a recorded stream
    std::uint64_t recordedOps = 0; ///< ops this cell's epochStream recorded
    double waitUs = 0;         ///< Sweep: submission -> cell start
};

struct PassResult
{
    std::vector<CellOutcome> outs; ///< indexed like Workload::cells
    double wallS = 0;
    Counter refs = 0;
    std::uint64_t streamBuilds = 0; ///< sim::streamCacheStats() delta
    std::uint64_t streamHits = 0;
    std::uint64_t compileHits = 0;  ///< bench::compiledCacheStats() delta
};

/** Stream record, Machine construction, run and teardown of one cell. */
void
simulateCell(const compiler::CompiledProgram &cp, const MachineConfig &cfg,
             Tracer *t, CellOutcome &out)
{
    const std::uint64_t builds = sim::streamCacheStats().builds;
    std::shared_ptr<const sim::StreamProgram> sp;
    {
        SpanScope s(t, "sim.stream");
        sp = sim::epochStream(cp, cfg);
    }
    out.streamed = sp != nullptr;
    if (sp && sim::streamCacheStats().builds != builds)
        out.recordedOps = sp->opCount();

    std::optional<sim::Machine> m;
    {
        SpanScope s(t, "sim.machine.construct");
        m.emplace(cp, cfg);
    }
    {
        SpanScope s(t, "sim.machine.run");
        out.result = m->run();
    }
    SpanScope s(t, "sim.machine.destroy");
    m.reset();
}

std::string
currentExceptionText()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return *e.what() ? e.what() : "exception";
    } catch (...) {
        return "non-standard exception";
    }
}

/**
 * One pass that builds and compiles every program afresh, as a one-shot
 * experiment process does, and simulates the cells serially.
 */
void
runFreshPass(const Workload &w, const std::vector<std::size_t> &order,
             Tracer *t, PassResult &res)
{
    SpanScope ps(t, "pass");
    std::map<std::string, std::unique_ptr<compiler::CompiledProgram>>
        programs;
    for (std::size_t i : order) {
        SpanScope cs(t, "cell", static_cast<std::int32_t>(i));
        const Cell &c = w.cells[i];
        try {
            auto &cp = programs[c.program];
            if (!cp) {
                std::optional<hir::Program> prog;
                {
                    SpanScope s(t, "workloads.build");
                    prog.emplace(workloads::buildBenchmark(c.program, kScale));
                }
                SpanScope s(t, "compiler.compile");
                cp = std::make_unique<compiler::CompiledProgram>(
                    compiler::compileProgram(std::move(*prog)));
            }
            simulateCell(*cp, c.cfg, t, res.outs[i]);
        } catch (...) {
            res.outs[i].error = currentExceptionText();
        }
    }
}

/**
 * One pass through bench::Sweep at @p jobs workers, on the harness's
 * compile cache and the programs' stream caches (warm after set-up).
 */
void
runSweepPass(const Workload &w, const std::vector<std::size_t> &order,
             unsigned jobs, std::uint32_t passNo, Tracer *t, PassResult &res)
{
    SpanScope ps(t, "pass");
    const std::uint32_t passSpan = ps.id();
    bench::SweepOptions opts;
    opts.jobs = jobs;
    bench::Sweep sweep(opts, "simbench");
    const double submittedMs = obs::nowMs();
    for (std::size_t i : order) {
        sweep.addCustom(w.cells[i].label, [&, i] {
            simbench::ThreadContext ctx(passSpan, passNo);
            SpanScope cs(t, "cell", static_cast<std::int32_t>(i));
            CellOutcome &out = res.outs[i];
            out.waitUs = (obs::nowMs() - submittedMs) * 1e3;
            const Cell &c = w.cells[i];
            const bench::CompiledProgramPtr cp =
                bench::compiledBenchmark(c.program, kScale);
            simulateCell(*cp, c.cfg, t, out);
            return out.result;
        });
    }
    sweep.run();
    for (std::size_t k = 0; k < order.size(); ++k)
        if (!sweep.error(k).empty())
            res.outs[order[k]].error = sweep.error(k);
}

/**
 * Pin the calling thread, and the Sweep workers it starts, to @p width
 * CPUs chosen round-robin by @p slot (a pass counter plus --cpu-offset).
 * On a shared host single CPUs run much slower than the others for
 * seconds at a time; rotating every pass over all CPUs the process may
 * use samples them evenly, so a run's figures do not depend on which CPU
 * the scheduler kept it on.
 */
void
pinPass(std::uint32_t slot, unsigned width)
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
        return v;
    }();
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned k = 0; k < std::min<std::size_t>(width, cpus.size()); ++k)
        CPU_SET(cpus[(slot + k) % cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

PassResult
runPass(const Workload &w, const std::vector<std::size_t> &order,
        unsigned jobs, std::uint32_t passNo, Tracer *t,
        std::uint32_t cpuSlot = 0)
{
    PassResult res;
    res.outs.resize(w.cells.size());
    const sim::StreamCacheStats s0 = sim::streamCacheStats();
    const std::uint64_t c0 = bench::compiledCacheStats().hits;
    simbench::setThreadPass(passNo);
    pinPass(cpuSlot, w.viaSweep ? jobs : 1);

    const double t0 = obs::nowMs();
    if (w.viaSweep)
        runSweepPass(w, order, jobs, passNo, t, res);
    else
        runFreshPass(w, order, t, res);
    res.wallS = (obs::nowMs() - t0) / 1e3;

    const sim::StreamCacheStats s1 = sim::streamCacheStats();
    res.streamBuilds = s1.builds - s0.builds;
    res.streamHits = s1.hits - s0.hits;
    res.compileHits = bench::compiledCacheStats().hits - c0;
    for (const CellOutcome &o : res.outs)
        res.refs += o.result.reads + o.result.writes;
    return res;
}

// --------------------------------------------------------------------------
// Output check

using Pins = std::map<std::string, std::uint64_t>;

Pins
loadPins(const std::string &path)
{
    Pins pins;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "simbench: cannot read pins file '%s'\n",
                     path.c_str());
        std::exit(kExitUsage);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string label, hex;
        if (!(ls >> label >> hex)) {
            std::fprintf(stderr, "simbench: malformed pin line '%s'\n",
                         line.c_str());
            std::exit(kExitUsage);
        }
        pins[label] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return pins;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Why @p o fails its check, or "" when it passes. */
std::string
cellFailure(const Cell &c, const CellOutcome &o, const Pins &pins)
{
    const sim::RunResult &r = o.result;
    if (!o.error.empty())
        return "error: " + o.error;
    if (r.aborted())
        return std::string("aborted (") +
               fault::abortKindName(r.abort.kind) + "): " + r.abort.reason;
    if (r.oracleViolations || r.shadowViolations || r.doallViolations)
        return std::to_string(r.oracleViolations) + " oracle / " +
               std::to_string(r.shadowViolations) + " shadow / " +
               std::to_string(r.doallViolations) + " DOALL violations";
    auto it = pins.find(c.label);
    if (it == pins.end())
        return "no pinned fingerprint";
    const std::uint64_t fp = r.fingerprint();
    if (fp != it->second)
        return "fingerprint " + hex64(fp) + " != pinned " +
               hex64(it->second);
    return "";
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> firstFailures;

    void
    check(const Workload &w, const PassResult &res, const Pins &pins)
    {
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            ++attempted;
            const std::string why = cellFailure(w.cells[i], res.outs[i], pins);
            if (why.empty())
                continue;
            ++failed;
            if (firstFailures.size() < 8)
                firstFailures.push_back(w.cells[i].label + ": " + why);
        }
    }
};

// --------------------------------------------------------------------------
// Metrics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The rate of the fastest pass. Every pass does the same work, and host
 * contention only ever slows a pass down, so the fastest pass is the
 * estimate of the simulator's own speed that moves least between runs.
 */
double
best(const std::vector<double> &rates)
{
    return rates.empty() ? 0 : *std::max_element(rates.begin(), rates.end());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

using Sample = std::map<std::string, double>;

/** Per-layer values of one traced pass, from its spans and its cells. */
Sample
layerSample(const Workload &w, const PassResult &res,
            const std::vector<simbench::Span> &spans)
{
    std::map<std::string, double> us; // summed duration by span name
    double constructs = 0;
    std::map<SchemeKind, double> runUs, refs;
    double interpUs = 0, interpRefs = 0;
    for (const simbench::Span &s : spans) {
        us[s.name] += s.durUs();
        if (std::strcmp(s.name, "sim.machine.construct") == 0)
            ++constructs;
        if (std::strcmp(s.name, "sim.machine.run") != 0 || s.cell < 0)
            continue;
        const Cell &c = w.cells[s.cell];
        const CellOutcome &o = res.outs[s.cell];
        const double n = double(o.result.reads + o.result.writes);
        runUs[c.cfg.scheme] += s.durUs();
        refs[c.cfg.scheme] += n;
        if (!o.streamed) {
            interpUs += s.durUs();
            interpRefs += n;
        }
    }

    Sample v;
    v["workloads.build_ms"] = us["workloads.build"] / 1e3;
    v["compiler.compile_ms"] = us["compiler.compile"] / 1e3;
    v["stream.record_ms"] = us["sim.stream"] / 1e3;
    v["stream.records"] = double(res.streamBuilds);
    double ops = 0;
    for (const CellOutcome &o : res.outs)
        ops += double(o.recordedOps);
    v["stream.ops"] = ops;
    v["stream.ns_per_op"] = ratio(us["sim.stream"] * 1e3, ops);
    v["machine.construct_ms"] = us["sim.machine.construct"] / 1e3;
    v["machine.constructs"] = constructs;
    v["machine.destroy_ms"] = us["sim.machine.destroy"] / 1e3;

    const double base = ratio(runUs[SchemeKind::Base] * 1e3,
                              refs[SchemeKind::Base]);
    for (SchemeKind k : kAllSchemes) {
        const double ns = ratio(runUs[k] * 1e3, refs[k]);
        v[std::string("exec.ns_per_ref.") + schemeName(k)] = ns;
        if (k != SchemeKind::Base)
            v[std::string("mem.scheme_ns_per_ref.") + schemeName(k)] =
                refs[k] > 0 && base > 0 ? ns - base : 0;
    }
    v["interp.ns_per_ref"] = ratio(interpUs * 1e3, interpRefs);

    const std::map<std::string, double> self =
        simbench::selfTimeByName(spans);
    double harness = 0;
    for (const char *n : {"pass", "cell"})
        if (auto it = self.find(n); it != self.end())
            harness += it->second;
    v["harness.self_ms"] = harness / 1e3;

    v["cache.compile_hits"] = double(res.compileHits);
    v["cache.stream_hits"] = double(res.streamHits);
    double wait = 0;
    for (const CellOutcome &o : res.outs)
        wait += o.waitUs;
    v["sweep.cells_per_s"] =
        w.viaSweep ? ratio(double(w.cells.size()), res.wallS) : 0;
    v["sweep.cell_wait_ms"] =
        w.viaSweep ? wait / 1e3 / double(w.cells.size()) : 0;

    for (const CellOutcome &o : res.outs) {
        const sim::RunResult &r = o.result;
        v["sim.refs"] += double(r.reads + r.writes);
        v["sim.cycles"] += double(r.cycles);
        v["mem.read_misses"] += double(r.readMisses);
        v["mem.time_reads"] += double(r.timeReads);
        v["mem.time_read_hits"] += double(r.timeReadHits);
        v["network.packets"] += double(r.trafficPackets);
        v["network.words"] += double(r.trafficWords);
    }
    return v;
}

struct Metric
{
    double value = 0;
    const char *unit = "";
};

const char *
unitOf(const std::string &name)
{
    static const std::map<std::string, const char *> units = {
        {"stream.records", "count"}, {"stream.ops", "count"},
        {"stream.ns_per_op", "ns/op"}, {"machine.constructs", "count"},
        {"interp.ns_per_ref", "ns/ref"}, {"sweep.cells_per_s", "1/s"},
        {"sweep.parallel_efficiency", "ratio"},
        {"trace.overhead_pct", "%"}, {"fail_ratio", "ratio"}};
    if (auto it = units.find(name); it != units.end())
        return it->second;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0)
        return "ms";
    if (name.find("ns_per_ref") != std::string::npos)
        return "ns/ref";
    return "count";
}

// --------------------------------------------------------------------------
// Command line and output

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string pinsPath = "simbench/pins.txt";
    std::string outDir;
    /** campaign-jobs workers: max(2, nproc/2). */
    unsigned jobs = std::max(2u, hardwareJobs() / 2);
    unsigned cpuOffset = 0;
    bool setupOnly = false;
    bool selfTest = false;
    bool printPins = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(
        stderr,
        "simbench: %s\n"
        "usage: simbench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1]\n"
        "                [--pins PATH] [--out-dir DIR] [--cpu-offset N] "
        "[--setup-only]\n"
        "       simbench --self-test | --print-pins [--pins PATH]\n"
        "workloads: paper-p16 procs-sweep dynamic-sched campaign-jobs\n",
        why);
    std::exit(kExitUsage);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value after " + a).c_str());
            return argv[++i];
        };
        auto number = [&](double lo, double hi) {
            const std::string s = value();
            char *end = nullptr;
            const double d = std::strtod(s.c_str(), &end);
            if (s.empty() || *end || !(d >= lo && d <= hi))
                usage(("bad value for " + a + ": '" + s + "'").c_str());
            return d;
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(number(0, 1e15));
        else if (a == "--seconds")
            o.seconds = number(0, 3600);
        else if (a == "--trace")
            o.trace = number(0, 1) != 0;
        else if (a == "--pins")
            o.pinsPath = value();
        else if (a == "--out-dir")
            o.outDir = value();
        else if (a == "--cpu-offset")
            o.cpuOffset = static_cast<unsigned>(number(0, 1e6));
        else if (a == "--setup-only")
            o.setupOnly = true;
        else if (a == "--self-test")
            o.selfTest = true;
        else if (a == "--print-pins")
            o.printPins = true;
        else
            usage(("unknown argument '" + a + "'").c_str());
    }
    return o;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
provenanceJson(const Options &o, const Workload &w)
{
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
#ifdef SIMBENCH_BUILD_TYPE
    const char *buildType = SIMBENCH_BUILD_TYPE;
#else
    const char *buildType = "unknown";
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::ostringstream os;
    os << "{\"tool\": \"simbench\", \"workload\": \"" << w.name
       << "\", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"seconds\": " << num(o.seconds)
       << ", \"jobs\": " << (w.viaSweep ? o.jobs : 1)
       << ", \"scale\": " << kScale << ", \"host\": \""
       << obs::jsonEscape(host) << "\", \"nproc\": " << hardwareJobs()
       << ", \"compiler\": \"" << obs::jsonEscape(__VERSION__)
       << "\", \"build_type\": \"" << buildType
       << "\", \"optimized\": " << (optimized ? "true" : "false") << "}";
    return os.str();
}

void
printResult(const Options &o, const Workload &w, const Tally &tally,
            const std::vector<double> &passRates,
            const std::map<std::string, Metric> &metrics,
            const std::map<std::string, double> &selfMs)
{
    std::ostringstream os;
    os << "{\"provenance\": " << provenanceJson(o, w)
       << ", \"correct\": " << (tally.failed ? "false" : "true")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"pass_refs_per_s\": [";
    const char *sep = "";
    for (double r : passRates) {
        os << sep << num(r);
        sep = ", ";
    }
    os << "], \"metrics\": {";
    sep = "";
    for (const auto &[name, m] : metrics) {
        os << sep << "\"" << name << "\": {\"value\": " << num(m.value)
           << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    os << "}, \"self_ms_per_pass\": {";
    sep = "";
    for (const auto &[name, ms] : selfMs) {
        os << sep << "\"" << name << "\": " << num(ms);
        sep = ", ";
    }
    os << "}, \"failures\": [";
    sep = "";
    for (const std::string &f : tally.firstFailures) {
        os << sep << "\"" << obs::jsonEscape(f) << "\"";
        sep = ", ";
    }
    os << "]}";
    std::cout << os.str() << std::endl;
}

/** A fresh seeded permutation of the cell indices for each pass. */
class Orderer
{
  public:
    Orderer(std::uint64_t seed, std::size_t n) : _rng(seed), _n(n) {}

    std::vector<std::size_t>
    next()
    {
        std::vector<std::size_t> v(_n);
        for (std::size_t i = 0; i < _n; ++i)
            v[i] = i;
        for (std::size_t i = _n; i > 1; --i)
            std::swap(v[i - 1],
                      v[_rng.below(static_cast<std::uint32_t>(i))]);
        return v;
    }

  private:
    Rng _rng;
    std::size_t _n;
};

const Workload &
findWorkload(const std::vector<Workload> &all, const std::string &name)
{
    for (const Workload &w : all)
        if (w.name == name)
            return w;
    usage(("unknown workload '" + name + "'").c_str());
}

/** --print-pins: one pass of every workload; labels must agree. */
int
printPins(const Options &o)
{
    Pins pins;
    for (const Workload &w : allWorkloads()) {
        std::vector<std::size_t> order(w.cells.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        const PassResult res = runPass(w, order, o.jobs, 0, nullptr);
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            const CellOutcome &out = res.outs[i];
            if (!out.error.empty() || out.result.aborted()) {
                std::fprintf(stderr, "simbench: %s failed: %s\n",
                             w.cells[i].label.c_str(), out.error.c_str());
                return kExitFailed;
            }
            const std::uint64_t fp = out.result.fingerprint();
            auto [it, fresh] = pins.emplace(w.cells[i].label, fp);
            if (!fresh && it->second != fp) {
                std::fprintf(stderr,
                             "simbench: %s differs between workloads\n",
                             w.cells[i].label.c_str());
                return kExitFailed;
            }
        }
    }
    std::cout << "# RunResult::fingerprint() of every simbench cell, by "
                 "label (scale 2, Figure-8 defaults).\n"
                 "# Regenerate with `python3 simbench/run.py --print-pins "
                 "> simbench/pins.txt`,\n"
                 "# and only for a change meant to alter simulated "
                 "results.\n";
    for (const auto &[label, fp] : pins)
        std::cout << label << " " << hex64(fp) << "\n";
    return 0;
}

/**
 * --self-test: one pass of every workload through the output check, then
 * the same check against a deliberately wrong pin, which must fail.
 */
int
selfTest(const Options &o, const Pins &pins)
{
    bool ok = true;
    for (const Workload &w : allWorkloads()) {
        Orderer ord(o.seed, w.cells.size());
        const PassResult res = runPass(w, ord.next(), o.jobs, 0, nullptr);
        Tally tally;
        tally.check(w, res, pins);
        std::fprintf(stderr, "self-test %-14s %3llu cells, %llu failed\n",
                     w.name.c_str(),
                     static_cast<unsigned long long>(tally.attempted),
                     static_cast<unsigned long long>(tally.failed));
        for (const std::string &f : tally.firstFailures)
            std::fprintf(stderr, "  %s\n", f.c_str());
        ok = ok && tally.failed == 0;

        Pins wrong = pins;
        wrong[w.cells.front().label] ^= 1;
        Tally mutated;
        mutated.check(w, res, wrong);
        if (mutated.failed != tally.failed + 1) {
            std::fprintf(stderr, "self-test: a wrong pin for %s went "
                                 "undetected\n",
                         w.cells.front().label.c_str());
            ok = false;
        }
    }
    std::fprintf(stderr, "self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : kExitFailed;
}

} // namespace

int
main(int argc, char **argv)
{
    const double startMs = obs::nowMs();
    const Options o = parseOptions(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "simbench: warning: this build is not optimised; "
                         "its timings do not represent the simulator\n");
#endif
    if (o.printPins)
        return printPins(o);
    const Pins pins = loadPins(o.pinsPath);
    if (o.selfTest)
        return selfTest(o, pins);
    if (o.workload.empty())
        usage("--workload is required");

    const std::vector<Workload> all = allWorkloads();
    const Workload &w = findWorkload(all, o.workload);
    Orderer ord(o.seed, w.cells.size());
    Tally tally;

    // Set-up: one untimed cold pass (first compile, stream record,
    // allocator growth, thread-pool start), checked like any other.
    std::uint32_t passNo = 0;
    tally.check(
        w, runPass(w, ord.next(), o.jobs, passNo++, nullptr, o.cpuOffset),
        pins);
    const double setupS = (obs::nowMs() - startMs) / 1e3;

    std::map<std::string, Metric> metrics;
    std::map<std::string, double> selfMs;
    std::vector<double> rates; // Mref/s of each timed (or traced) pass
    if (o.setupOnly) {
        metrics["setup_s"] = {setupS, "s"};
    } else if (!o.trace) {
        const double t0 = obs::nowMs();
        while (rates.size() < 3 || obs::nowMs() - t0 < o.seconds * 1e3) {
            const PassResult res = runPass(w, ord.next(), o.jobs, passNo,
                                          nullptr, passNo + o.cpuOffset);
            ++passNo;
            tally.check(w, res, pins);
            rates.push_back(double(res.refs) / res.wallS / 1e6);
        }
        metrics["refs_per_s"] = {best(rates), "Mref/s"};
        metrics["setup_s"] = {setupS, "s"};
        metrics["peak_rss_mb"] = {double(obs::currentRssPeakKb()) / 1024.0,
                                  "MB"};
    } else {
        // Traced run: untraced and traced passes alternate so both see
        // the same machine state; the sweep workload adds a traced
        // single-job pass for the parallel-efficiency baseline. Each
        // round starts one CPU further on, so every kind of pass visits
        // every CPU (with the pass number as slot, two kinds on four CPUs
        // would each keep to two of them).
        Tracer tracer;
        std::uint32_t round = 0;
        std::vector<double> plainRates, cellsN, cells1;
        std::vector<Sample> samples;
        std::map<std::string, double> selfTotal;
        std::size_t seen = 0; // spans of earlier passes
        const double t0 = obs::nowMs();
        for (; samples.empty() || obs::nowMs() - t0 < o.seconds * 1e3;
             ++round) {
            for (std::uint32_t step = 0; step < (w.viaSweep ? 3u : 2u);
                 ++step) {
                const bool traced = step > 0;
                const unsigned jobs = step == 2 ? 1 : o.jobs;
                const PassResult res =
                    runPass(w, ord.next(), jobs, passNo++,
                            traced ? &tracer : nullptr,
                            o.cpuOffset + round + step);
                tally.check(w, res, pins);
                const double rate = double(res.refs) / res.wallS / 1e6;
                const double cps = double(w.cells.size()) / res.wallS;
                if (!traced) {
                    plainRates.push_back(rate);
                    continue;
                }
                const std::vector<simbench::Span> spans = tracer.spans();
                const std::vector<simbench::Span> mine(
                    spans.begin() + static_cast<std::ptrdiff_t>(seen),
                    spans.end());
                seen = spans.size();
                if (step == 2) {
                    cells1.push_back(cps);
                    continue;
                }
                rates.push_back(rate);
                cellsN.push_back(cps);
                samples.push_back(layerSample(w, res, mine));
                for (const auto &[n, us] : simbench::selfTimeByName(mine))
                    selfTotal[n] += us;
            }
        }
        std::map<std::string, std::vector<double>> byName;
        for (const Sample &s : samples)
            for (const auto &[n, v] : s)
                byName[n].push_back(v);
        for (const auto &[n, vals] : byName)
            metrics[n] = {median(vals), unitOf(n)};
        for (const auto &[n, us] : selfTotal)
            selfMs[n] = us / 1e3 / double(samples.size());

        metrics["sweep.parallel_efficiency"] = {
            w.viaSweep ? ratio(median(cellsN),
                               double(o.jobs) * median(cells1))
                       : 0,
            unitOf("sweep.parallel_efficiency")};
        metrics["trace.overhead_pct"] = {
            100.0 * (1.0 - ratio(best(rates), best(plainRates))),
            unitOf("trace.overhead_pct")};
        metrics["fail_ratio"] = {
            ratio(double(tally.failed), double(tally.attempted)),
            unitOf("fail_ratio")};

        if (!o.outDir.empty()) {
            const std::string path = o.outDir + "/trace-" + w.name +
                                     "-seed" + std::to_string(o.seed) +
                                     ".json";
            if (!tracer.writeChromeJson(path, provenanceJson(o, w)))
                std::fprintf(stderr, "simbench: cannot write %s\n",
                             path.c_str());
        }
    }

    printResult(o, w, tally, rates, metrics, selfMs);
    return tally.failed ? kExitFailed : 0;
}
