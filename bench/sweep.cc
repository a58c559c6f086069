#include "sweep.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include <csignal>

#include "campaign/journal.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/strutil.hh"
#include "verify/diagnostic.hh"

namespace hscd {
namespace bench {

namespace {

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::cerr
        << "usage: " << argv0
        << " [--jobs N] [--json PATH] [--fault SPEC] [--timeout-ms N]\n"
        << "       [--deadline-ms N] [--checkpoint PATH] [--resume]\n"
        << "       [--trace-out PATH] [--metrics SPEC] [--metrics-out "
           "PATH]\n"
        << "       [--cell SUBSTR]\n"
        << "  --jobs N, -j N  run sweep cells on N threads (default: all\n"
        << "                  hardware threads; 1 = serial). The output\n"
        << "                  is identical at any N, modulo the trailing\n"
        << "                  wall-clock line.\n"
        << "  --json PATH     also write machine-readable results JSON\n"
        << "  --fault SPEC    inject faults into every cell; SPEC is\n"
        << "                  RATE[:SEED[:SITES]] (see fault/plan.hh).\n"
        << "                  Each cell derives its own seed from the\n"
        << "                  campaign seed and the cell index.\n"
        << "  --timeout-ms N  abandon any cell still running after N ms\n"
        << "                  (recorded as a structured per-cell error)\n"
        << "  --deadline-ms N whole-campaign wall-clock budget: cells\n"
        << "                  not started when it expires are skipped,\n"
        << "                  completed cells stay checkpointed, and the\n"
        << "                  sweep exits with the structured-abort code\n"
        << "                  (" << int(verify::ExitAbort)
        << ") instead of running over\n"
        << "  --checkpoint P  journal each completed cell to P so an\n"
        << "                  interrupted sweep can be restarted\n"
        << "  --resume        skip cells already journaled in the\n"
        << "                  --checkpoint file; the final output is\n"
        << "                  byte-identical to an uninterrupted run\n"
        << "  --trace-out P   write a Chrome/Perfetto trace_event JSON\n"
        << "                  timeline of the observed cell to P (open\n"
        << "                  in ui.perfetto.dev or chrome://tracing)\n"
        << "  --metrics SPEC  sample counter snapshots of the observed\n"
        << "                  cell; SPEC is epoch[:K] or cycles:N, with\n"
        << "                  an optional :cap=M ring bound\n"
        << "  --metrics-out P write the metrics series to P (default\n"
        << "                  metrics.json)\n"
        << "  --cell SUBSTR   observe the first cell whose label\n"
        << "                  contains SUBSTR (default: the first cell)\n"
        << "  --help, -h      this text\n";
    std::exit(code);
}

using obs::jsonEscape;

// The checkpoint is a campaign::CellJournal under the sweep's magic.
constexpr const char *kJournalMagic = "hscd-sweep-journal v2";

// SIGTERM/SIGINT -> verify::ExitCode contract for the sweep CLIs: the
// first signal requests a graceful stop (in-flight cells finish and are
// journaled, remaining cells are skipped, the process exits
// verify::ExitAbort = "interrupted with checkpoint"); a second signal
// aborts immediately with the same code (async-signal-safe _exit).
volatile std::sig_atomic_t g_sweepInterrupted = 0;

extern "C" void
sweepSignalHandler(int)
{
    if (g_sweepInterrupted)
        std::_Exit(verify::ExitAbort);
    g_sweepInterrupted = 1;
}

} // namespace

SweepOptions
SweepOptions::parse(int argc, char **argv)
{
    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << argv[0] << ": " << flag
                          << " requires an argument\n";
                usage(argv[0], verify::ExitUsage);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], verify::ExitSuccess);
        } else if (arg == "--jobs" || arg == "-j") {
            const std::string v = value("--jobs");
            char *end = nullptr;
            unsigned long n = std::strtoul(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0') {
                std::cerr << argv[0] << ": bad --jobs value '" << v
                          << "'\n";
                usage(argv[0], verify::ExitUsage);
            }
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--json") {
            opts.jsonPath = value("--json");
        } else if (arg == "--fault") {
            const std::string v = value("--fault");
            try {
                opts.fault = fault::FaultPlan::parse(v);
            } catch (const FatalError &) {
                usage(argv[0], verify::ExitUsage);
            }
        } else if (arg == "--timeout-ms") {
            const std::string v = value("--timeout-ms");
            char *end = nullptr;
            double ms = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || ms < 0) {
                std::cerr << argv[0] << ": bad --timeout-ms value '" << v
                          << "'\n";
                usage(argv[0], verify::ExitUsage);
            }
            opts.timeoutMs = ms;
        } else if (arg == "--deadline-ms") {
            const std::string v = value("--deadline-ms");
            char *end = nullptr;
            double ms = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || ms < 0) {
                std::cerr << argv[0] << ": bad --deadline-ms value '"
                          << v << "'\n";
                usage(argv[0], verify::ExitUsage);
            }
            opts.deadlineMs = ms;
        } else if (arg == "--checkpoint") {
            opts.checkpointPath = value("--checkpoint");
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--trace-out") {
            opts.traceOut = value("--trace-out");
        } else if (arg == "--metrics") {
            opts.metricsSpec = value("--metrics");
            try {
                obs::MetricsSpec::parse(opts.metricsSpec);
            } catch (const FatalError &) {
                usage(argv[0], verify::ExitUsage);
            }
        } else if (arg == "--metrics-out") {
            opts.metricsOut = value("--metrics-out");
        } else if (arg == "--cell") {
            opts.observeCell = value("--cell");
        } else {
            std::cerr << argv[0] << ": unknown argument '" << arg
                      << "'\n";
            usage(argv[0], verify::ExitUsage);
        }
    }
    if (opts.resume && opts.checkpointPath.empty()) {
        std::cerr << argv[0] << ": --resume requires --checkpoint\n";
        usage(argv[0], verify::ExitUsage);
    }
    // Every sweep CLI funnels through here, so this is where the
    // SIGTERM/SIGINT -> ExitAbort contract is installed.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sweepSignalHandler;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    return opts;
}

Sweep::Sweep(SweepOptions opts, std::string experiment)
    : _opts(std::move(opts)), _experiment(std::move(experiment))
{
}

std::size_t
Sweep::add(const std::string &benchmark, const MachineConfig &cfg,
           int scale, bool affinity)
{
    return add(benchmark + "/" + schemeName(cfg.scheme), benchmark, cfg,
               scale, affinity);
}

std::size_t
Sweep::add(std::string label, const std::string &benchmark,
           const MachineConfig &cfg, int scale, bool affinity)
{
    hscd_assert(!_ran, "Sweep::add() after run()");
    Cell c;
    c.label = std::move(label);
    c.benchmark = benchmark;
    c.scheme = schemeName(cfg.scheme);
    c.scale = scale;
    c.affinity = affinity;
    MachineConfig cell_cfg = cfg;
    if (_opts.fault.enabled())
        cell_cfg.fault = fault::planForCell(_opts.fault, _cells.size());
    c.cfg = cell_cfg;
    c.hasCfg = true;
    c.runCell = [benchmark, cell_cfg, scale, affinity] {
        return runBenchmark(benchmark, cell_cfg, scale, affinity);
    };
    _cells.push_back(std::move(c));
    return _cells.size() - 1;
}

std::size_t
Sweep::addCustom(std::string label, std::function<sim::RunResult()> runCell)
{
    hscd_assert(!_ran, "Sweep::add() after run()");
    Cell c;
    c.label = std::move(label);
    c.runCell = std::move(runCell);
    _cells.push_back(std::move(c));
    return _cells.size() - 1;
}

std::uint64_t
Sweep::journalIdentity() const
{
    // FNV-1a over everything that determines what the cells compute, so
    // a journal from a different sweep (or the same sweep with a
    // different fault axis) is rejected instead of silently reused.
    // Deliberately excludes jobs/timeout/json path: those may change
    // between the interrupted run and the resume.
    std::string key;
    auto mix = [&](const std::string &s) {
        key += s;
        key += '\xff'; // separator
    };
    auto mixU = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            key += static_cast<char>(v >> (8 * i));
    };
    mix(_experiment);
    mixU(_cells.size());
    for (const Cell &c : _cells) {
        mix(c.label);
        mix(c.benchmark);
        mix(c.scheme);
        mixU(static_cast<std::uint64_t>(c.scale));
        mixU(c.affinity ? 1 : 0);
    }
    mix(_opts.fault.str());
    return obs::fnv1a(key);
}

Sweep::Outcome
Sweep::runGuarded(std::size_t i) const
{
    if (_opts.timeoutMs <= 0)
        return {campaign::guardedCall(_cells[i].runCell)};

    // Per-cell isolation: run the cell on its own thread and abandon it
    // when the budget expires. The abandoned thread is detached - it
    // keeps only the task's shared state alive and its eventual result
    // is discarded. (C++ offers no portable preemptive cancellation; the
    // simulator-side watchdog bounds how long the orphan can spin.)
    std::packaged_task<campaign::CellOutcome()> task(
        [fn = _cells[i].runCell] { return campaign::guardedCall(fn); });
    std::future<campaign::CellOutcome> outcome = task.get_future();
    std::thread worker(std::move(task));
    if (outcome.wait_for(std::chrono::duration<double, std::milli>(
            _opts.timeoutMs)) == std::future_status::ready) {
        worker.join();
        return {outcome.get()};
    }
    worker.detach();
    Outcome o;
    o.error = csprintf("timeout: cell still running after %.0f ms",
                       _opts.timeoutMs);
    return o;
}

void
Sweep::setupObservers()
{
    if (_opts.traceOut.empty() && _opts.metricsSpec.empty())
        return;

    // Pick the observed cell: first label containing --cell, else 0.
    std::size_t idx = 0;
    if (!_opts.observeCell.empty()) {
        idx = _cells.size();
        for (std::size_t i = 0; i < _cells.size(); ++i) {
            if (_cells[i].label.find(_opts.observeCell) !=
                std::string::npos) {
                idx = i;
                break;
            }
        }
        if (idx == _cells.size())
            fatal("--cell '%s' matches no cell label",
                  _opts.observeCell);
    }
    if (_cells.empty())
        return;
    if (!_cells[idx].hasCfg) {
        warn("cell '%s' is a custom cell; --trace-out/--metrics ignored",
             _cells[idx].label);
        return;
    }

    if (!_opts.traceOut.empty())
        _timeline = std::make_unique<obs::Timeline>();
    if (!_opts.metricsSpec.empty())
        _metrics = std::make_unique<obs::MetricsRecorder>(
            obs::MetricsSpec::parse(_opts.metricsSpec));
    _obsIndex = idx;

    const Cell &c = _cells[idx];
    _cells[idx].runCell = [c, tl = _timeline.get(), mx = _metrics.get()] {
        return runBenchmarkObserved(c.benchmark, c.cfg, c.scale,
                                    c.affinity, tl, mx);
    };
}

obs::Provenance
Sweep::provenance(const std::string &schema) const
{
    obs::Provenance p;
    p.schema = schema;
    p.tool = _experiment;
    p.configHash = journalIdentity();
    p.faultSpec = _opts.fault.enabled() ? _opts.fault.str()
                                        : std::string("off");
    p.jobs = _opts.jobs ? _opts.jobs : hardwareJobs();
    return p;
}

void
Sweep::run()
{
    hscd_assert(!_ran, "Sweep::run() is single-shot");
    _ran = true;
    setupObservers();

    const auto t0 = std::chrono::steady_clock::now();

    // Warm the compile cache serially: each distinct program compiles
    // exactly once instead of racing first-touch compiles on the pool.
    std::set<std::tuple<std::string, int, bool>> keys;
    for (const Cell &c : _cells)
        if (!c.benchmark.empty() &&
            keys.emplace(c.benchmark, c.scale, c.affinity).second)
            compiledBenchmark(c.benchmark, c.scale, c.affinity);

    std::optional<campaign::CellJournal> journal;
    if (!_opts.checkpointPath.empty()) {
        const std::uint64_t identity = journalIdentity();
        journal.emplace(_opts.checkpointPath, kJournalMagic, identity,
                        _cells.size());
        using State = campaign::CellJournal::State;
        const State st = _opts.resume ? journal->restore() : State::Fresh;
        if (st == State::NotAJournal)
            fatal("'%s' is not a sweep checkpoint journal",
                  _opts.checkpointPath);
        if (st == State::Foreign)
            fatal("checkpoint journal '%s' was written by a different "
                  "sweep (identity %016x, expected %016x)",
                  _opts.checkpointPath, journal->foundIdentity(), identity);
        if (st == State::Resumed)
            inform("resume: %d of %d cells restored from '%s'%s",
                   journal->restored(), _cells.size(),
                   _opts.checkpointPath,
                   journal->dropped()
                       ? csprintf(" (%d torn records re-run)",
                                  journal->dropped())
                       : std::string());
        if (!journal->open())
            fatal("cannot write checkpoint journal '%s'",
                  _opts.checkpointPath);
        // The observed cell must actually execute to fill its
        // recorders; a journaled result can't reproduce the event
        // stream.
        if (_obsIndex < _cells.size() && journal->has(_obsIndex))
            inform("resume: re-running observed cell '%s' to record "
                   "observability artifacts", _cells[_obsIndex].label);
    }

    // Whole-campaign deadline: cells that have not *started* when the
    // budget expires are skipped with a transient error (never
    // journaled - a future --resume should re-run them), and the
    // process later exits verify::ExitAbort instead of running over.
    // The same transient path implements graceful SIGINT/SIGTERM.
    const auto deadlineAt =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(
                     _opts.deadlineMs));

    _results = parallelMap(
        _opts.jobs, _cells.size(), [&](std::size_t i) {
            if (journal && i != _obsIndex && journal->has(i))
                return Outcome{journal->outcome(i)};
            if (g_sweepInterrupted) {
                Outcome o;
                o.error = "interrupted: cell skipped (checkpointed "
                          "cells are journaled)";
                o.transient = true;
                return o;
            }
            if (_opts.deadlineMs > 0 &&
                std::chrono::steady_clock::now() >= deadlineAt) {
                Outcome o;
                o.error = csprintf(
                    "deadline: campaign budget of %.0f ms expired "
                    "before this cell started",
                    _opts.deadlineMs);
                o.transient = true;
                return o;
            }
            Outcome o = runGuarded(i);
            if (journal)
                journal->append(i, o);
            return o;
        });

    _wallMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
}

const sim::RunResult &
Sweep::operator[](std::size_t i) const
{
    hscd_assert(_ran && i < _results.size(), "sweep cell %d not run", i);
    return _results[i].result;
}

const std::string &
Sweep::error(std::size_t i) const
{
    hscd_assert(_ran && i < _results.size(), "sweep cell %d not run", i);
    return _results[i].error;
}

void
Sweep::exitIfAborted() const
{
    std::size_t skipped = 0;
    for (const Outcome &o : _results)
        if (o.transient)
            ++skipped;
    if (!skipped)
        return;
    const char *why =
        g_sweepInterrupted ? "interrupted" : "deadline expired";
    std::cerr << csprintf(
        "[sweep %s] %s: %d of %d cells skipped%s\n", _experiment, why,
        skipped, _results.size(),
        _opts.checkpointPath.empty()
            ? ""
            : " (completed cells journaled; restart with --resume)");
    std::exit(verify::ExitAbort);
}

void
Sweep::finish(std::ostream &os, const Gate &gate) const
{
    writeJson();
    writeObservability(os);
    // Deliberately the only --jobs-dependent output line.
    os << csprintf("[sweep %s] %d cells, jobs=%d, %.0f ms\n",
                   _experiment, _cells.size(),
                   _opts.jobs ? _opts.jobs : hardwareJobs(), _wallMs);
    // Every exit below comes after the artifacts are on disk. A
    // structured abort outranks the rest: skipped cells hold no results.
    exitIfAborted();
    bool harnessError = false;
    for (std::size_t i = 0; i < _results.size(); ++i) {
        if (!_results[i].error.empty()) {
            warn("%s: harness error: %s", _cells[i].label,
                 _results[i].error);
            harnessError = true;
        }
    }
    if (harnessError)
        std::exit(verify::ExitInternal);
    int code = verify::ExitSuccess;
    for (std::size_t i = 0; i < _results.size(); ++i) {
        const CellVerdict v = gate ? gate(i) : soundness(_results[i].result);
        if (v.code == verify::ExitSuccess)
            continue;
        warn("%s: %s", _cells[i].label, v.why);
        if (code == verify::ExitSuccess)
            code = v.code;
    }
    if (code != verify::ExitSuccess)
        std::exit(code);
}

void
Sweep::writeObservability(std::ostream &os) const
{
    if (_obsIndex >= _cells.size())
        return;
    const Cell &c = _cells[_obsIndex];
    if (_timeline) {
        std::ofstream f(_opts.traceOut);
        if (!f)
            fatal("cannot write timeline to '%s'", _opts.traceOut);
        _timeline->writePerfetto(f, provenance("hscd-timeline"),
                                 c.cfg.procs, _experiment + "/" + c.label,
                                 timelineNaming());
        os << csprintf("[obs %s] timeline of '%s': %d events "
                       "(%d dropped) -> %s\n",
                       _experiment, c.label, _timeline->events().size(),
                       _timeline->dropped(), _opts.traceOut);
    }
    if (_metrics) {
        std::ofstream f(_opts.metricsOut);
        if (!f)
            fatal("cannot write metrics to '%s'", _opts.metricsOut);
        _metrics->writeJson(f, provenance("hscd-metrics"));
        os << csprintf("[obs %s] metrics of '%s': %d rows "
                       "(%d dropped) -> %s\n",
                       _experiment, c.label, _metrics->size(),
                       _metrics->dropped(), _opts.metricsOut);
    }
}

void
Sweep::writeJson() const
{
    if (_opts.jsonPath.empty())
        return;
    hscd_assert(_ran, "writeJson() before run()");
    std::ofstream f(_opts.jsonPath);
    if (!f)
        fatal("cannot write JSON results to '%s'", _opts.jsonPath);

    f << "{\n  \"provenance\": " << provenance("hscd-sweep").json(2)
      << ",\n";
    f << "  \"experiment\": \"" << jsonEscape(_experiment) << "\",\n";
    f << "  \"cells\": [\n";
    for (std::size_t i = 0; i < _cells.size(); ++i) {
        const Cell &c = _cells[i];
        const sim::RunResult &r = _results[i].result;
        f << "    {\n";
        f << "      \"label\": \"" << jsonEscape(c.label) << "\",\n";
        if (!c.benchmark.empty()) {
            f << "      \"benchmark\": \"" << jsonEscape(c.benchmark)
              << "\",\n";
            f << "      \"scheme\": \"" << jsonEscape(c.scheme)
              << "\",\n";
            f << "      \"scale\": " << c.scale << ",\n";
            f << "      \"affinity\": " << (c.affinity ? "true" : "false")
              << ",\n";
        }
        campaign::writeResultCellJson(f, r, _results[i].error);
        f << "\n    }" << (i + 1 < _cells.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

} // namespace bench
} // namespace hscd
