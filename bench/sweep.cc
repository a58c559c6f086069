#include "sweep.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

#include <csignal>

#include "campaign/journal.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/strutil.hh"
#include "verify/diagnostic.hh"

namespace hscd {
namespace bench {

namespace {

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
    Params p;
    p.define("jobs", std::to_string(opts.jobs),
             "worker threads (0: all hardware threads; 1:\n"
             "serial); the output is the same at any JOBS but\n"
             "for the wall-clock line")
        .define("json", "", "also write machine-readable results JSON")
        .define("fault", "0",
                "inject faults into every cell:\n"
                "RATE[:SEED[:SITES]] (fault/plan.hh), seeded per\n"
                "cell; 0: off")
        .define("timeout-ms", "0",
                "abandon a cell still running after this many\n"
                "ms (a structured per-cell error); 0: never")
        .define("deadline-ms", "0",
                csprintf("campaign budget in ms: cells not started by\n"
                         "then are skipped and the sweep exits %d",
                         int(verify::ExitAbort)))
        .define("checkpoint", "", "journal each completed cell to this file")
        .defineFlag("resume", "skip cells journaled in the --checkpoint\n"
                              "file; the output is that of an\n"
                              "uninterrupted run")
        .define("trace-out", "",
                "write a Perfetto trace_event timeline of the\n"
                "observed cell to this file")
        .define("metrics", "",
                "sample counters of the observed cell:\n"
                "epoch[:K] or cycles:N, with :cap=M")
        .define("metrics-out", opts.metricsOut, "the metrics series file")
        .define("cell", "",
                "observe the first cell whose label contains\n"
                "this (default: the first cell)")
        .define("only", "",
                "run only these experiments (hscd_paper rows,\n"
                "comma-separated)")
        .defineFlag("help", "this text")
        .alias("-j", "jobs")
        .alias("-h", "help");
    const std::vector<std::string> args = p.parseCommandLine(argc, argv);
    if (p.getBool("help")) {
        std::cout << "usage: " << argv[0] << " [options]\n\nOptions:\n"
                  << p.help();
        std::exit(verify::ExitSuccess);
    }
    if (!args.empty())
        fatal("unexpected argument '%s'", args.front());

    opts.jobs = unsigned(
        p.getUint("jobs", 0, std::numeric_limits<unsigned>::max()));
    opts.jsonPath = p.getString("json");
    opts.fault = fault::FaultPlan::parse(p.getString("fault"));
    // A budget past 10^12 ms (about 31 years) would overflow the
    // steady_clock's nanosecond count it is converted to.
    constexpr double kMaxBudgetMs = 1e12;
    opts.timeoutMs = p.getDouble("timeout-ms", 0, kMaxBudgetMs);
    opts.deadlineMs = p.getDouble("deadline-ms", 0, kMaxBudgetMs);
    opts.checkpointPath = p.getString("checkpoint");
    opts.resume = p.getBool("resume");
    opts.traceOut = p.getString("trace-out");
    opts.metricsSpec = p.getString("metrics");
    if (!opts.metricsSpec.empty())
        obs::MetricsSpec::parse(opts.metricsSpec);
    opts.metricsOut = p.getString("metrics-out");
    opts.observeCell = p.getString("cell");
    if (!p.getString("only").empty())
        opts.only = split(p.getString("only"), ',', /*keep_empty=*/true);
    if (opts.resume && opts.checkpointPath.empty())
        fatal("--resume requires --checkpoint");
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
Sweep::beginGroup(std::string id)
{
    hscd_assert(!_ran, "Sweep::beginGroup() after run()");
    _groups.push_back({std::move(id), _cells.size(), ""});
    return _groups.size() - 1;
}

void
Sweep::setGroupJson(std::size_t g, std::string members)
{
    _groups.at(g).json = std::move(members);
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
    Run r;
    r.benchmark = benchmark;
    r.scale = scale;
    r.affinity = affinity;
    r.program = compiledBenchmark(benchmark, scale, affinity);
    return addRun(std::move(label), std::move(r), cfg);
}

std::size_t
Sweep::add(std::string label, CompiledProgramPtr program,
           const MachineConfig &cfg)
{
    Run r;
    r.program = std::move(program);
    return addRun(std::move(label), std::move(r), cfg);
}

std::size_t
Sweep::addRun(std::string label, Run r, const MachineConfig &cfg)
{
    hscd_assert(!_ran, "Sweep::add() after run()");
    r.cfg = cfg;
    if (_opts.fault.enabled())
        r.cfg.fault = fault::planForCell(
            _opts.fault,
            _cells.size() - (_groups.empty() ? 0 : _groups.back().first));
    // The compile cache gives each (benchmark, scale, affinity) one
    // program, so the program's address names it.
    const auto at = reinterpret_cast<std::uintptr_t>(r.program.get());
    auto [it, fresh] =
        _runByKey.try_emplace(csprintf("%x/", at) + r.cfg.key(), _runs.size());
    if (fresh) {
        r.runCell = [program = r.program, cfg = r.cfg] {
            return sim::simulate(*program, cfg);
        };
        _runs.push_back(std::move(r));
    }
    _cells.push_back({std::move(label), it->second});
    return _cells.size() - 1;
}

std::size_t
Sweep::addCustom(std::string label, std::function<sim::RunResult()> runCell)
{
    hscd_assert(!_ran, "Sweep::add() after run()");
    Run r;
    r.runCell = std::move(runCell);
    _runs.push_back(std::move(r));
    _cells.push_back({std::move(label), _runs.size() - 1});
    return _cells.size() - 1;
}

std::string
Sweep::cellName(std::size_t i) const
{
    for (std::size_t g = _groups.size(); g-- > 0;)
        if (_groups[g].first <= i)
            return _groups[g].id + "/" + _cells[i].label;
    return _cells[i].label;
}

std::uint64_t
Sweep::journalIdentity() const
{
    // FNV-1a over everything that determines what the cells compute, so
    // a journal from another sweep, or from this one with other configs
    // or fault plans, is rejected instead of silently reused.
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
        const Run &r = _runs[c.run];
        mix(c.label);
        mix(r.benchmark);
        mixU(static_cast<std::uint64_t>(r.scale));
        mixU(r.affinity ? 1 : 0);
        mix(r.program ? r.cfg.key() : ""); // fault plan included
    }
    for (const Group &g : _groups) {
        mix(g.id);
        mixU(g.first);
    }
    return obs::fnv1a(key);
}

Sweep::Outcome
Sweep::runGuarded(std::size_t run) const
{
    if (_opts.timeoutMs <= 0)
        return {campaign::guardedCall(_runs[run].runCell)};

    // Per-cell isolation: run the cell on its own thread and abandon it
    // when the budget expires. The abandoned thread is detached - it
    // keeps only the task's shared state alive and its eventual result
    // is discarded. (C++ offers no portable preemptive cancellation; the
    // simulator-side watchdog bounds how long the orphan can spin.)
    std::packaged_task<campaign::CellOutcome()> task(
        [fn = _runs[run].runCell] { return campaign::guardedCall(fn); });
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
    Run &r = _runs[_cells[idx].run];
    if (!r.program) {
        warn("cell '%s' is a custom cell; --trace-out/--metrics ignored",
             _cells[idx].label);
        return;
    }

    if (!_opts.traceOut.empty())
        _timeline = std::make_unique<obs::Timeline>();
    if (!_opts.metricsSpec.empty())
        _metrics = std::make_unique<obs::MetricsRecorder>(
            obs::MetricsSpec::parse(_opts.metricsSpec));
    _obsIndex = _cells[idx].run;
    _obsLabel = _cells[idx].label;

    r.runCell = [program = r.program, cfg = r.cfg, tl = _timeline.get(),
                 mx = _metrics.get()] {
        return runObserved(*program, cfg, tl, mx);
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

    std::optional<campaign::CellJournal> journal;
    if (!_opts.checkpointPath.empty()) {
        const std::uint64_t identity = journalIdentity();
        journal.emplace(_opts.checkpointPath, kJournalMagic, identity,
                        _runs.size());
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
                   journal->restored(), _runs.size(),
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
        if (_obsIndex < _runs.size() && journal->has(_obsIndex))
            inform("resume: re-running observed cell '%s' to record "
                   "observability artifacts", _obsLabel);
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
        _opts.jobs, _runs.size(), [&](std::size_t i) {
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
    hscd_assert(_ran && i < _cells.size(), "sweep cell %d not run", i);
    return _results[_cells[i].run].result;
}

const std::string &
Sweep::error(std::size_t i) const
{
    hscd_assert(_ran && i < _cells.size(), "sweep cell %d not run", i);
    return _results[_cells[i].run].error;
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
    os << csprintf("[sweep %s] %d cells%s, jobs=%d, %.0f ms\n",
                   _experiment, _cells.size(),
                   _runs.size() < _cells.size()
                       ? csprintf(" (%d distinct)", _runs.size())
                       : std::string(),
                   _opts.jobs ? _opts.jobs : hardwareJobs(), _wallMs);
    // Every exit below comes after the artifacts are on disk. A
    // structured abort outranks the rest: skipped cells hold no results.
    exitIfAborted();
    bool harnessError = false;
    for (std::size_t i = 0; i < _cells.size(); ++i) {
        if (!error(i).empty()) {
            warn("%s: harness error: %s", cellName(i), error(i));
            harnessError = true;
        }
    }
    if (harnessError)
        std::exit(verify::ExitInternal);
    int code = verify::ExitSuccess;
    for (std::size_t i = 0; i < _cells.size(); ++i) {
        const CellVerdict v = gate ? gate(i) : soundness((*this)[i]);
        if (v.code == verify::ExitSuccess)
            continue;
        warn("%s: %s", cellName(i), v.why);
        if (code == verify::ExitSuccess)
            code = v.code;
    }
    if (code != verify::ExitSuccess)
        std::exit(code);
}

void
Sweep::writeObservability(std::ostream &os) const
{
    if (_obsIndex >= _runs.size())
        return;
    const MachineConfig &cfg = _runs[_obsIndex].cfg;
    if (_timeline) {
        std::ofstream f(_opts.traceOut);
        if (!f)
            fatal("cannot write timeline to '%s'", _opts.traceOut);
        _timeline->writePerfetto(f, provenance("hscd-timeline"),
                                 cfg.procs, _experiment + "/" + _obsLabel,
                                 timelineNaming());
        os << csprintf("[obs %s] timeline of '%s': %d events "
                       "(%d dropped) -> %s\n",
                       _experiment, _obsLabel, _timeline->events().size(),
                       _timeline->dropped(), _opts.traceOut);
    }
    if (_metrics) {
        std::ofstream f(_opts.metricsOut);
        if (!f)
            fatal("cannot write metrics to '%s'", _opts.metricsOut);
        _metrics->writeJson(f, provenance("hscd-metrics"));
        os << csprintf("[obs %s] metrics of '%s': %d rows "
                       "(%d dropped) -> %s\n",
                       _experiment, _obsLabel, _metrics->size(),
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
    if (_groups.empty()) {
        f << "  \"cells\": ";
        writeCells(f, 0, _cells.size());
        f << "\n}\n";
        return;
    }
    f << "  \"experiments\": [\n";
    for (std::size_t g = 0; g < _groups.size(); ++g) {
        const std::size_t end =
            g + 1 < _groups.size() ? _groups[g + 1].first : _cells.size();
        f << "  {\n  \"id\": \"" << jsonEscape(_groups[g].id)
          << "\",\n  \"cells\": ";
        writeCells(f, _groups[g].first, end);
        if (!_groups[g].json.empty())
            f << ",\n  " << _groups[g].json;
        f << "\n  }" << (g + 1 < _groups.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

void
Sweep::writeCells(std::ostream &f, std::size_t begin, std::size_t end) const
{
    f << "[\n";
    for (std::size_t i = begin; i < end; ++i) {
        const Run &run = _runs[_cells[i].run];
        f << "    {\n";
        f << "      \"label\": \"" << jsonEscape(_cells[i].label)
          << "\",\n";
        if (!run.benchmark.empty())
            f << "      \"benchmark\": \"" << jsonEscape(run.benchmark)
              << "\",\n";
        if (run.program)
            f << "      \"scheme\": \"" << schemeName(run.cfg.scheme)
              << "\",\n";
        if (!run.benchmark.empty()) {
            f << "      \"scale\": " << run.scale << ",\n";
            f << "      \"affinity\": "
              << (run.affinity ? "true" : "false") << ",\n";
        }
        campaign::writeResultCellJson(f, (*this)[i], error(i));
        f << "\n    }" << (i + 1 < end ? "," : "") << "\n";
    }
    f << "  ]";
}

} // namespace bench
} // namespace hscd
