/**
 * @file
 * Parallel sweep engine for the paper campaign (hscd_paper) and
 * simbench.
 *
 * Every figure/table is a (scheme x workload x config) sweep of
 * independent simulations. The engine runs those cells on a thread pool
 * and aggregates the results in **submission order**, so the printed
 * tables and the JSON results file are bit-identical at any --jobs
 * value (--jobs 1 runs inline, reproducing the historical serial
 * behavior exactly). Determinism is enforced forever by
 * tests/test_sweep_determinism.cc and tests/test_fault_determinism.cc.
 *
 * Resilience: cells are isolated from each other. A cell that
 * throws becomes a structured "error" field in the JSON instead of
 * killing the sweep; `--timeout-ms` bounds each cell's wall clock;
 * `--checkpoint PATH` journals every completed cell so an interrupted
 * sweep restarted with `--resume` skips finished work and still writes
 * byte-identical final output; `--fault SPEC` threads a fault-injection
 * plan through every cell (each cell gets an independent per-cell seed
 * derived from the campaign seed, see fault::planForCell).
 *
 * Typical campaign structure (bench/paper.cc is the one in the tree):
 *
 *   SweepOptions opts = SweepOptions::parse(argc, argv);
 *   Sweep sweep(opts, "paper");
 *   sweep.beginGroup("F11");             // optional: one experiment
 *   for (...) sweep.add(name, cfg);      // phase 1: enqueue cells
 *   sweep.run();                         // phase 2: simulate (parallel)
 *   ... sweep[i] ...                     // phase 3: render in add order
 *   sweep.finish(std::cout);             // JSON, wall-clock line, gate
 *
 * add() deduplicates: cells with the same program, scale, affinity and
 * MachineConfig::key() (fault plan included) share one run, and every
 * index of that run reads the same result. addCustom() cells always
 * run on their own.
 *
 * A faulted or unsound cell never hides the campaign's results: the
 * table is rendered from whatever the cells did, finish() writes the
 * artifacts, and only then does its gate fail the process.
 */

#ifndef HSCD_BENCH_SWEEP_HH
#define HSCD_BENCH_SWEEP_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/journal.hh"
#include "fault/plan.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "obs/timeline.hh"
#include "sim/result.hh"

namespace hscd {
namespace bench {

/** Command-line options of every sweep. */
struct SweepOptions
{
    /** Worker threads; 0 means hardware concurrency, 1 means serial. */
    unsigned jobs = 0;
    /** Write machine-readable results here ("" disables). */
    std::string jsonPath;
    /** Fault-injection campaign applied to every cell (default: off). */
    fault::FaultPlan fault;
    /** Per-cell wall-clock budget in ms; 0 disables the timeout. */
    double timeoutMs = 0;
    /**
     * Whole-campaign wall-clock budget in ms; 0 disables it. On expiry
     * the remaining cells are skipped (transient, never journaled) and
     * the sweep exits verify::ExitAbort after checkpointing.
     */
    double deadlineMs = 0;
    /** Journal completed cells here ("" disables checkpointing). */
    std::string checkpointPath;
    /** Skip cells already recorded in the checkpoint journal. */
    bool resume = false;
    /** Write a Perfetto timeline of the observed cell ("" disables). */
    std::string traceOut;
    /** Metrics sampling spec for the observed cell ("" disables). */
    std::string metricsSpec;
    /** Metrics series output path (defaults to "metrics.json"). */
    std::string metricsOut = "metrics.json";
    /** Label substring picking the observed cell (default: cell 0). */
    std::string observeCell;
    /** Experiments to run (hscd_paper row ids; empty means all). */
    std::vector<std::string> only;

    /**
     * Parse the sweep flags (`--help` lists them) through a Params
     * schema: `--key V`, `--key=V`, `-j N`; a bad flag or value is
     * fatal(), so typos never silently change a sweep. Also installs
     * the SIGINT/SIGTERM handlers that map a graceful interrupt onto
     * verify::ExitAbort.
     */
    static SweepOptions parse(int argc, char **argv);
};

class Sweep
{
  public:
    Sweep(SweepOptions opts, std::string experiment);

    /**
     * Start a group: the cells added from here on form experiment
     * @p id. Their fault plans derive from the cell's index within the
     * group, --json lists each group as an entry of "experiments", and
     * finish() names a failing cell "id/label". Returns the group's
     * index for setGroupJson().
     */
    std::size_t beginGroup(std::string id);

    /** Extra JSON members (`"key": value, ...`) for group @p g's entry. */
    void setGroupJson(std::size_t g, std::string members);

    /**
     * Enqueue one runBenchmark() cell, compiling the benchmark through
     * the compile cache if it is new; returns its index. The label
     * (default "benchmark/scheme") names the cell in the JSON and in
     * warnings. When the options carry a fault plan, the cell's config
     * gets the derived per-cell plan before it is captured. A cell equal
     * to an earlier one (see the file comment) shares its run.
     */
    std::size_t add(const std::string &benchmark, const MachineConfig &cfg,
                    int scale = 2, bool affinity = true);
    std::size_t add(std::string label, const std::string &benchmark,
                    const MachineConfig &cfg, int scale = 2,
                    bool affinity = true);
    /** The same for a program compiled by the caller. */
    std::size_t add(std::string label, CompiledProgramPtr program,
                    const MachineConfig &cfg);

    /** Enqueue an arbitrary simulation cell; it is never shared. */
    std::size_t addCustom(std::string label,
                          std::function<sim::RunResult()> runCell);

    /**
     * Simulate every cell on opts.jobs threads. Results land in add()
     * order regardless of completion order; callable once. Never throws
     * for a failing cell: exceptions, timeouts and aborts become
     * per-cell state queryable via error()/operator[].
     */
    void run();

    std::size_t size() const { return _cells.size(); }

    /** Distinct runs behind the cells (size() less the shared ones). */
    std::size_t runs() const { return _runs.size(); }

    /**
     * Result of cell @p i (run() must have completed). For an errored
     * cell this is the default RunResult; check error() first.
     */
    const sim::RunResult &operator[](std::size_t i) const;

    /** Cell @p i's label. */
    const std::string &label(std::size_t i) const { return _cells[i].label; }

    /** Harness error for cell @p i ("" when the cell ran to an end). */
    const std::string &error(std::size_t i) const;

    /** finish()'s check of cell @p i; an empty Gate is soundness(). */
    using Gate = std::function<CellVerdict(std::size_t i)>;

    /**
     * Epilogue, in this order: write --json and the observability
     * artifacts; print the wall-clock line (the only output allowed to
     * vary across --jobs); exit verify::ExitAbort if any cell was
     * skipped, then verify::ExitInternal on a harness error
     * (exception/timeout); then apply @p gate to every cell, warn once
     * per failing cell in add order, and exit with the first failing
     * cell's code. Returns only when every cell passes.
     */
    void finish(std::ostream &os, const Gate &gate = {}) const;

    const SweepOptions &options() const { return _opts; }

    /** Provenance stamped on every JSON artifact this sweep writes. */
    obs::Provenance provenance(const std::string &schema) const;

  private:
    /** One distinct simulation; cells that are equal share it. */
    struct Run
    {
        std::string benchmark; ///< empty for program and custom runs
        int scale = 0;
        bool affinity = true;
        CompiledProgramPtr program; ///< null for custom runs
        MachineConfig cfg;          ///< meaningful only with a program
        std::function<sim::RunResult()> runCell;
    };

    struct Cell
    {
        std::string label;
        std::size_t run;
    };

    struct Group
    {
        std::string id;
        std::size_t first; ///< its first cell
        std::string json;  ///< extra members of its JSON entry
    };

    /** Per-run outcome: a result, or a harness error explaining why. */
    struct Outcome : campaign::CellOutcome
    {
        /**
         * True for cells skipped by a signal or --deadline-ms: never
         * journaled (a --resume must re-run them) and never gated;
         * their presence turns the process exit code into
         * verify::ExitAbort.
         */
        bool transient = false;
    };

    std::size_t addRun(std::string label, Run run, const MachineConfig &cfg);
    /** Cell @p i's name in warnings: its label, after its group's id. */
    std::string cellName(std::size_t i) const;
    Outcome runGuarded(std::size_t run) const;
    std::uint64_t journalIdentity() const;
    /** Exit verify::ExitAbort if any cell was skipped (signal/deadline). */
    void exitIfAborted() const;
    void writeJson() const;
    void writeCells(std::ostream &f, std::size_t begin,
                    std::size_t end) const;
    /** Attach recorders to the observed cell (run() prologue). */
    void setupObservers();
    /** Write --trace-out / metrics artifacts (finish() epilogue). */
    void writeObservability(std::ostream &os) const;

    SweepOptions _opts;
    std::string _experiment;
    std::vector<Cell> _cells;
    std::vector<Run> _runs;
    std::map<std::string, std::size_t> _runByKey; ///< shareable runs
    std::vector<Group> _groups;
    std::vector<Outcome> _results; ///< per run
    /** Recorders for the observed cell (null when not requested). */
    std::unique_ptr<obs::Timeline> _timeline;
    std::unique_ptr<obs::MetricsRecorder> _metrics;
    std::size_t _obsIndex = static_cast<std::size_t>(-1); ///< a run
    std::string _obsLabel; ///< the observed cell's label
    double _wallMs = 0;
    bool _ran = false;
};

} // namespace bench
} // namespace hscd

#endif // HSCD_BENCH_SWEEP_HH
