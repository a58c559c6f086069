/**
 * @file
 * R1: the fault-injection campaign (not a paper figure; DESIGN.md §10).
 * TPI's case rests on timetags and compiler marks, the very state a
 * fault can corrupt, so every faulted run must end recovered (the
 * fault-free reference's work), aborted (a structured abort) or flagged
 * (a soundness oracle names the stale read), and never silent:
 * completed unflagged with different work (classifyFaulted).
 *
 * The grid is fixed, at scale 1 with affinity on: one fault-free
 * reference cell per (workload, scheme), then rates x schemes x seeds
 * 1..100 with every fault site enabled, seed s running workload
 * (s - 1) mod 6. Flagged and aborted cells are the detections the
 * table counts; the gate fails (exit 3) only on a silent cell.
 */

#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "harness.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

/** One row of the table: outcome counts plus fault totals. */
struct Tally
{
    Counter runs = 0;
    std::array<Counter, 5> outcomes{}; ///< indexed by FaultOutcome
    Counter injected = 0;
    Counter retries = 0;
};

} // namespace

int
benchMain(int argc, char **argv)
{
    SweepOptions opts = SweepOptions::parse(argc, argv);
    // Sweep::add would replace each cell's plan with one derived from
    // --fault, and the grid is the fault axis.
    if (opts.fault.enabled())
        fatal("R1 sets every cell's fault plan itself; --fault is not "
              "accepted");
    printHeader(std::cout, "R1",
                "fault injection: recovered / aborted / flagged, never "
                "silent",
                makeConfig(SchemeKind::TPI));

    const double rates[] = {1e-4, 1e-3, 1e-2, 0.1, 0.4};
    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW,
                                  SchemeKind::VC};
    constexpr std::uint64_t kSeeds = 100;
    const std::vector<std::string> names = workloads::benchmarkNames();
    auto config = [](SchemeKind k) {
        MachineConfig c = makeConfig(k);
        c.shadowEpochCheck = true;
        return c;
    };

    Sweep sweep(opts, "R1");
    // Reference of (scheme s, workload w) is cell s * names.size() + w.
    for (SchemeKind k : schemes)
        for (const std::string &name : names)
            sweep.add("ref/" + name + "/" + schemeName(k), name, config(k),
                      /*scale=*/1);

    // The journal identity hashes labels, not configs, so a faulted
    // cell's label names everything its plan and workload depend on.
    struct Faulted
    {
        std::size_t row; ///< rate-major (rate, scheme) table row
        std::size_t ref; ///< its reference cell
    };
    std::vector<Faulted> faulted;
    const std::size_t firstFaulted = sweep.size();
    for (std::size_t r = 0; r < std::size(rates); ++r) {
        for (std::size_t s = 0; s < std::size(schemes); ++s) {
            for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
                const std::size_t w = (seed - 1) % names.size();
                MachineConfig c = config(schemes[s]);
                c.fault.rate = rates[r];
                c.fault.seed = seed;
                c.fault.sites = fault::kSitesAll;
                sweep.add(csprintf("rate=%g/%s/seed=%d/%s", rates[r],
                                   schemeName(schemes[s]), seed, names[w]),
                          names[w], c, /*scale=*/1);
                faulted.push_back({r * std::size(schemes) + s,
                                   s * names.size() + w});
            }
        }
    }
    sweep.run();

    auto outcome = [&](std::size_t cell) {
        return classifyFaulted(sweep[cell],
                               sweep[faulted[cell - firstFaulted].ref]);
    };
    std::vector<Tally> rows(std::size(rates) * std::size(schemes));
    Tally total;
    for (std::size_t i = 0; i < faulted.size(); ++i) {
        const std::size_t cell = firstFaulted + i;
        const sim::RunResult &r = sweep[cell];
        for (Tally *t : {&rows[faulted[i].row], &total}) {
            ++t->runs;
            t->injected += r.faultsInjected;
            t->retries += r.faultRetries;
            // A harness error has no outcome; finish() reports it.
            if (sweep.error(cell).empty())
                ++t->outcomes[static_cast<std::size_t>(outcome(cell))];
        }
    }

    TextTable t;
    t.col("rate", TextTable::Align::Left)
        .col("scheme", TextTable::Align::Left)
        .col("runs")
        .col("clean")
        .col("recovered")
        .col("aborted")
        .col("flagged")
        .col("silent")
        .col("injected")
        .col("retries");
    auto tallyRow = [&](const std::string &rate, const char *scheme,
                        const Tally &y) {
        t.row().cell(rate).cell(scheme).cell(y.runs);
        for (Counter n : y.outcomes)
            t.cell(n);
        t.cell(y.injected).cell(y.retries);
    };
    for (std::size_t r = 0; r < std::size(rates); ++r)
        for (std::size_t s = 0; s < std::size(schemes); ++s)
            tallyRow(csprintf("%g", rates[r]), schemeName(schemes[s]),
                     rows[r * std::size(schemes) + s]);
    tallyRow("total", "-", total);
    t.print(std::cout);
    std::cout << "\nevery faulted run must be recovered, aborted or "
                 "flagged; a silent run fails the campaign (exit 3).\n";

    sweep.finish(std::cout, [&](std::size_t cell) -> CellVerdict {
        if (cell < firstFaulted || outcome(cell) != FaultOutcome::Silent)
            return {};
        const sim::RunResult &r = sweep[cell];
        const sim::RunResult &ref = sweep[faulted[cell - firstFaulted].ref];
        return {verify::ExitViolation,
                csprintf("silent corruption: completed unflagged, but "
                         "tasks/epochs/parallel/reads/writes "
                         "%d/%d/%d/%d/%d differ from the reference's "
                         "%d/%d/%d/%d/%d",
                         r.tasks, r.epochs, r.parallelEpochs, r.reads,
                         r.writes, ref.tasks, ref.epochs,
                         ref.parallelEpochs, ref.reads, ref.writes)};
    });
    return 0;
}
