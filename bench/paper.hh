/**
 * @file
 * The paper campaign (hscd_paper): each experiment of EXPERIMENTS.md is
 * one row, and the selected rows run as one bench::Sweep, so a cell two
 * rows share (F11's grid reappears in F12-F14, S1-S8 and A1) runs once.
 * A row enqueues its cells at a workload scale, then renders its tables,
 * gates its cells and checks its claims: the shape statements
 * EXPERIMENTS.md makes, as predicates over the results. Most rows are
 * benchmark x variant tables declared as data (benchmarks, variants,
 * columns, note, claims) that one function enqueues and one renders. A failing claim
 * is reported, never an exit code; tests/test_paper.cc pins them.
 */

#ifndef HSCD_BENCH_PAPER_HH
#define HSCD_BENCH_PAPER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sweep.hh"

namespace hscd {
namespace bench {

/** One checked statement about a row's results. */
struct Claim
{
    std::string id;       ///< "F11.tpi-hw"
    std::string text;     ///< what it asserts
    bool holds = false;
    std::string observed; ///< the measured values it was judged on
};

/** A row's enqueued cells and what reads them after Sweep::run(). */
struct RowRun
{
    std::function<void(std::ostream &)> render; ///< the table
    std::function<std::vector<Claim>()> claims;
    Sweep::Gate gate = {}; ///< over sweep indices; empty: soundness()
    std::size_t first = 0; ///< the row's first sweep index
    std::size_t end = 0;   ///< one past its last
};

/** One experiment of the campaign. */
struct Row
{
    const char *id;
    const char *banner;
    /**
     * The header's second line; null means the Figure 8 config, printed
     * when the row has cells.
     */
    const char *legend;
    /** Enqueue the row's cells at workload scale @p scale. */
    std::function<RowRun(Sweep &sweep, int scale)> build;
};

/** F5, F9, F11-F14, T1, S1-S8, A1-A3, W1 and R1, in campaign order. */
const std::vector<Row> &paperRows();

/** The row named @p id, or null. */
const Row *findRow(const std::string &id);

/** Print @p row's header, then @p run's table: the row's campaign output. */
void printRow(std::ostream &os, const Row &row, const RowRun &run);

/** @p claim's ledger line, "[claim] ID holds|FAILS text (observed ...)". */
std::string claimLine(const Claim &claim);

/**
 * Build every row of @p rows into @p sweep at @p scale, one Sweep group
 * each, run the sweep and return the rows' runs in the same order.
 */
std::vector<RowRun> runRows(Sweep &sweep, const std::vector<const Row *> &rows,
                            int scale);

} // namespace bench
} // namespace hscd

#endif // HSCD_BENCH_PAPER_HH
