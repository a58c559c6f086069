/**
 * @file
 * hscd_paper: every experiment of EXPERIMENTS.md as one campaign (see
 * paper.hh). Each selected row (--only, default all) prints its table;
 * then one ledger line per claim and the sweep's wall-clock line
 * follow. --json writes one "experiments" entry per row: its cells and
 * its claims. The exit code comes from the cells' gates, never from a
 * claim; a fatal() user error exits verify::ExitUsage (2).
 */

#include <algorithm>
#include <iostream>

#include "common/log.hh"
#include "common/strutil.hh"
#include "obs/provenance.hh"
#include "paper.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

std::string
claimsJson(const std::vector<Claim> &claims)
{
    std::string j = "\"claims\": [";
    for (std::size_t i = 0; i < claims.size(); ++i)
        j += csprintf("%s\n    {\"id\": \"%s\", \"text\": \"%s\", "
                      "\"holds\": %s, \"observed\": \"%s\"}",
                      i ? "," : "", obs::jsonEscape(claims[i].id),
                      obs::jsonEscape(claims[i].text),
                      claims[i].holds ? "true" : "false",
                      obs::jsonEscape(claims[i].observed));
    return j + (claims.empty() ? "]" : "\n  ]");
}

int
paperMain(int argc, char **argv)
{
    const SweepOptions opts = SweepOptions::parse(argc, argv);
    std::vector<const Row *> rows;
    for (const std::string &id : opts.only) {
        const Row *row = findRow(id);
        if (!row)
            fatal("unknown row '%s' in --only", id);
        if (std::find(rows.begin(), rows.end(), row) == rows.end())
            rows.push_back(row);
    }
    if (rows.empty())
        for (const Row &row : paperRows())
            rows.push_back(&row);
    // Sweep::add would replace each R1 cell's plan with one derived from
    // --fault, and R1's grid is the fault axis.
    if (opts.fault.enabled() &&
        std::find(rows.begin(), rows.end(), findRow("R1")) != rows.end())
        fatal("R1 sets every cell's fault plan itself; --fault is not "
              "accepted with R1 selected (pick rows with --only)");

    Sweep sweep(opts, "paper");
    const std::vector<RowRun> runs = runRows(sweep, rows, /*scale=*/2);
    std::vector<Claim> ledger;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r)
            std::cout << "\n";
        printRow(std::cout, *rows[r], runs[r]);
        const std::vector<Claim> claims = runs[r].claims();
        sweep.setGroupJson(r, claimsJson(claims));
        ledger.insert(ledger.end(), claims.begin(), claims.end());
    }
    std::cout << csprintf("[claims] %d of %d hold\n",
                          std::count_if(ledger.begin(), ledger.end(),
                                        [](const Claim &c) { return c.holds; }),
                          ledger.size());
    for (const Claim &c : ledger)
        std::cout << claimLine(c);

    // Each cell is gated by its row: the last one starting at or before
    // it (a row without cells starts where the next one does).
    sweep.finish(std::cout, [&](std::size_t i) {
        std::size_t r = rows.size();
        while (runs[--r].first > i) {
        }
        return runs[r].gate ? runs[r].gate(i) : soundness(sweep[i]);
    });
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return paperMain(argc, argv);
    } catch (const FatalError &) {
        // fatal() has already printed the message.
        return verify::ExitUsage;
    }
}
