/**
 * @file
 * F12: decomposition of read misses into cold / replacement / true
 * sharing / false sharing (HW, Tullsen-Eggers) / conservative-compiler
 * (SC, TPI) / tag-reset classes. The paper's central claim: HW's
 * unnecessary misses come from false sharing, TPI's from conservative
 * marking, and the two are comparable.
 */

#include <iostream>
#include <vector>

#include "common/table.hh"
#include "harness.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

void
emit(TextTable &t, const std::string &name, SchemeKind k,
     const sim::RunResult &r)
{
    auto pct = [&](Counter c) {
        return r.readMisses ? 100.0 * double(c) / double(r.readMisses)
                            : 0.0;
    };
    t.row()
        .cell(name)
        .cell(schemeName(k))
        .cell(r.readMisses)
        .cell(pct(r.missCold), 1)
        .cell(pct(r.missReplacement), 1)
        .cell(pct(r.missTrueShare), 1)
        .cell(pct(r.missFalseShare), 1)
        .cell(pct(r.missConservative), 1)
        .cell(pct(r.missTagReset), 1)
        .cell(100.0 * double(r.unnecessaryMisses()) /
                  double(r.readMisses ? r.readMisses : 1),
              1);
}

} // namespace

int
benchMain(int argc, char **argv)
{
    SweepOptions opts = SweepOptions::parse(argc, argv);
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "F12",
                "read miss decomposition (percent of read misses)", cfg);

    const SchemeKind schemes[] = {SchemeKind::SC, SchemeKind::TPI,
                                  SchemeKind::HW};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "F12");
    for (const std::string &name : names)
        for (SchemeKind k : schemes)
            sweep.add(name, makeConfig(k));
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("scheme", TextTable::Align::Left)
        .col("misses")
        .col("cold%")
        .col("repl%")
        .col("true%")
        .col("false%")
        .col("consv%")
        .col("tag%")
        .col("unnecessary%");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        for (SchemeKind k : schemes)
            emit(t, name, k, sweep[cell++]);
        t.rule();
    }
    t.print(std::cout);
    std::cout << "\nunnecessary = false sharing (HW) + conservative "
                 "refetches (SC/TPI); the paper finds the two schemes "
                 "pay comparable unnecessary-miss taxes.\n";
    sweep.finish(std::cout);
    return 0;
}
