/**
 * @file
 * Build a custom workload against the public API and sweep a machine
 * parameter from the command line - the "bring your own kernel" example.
 *
 *   $ ./custom_machine [key=value...]
 *   $ ./custom_machine scheme=hw procs=64 line_bytes=64 sched=dynamic
 */

#include <iostream>

#include "common/table.hh"
#include "compiler/analysis.hh"
#include "hir/builder.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"

using namespace hscd;

namespace {

/** A blocked 2-D heat solve with a halo exchange feel. */
hir::Program
heatSolver(std::int64_t n, int steps)
{
    hir::ProgramBuilder b;
    b.param("N", n);
    b.array("T0", {"N", "N"});
    b.array("T1", {"N", "N"});
    b.proc("MAIN", [&] {
        b.doserial("bi", 0, n - 1, [&] {
            b.doserial("bj", 0, n - 1, [&] {
                b.write("T0", {b.v("bi"), b.v("bj")});
            });
        });
        b.doserial("t", 0, steps - 1, [&] {
            b.doall("i", 1, n - 2, [&] {
                b.doserial("j", 1, n - 2, [&] {
                    b.read("T0", {b.v("i") - 1, b.v("j")});
                    b.read("T0", {b.v("i") + 1, b.v("j")});
                    b.read("T0", {b.v("i"), b.v("j") - 1});
                    b.read("T0", {b.v("i"), b.v("j") + 1});
                    b.compute(5);
                    b.write("T1", {b.v("i"), b.v("j")});
                });
            });
            b.doall("i2", 1, n - 2, [&] {
                b.doserial("j2", 1, n - 2, [&] {
                    b.read("T1", {b.v("i2"), b.v("j2")});
                    b.write("T0", {b.v("i2"), b.v("j2")});
                });
            });
        });
    });
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    MachineConfig cfg;
    try {
        Params params = MachineConfig::params();
        params.parseArgs({argv + 1, argv + argc});
        cfg = MachineConfig::fromParams(params);
    } catch (const FatalError &) {
        // fatal() has already printed the message.
        return verify::ExitUsage;
    }

    compiler::CompiledProgram cp =
        compiler::compileProgram(heatSolver(48, 4));

    std::cout << "running 48x48 heat solver on: " << cfg.str() << "\n\n";
    {
        sim::Machine m(cp, cfg);
        sim::RunResult r = m.run();
        std::cout << r.summary() << "\n\n";

        TextTable t;
        t.col("miss class", TextTable::Align::Left).col("count");
        t.row().cell("cold").cell(r.missCold);
        t.row().cell("replacement").cell(r.missReplacement);
        t.row().cell("true sharing").cell(r.missTrueShare);
        t.row().cell("false sharing").cell(r.missFalseShare);
        t.row().cell("conservative").cell(r.missConservative);
        t.row().cell("tag reset").cell(r.missTagReset);
        t.row().cell("uncached").cell(r.missUncached);
        t.print(std::cout);

        std::cout << "\nevery counter:\n";
        sim::forEachScalar(r, [](const char *key, auto v) {
            std::cout << "  " << key << " = " << v << "\n";
        });
        const mem::SchemeStats &st = m.scheme().stats();
#define PRINT_SCHEME_STAT(type, member, key, desc)                           \
        std::cout << "  " << key << " = " << st.member << "\n";
        HSCD_SCHEME_ONLY_STATS(PRINT_SCHEME_STAT)
#undef PRINT_SCHEME_STAT
        return r.oracleViolations == 0 ? 0 : 1;
    }
}
