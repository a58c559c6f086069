/**
 * @file
 * Inter-task communication example (paper Section 5): a doacross-style
 * wavefront where task i consumes task i-1's result within a single
 * epoch, ordered by post/wait flags. Shows the compiler marking the
 * sync-ordered reads as bypass and the executor honouring release
 * semantics (the producer's write buffer drains at the post).
 *
 *   $ ./doacross [n]
 */

#include <iostream>

#include "common/config.hh"
#include "common/log.hh"
#include "compiler/analysis.hh"
#include "hir/builder.hh"
#include "hir/printer.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"

using namespace hscd;

int
main(int argc, char **argv)
try {
    if (argc > 2)
        fatal("usage: doacross [n]");
    // Up to 2^16 tasks keeps the example's run short.
    const std::int64_t n =
        argc > 1 ? std::int64_t(Params::parseUint("n", argv[1], 1, 1 << 16))
                 : 64;

    hir::ProgramBuilder b;
    b.param("N", n);
    b.array("WAVE", {"N"});
    b.array("LOCAL", {"N"});
    b.proc("MAIN", [&] {
        b.write("WAVE", {b.c(0)});
        b.doall("i", 1, n - 1, [&] {
            b.compute(20);               // independent local work
            b.write("LOCAL", {b.v("i")});
            b.post(0);                   // seed for task 1's wait
            b.wait(b.v("i") - 1);        // predecessor's result ready
            b.read("WAVE", {b.v("i") - 1});
            b.compute(4);
            b.write("WAVE", {b.v("i")});
            b.post(b.v("i"));
        });
        b.read("WAVE", {b.p("N") - 1});
    });

    compiler::CompiledProgram cp =
        compiler::compileProgram(b.build());
    std::cout << hir::programToString(cp.program) << "\n";
    std::cout << "marking (note bypass(sync) on the wavefront read):\n"
              << cp.marking.describe(cp.program) << "\n";

    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    cfg.procs = 8;
    sim::RunResult r = sim::simulate(cp, cfg);
    std::cout << r.summary() << "\n";
    std::cout << "the wavefront serializes the epoch: busy imbalance "
              << r.imbalance() << ", but every value arrives intact ("
              << r.oracleViolations << " stale reads).\n";
    return r.oracleViolations == 0 ? 0 : 1;
} catch (const FatalError &) {
    // fatal() has already printed the message.
    return verify::ExitUsage;
}
