/**
 * @file
 * Compiler explorer: dump every compile-time artifact - the pseudo-
 * Fortran source, the epoch flow graph, per-procedure MOD/USE summaries,
 * and the final reference marking - for a chosen workload.
 *
 *   $ ./compiler_explorer [benchmark|micro-name] [--no-affinity]
 *                         [--symbolic]
 */

#include <iostream>

#include "common/config.hh"
#include "common/log.hh"
#include "compiler/analysis.hh"
#include "hir/printer.hh"
#include "verify/diagnostic.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

hir::Program
buildByName(const std::string &name)
{
    if (name == "jacobi")
        return workloads::microJacobi(64, 3);
    if (name == "matmul")
        return workloads::microMatmul(8);
    if (name == "reduction")
        return workloads::microReduction(64, 2);
    if (name == "transpose")
        return workloads::microTranspose(8, 2);
    if (name == "pipeline")
        return workloads::microPipeline(64, 2);
    if (name == "lu")
        return workloads::microLu(10);
    if (name == "fft")
        return workloads::microFft(64, 2);
    return workloads::buildBenchmark(name, 1);
}

} // namespace

int
main(int argc, char **argv)
try {
    Params p;
    p.defineFlag("no-affinity", "no serial-processor-affinity marking")
        .defineFlag("symbolic", "mark against declared parameter ranges");
    const std::vector<std::string> args = p.parseCommandLine(argc, argv);
    if (args.size() > 1)
        fatal("unexpected argument '%s'", args[1]);
    const std::string name = args.empty() ? "jacobi" : args.front();
    compiler::AnalysisOptions opts;
    opts.assumeSerialAffinity = !p.getBool("no-affinity");
    opts.symbolicParams = p.getBool("symbolic");

    compiler::CompiledProgram cp =
        compiler::compileProgram(buildByName(name), opts);

    std::cout << "=============== source (" << name << ") ===============\n";
    hir::printProgram(std::cout, cp.program);

    std::cout << "\n=============== epoch flow graph ===============\n";
    std::cout << cp.graph.str();

    std::cout << "\n=============== procedure summaries ===============\n";
    for (hir::ProcIndex p = 0; p < cp.program.procedures().size(); ++p) {
        const compiler::ProcSummary &s = cp.summaries[p];
        std::cout << cp.program.procedures()[p].name << ": "
                  << (s.hasBoundary ? "crosses epochs" : "epoch-local")
                  << ", " << s.directRefs << " direct / " << s.totalRefs
                  << " total refs\n"
                  << "  MOD " << s.mod.str() << "\n"
                  << "  USE " << s.use.str() << "\n";
    }

    std::cout << "\n=============== reference marking ===============\n";
    std::cout << cp.marking.describe(cp.program);

    const compiler::MarkingStats &st = cp.marking.stats();
    std::cout << "\nreads " << st.reads << ": " << st.readOnly
              << " read-only, " << st.covered << " covered, "
              << st.affinity << " affinity, " << st.timeRead
              << " time-read, " << st.bypass << " bypass\n";
    return 0;
} catch (const FatalError &) {
    // fatal() has already printed the message.
    return verify::ExitUsage;
}
