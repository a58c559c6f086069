/**
 * @file
 * Trace workflow tool: capture a benchmark's memory-event trace to a
 * file, or replay a trace file through any coherence scheme. The file
 * is in the one trace grammar (workloads/trace.hh), so it also runs as
 * `--workload trace:FILE` in hscd_inspect and lints as `trace:FILE`.
 *
 *   $ ./trace_tool capture OCEAN ocean.trace
 *   $ ./trace_tool replay ocean.trace scheme=hw line_bytes=64
 */

#include <fstream>
#include <iostream>

#include "common/strutil.hh"
#include "compiler/analysis.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "verify/diagnostic.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

int
doCapture(const std::string &bench, const std::string &path)
{
    compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildBenchmark(bench, 2));
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    sim::Machine m(cp, cfg);
    sim::TraceBuffer buf;
    m.setTraceSink(&buf);
    sim::RunResult r = m.run();

    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path);
    sim::writeTrace(os, buf.records(), cfg.procs);
    std::cout << csprintf("captured %d records (%d refs, %d epochs) "
                          "from %s into %s\n",
                          buf.records().size(), r.reads + r.writes,
                          r.epochs, bench, path);
    return 0;
}

int
doReplay(const std::string &path, const std::vector<std::string> &args)
{
    const workloads::TraceWorkload trace = workloads::loadTraceFile(path);

    Params params = MachineConfig::params();
    params.parseArgs(args);
    MachineConfig cfg = MachineConfig::fromParams(params);
    cfg.procs = trace.procs; // the trace fixes the processor count

    sim::RunResult r = workloads::runTrace(trace, cfg);
    std::cout << csprintf(
        "replayed %d records on %s: reads=%d misses=%d (%.2f%%) "
        "conservative=%d false-share=%d traffic=%d words cycles=%d\n",
        trace.records.size(), schemeName(cfg.scheme), r.reads,
        r.readMisses, 100.0 * r.readMissRate, r.missConservative,
        r.missFalseShare, r.trafficWords, r.cycles);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() >= 3 && args[0] == "capture")
            return doCapture(args[1], args[2]);
        if (args.size() >= 2 && args[0] == "replay")
            return doReplay(args[1], {args.begin() + 2, args.end()});
    } catch (const FatalError &e) {
        // Bad input (an unreadable or malformed trace, a bad key=value).
        std::cerr << "trace_tool: " << e.what() << "\n";
        return verify::ExitUsage;
    }
    std::cerr << "usage:\n  trace_tool capture <benchmark> <file>\n"
                 "  trace_tool replay <file> [key=value...]\n";
    return verify::ExitUsage;
}
