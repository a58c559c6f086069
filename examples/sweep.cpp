/**
 * @file
 * Batch experiment runner: sweep schemes x benchmarks under a common
 * machine configuration and emit CSV for external analysis.
 *
 *   $ ./sweep [key=value...] > results.csv
 *   $ ./sweep line_bytes=64 procs=32 sched=dynamic > results.csv
 *
 * Columns: benchmark, scheme, and the headline metrics of RunResult.
 */

#include <iostream>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"
#include "workloads/workloads.hh"

using namespace hscd;

int
main(int argc, char **argv)
try {
    Params params = MachineConfig::params();
    params.parseArgs({argv + 1, argv + argc});

    std::cout << "benchmark,scheme,cycles,epochs,reads,writes,"
                 "read_misses,miss_rate,avg_miss_latency,time_reads,"
                 "time_read_hits,miss_cold,miss_replacement,"
                 "miss_true_share,miss_false_share,miss_conservative,"
                 "miss_tag_reset,traffic_words,busy_max,busy_avg,"
                 "imbalance,oracle_violations\n";

    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(name, 2));
        for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC,
                             SchemeKind::VC, SchemeKind::TPI,
                             SchemeKind::HW})
        {
            MachineConfig cfg = MachineConfig::fromParams(params);
            cfg.scheme = k;
            sim::RunResult r = sim::simulate(cp, cfg);
            std::cout << name << ',' << schemeName(k) << ',' << r.cycles
                      << ',' << r.epochs << ',' << r.reads << ','
                      << r.writes << ',' << r.readMisses << ','
                      << r.readMissRate << ',' << r.avgMissLatency << ','
                      << r.timeReads << ',' << r.timeReadHits << ','
                      << r.missCold << ',' << r.missReplacement << ','
                      << r.missTrueShare << ',' << r.missFalseShare << ','
                      << r.missConservative << ',' << r.missTagReset
                      << ',' << r.trafficWords << ',' << r.busyMax << ','
                      << r.busyAvg << ',' << r.imbalance() << ','
                      << r.oracleViolations << '\n';
            if (r.oracleViolations != 0) {
                std::cerr << "coherence violation in " << name << "/"
                          << schemeName(k) << "\n";
                return 1;
            }
        }
    }
    return 0;
} catch (const FatalError &) {
    // fatal() has already printed the message.
    return verify::ExitUsage;
}
