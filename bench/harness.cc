#include "harness.hh"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/log.hh"
#include "common/strutil.hh"
#include "sim/recorder.hh"
#include "verify/diagnostic.hh"
#include "workloads/workloads.hh"

namespace hscd {
namespace bench {

MachineConfig
makeConfig(SchemeKind scheme)
{
    MachineConfig c; // defaults are the paper's Figure 8 values
    c.scheme = scheme;
    return c;
}

namespace {

// Compile cache: insert-once, so a program lives as long as the process
// and every caller for a key shares it.
struct CompileCache
{
    using Key = std::tuple<std::string, int, bool>;

    std::mutex mtx;
    std::map<Key, CompiledProgramPtr> entries;
    CompiledCacheStats stats;
};

CompileCache &
compileCache()
{
    static CompileCache cache;
    return cache;
}

} // namespace

CompiledProgramPtr
compiledBenchmark(const std::string &name, int scale, bool affinity)
{
    CompileCache &cc = compileCache();
    CompileCache::Key key{toLower(name), scale, affinity};
    {
        std::lock_guard<std::mutex> lk(cc.mtx);
        auto it = cc.entries.find(key);
        if (it != cc.entries.end()) {
            ++cc.stats.hits;
            return it->second;
        }
    }

    // Compile outside the lock so independent programs compile in
    // parallel; compilation is deterministic, so if two threads race on
    // the same key the losers' copies are equivalent and discarded.
    compiler::AnalysisOptions opts;
    opts.assumeSerialAffinity = affinity;
    auto cp = std::make_shared<const compiler::CompiledProgram>(
        compiler::compileProgram(workloads::buildBenchmark(name, scale),
                                 opts));

    std::lock_guard<std::mutex> lk(cc.mtx);
    auto [it, inserted] =
        cc.entries.try_emplace(std::move(key), std::move(cp));
    if (inserted)
        ++cc.stats.builds;
    else
        ++cc.stats.hits; // lost a racing compile of the same key
    return it->second;
}

CompiledCacheStats
compiledCacheStats()
{
    CompileCache &cc = compileCache();
    std::lock_guard<std::mutex> lk(cc.mtx);
    return cc.stats;
}

sim::RunResult
runBenchmark(const std::string &name, const MachineConfig &cfg, int scale,
             bool affinity)
{
    const CompiledProgramPtr cp = compiledBenchmark(name, scale, affinity);
    return sim::simulate(*cp, cfg);
}

sim::RunResult
runObserved(const compiler::CompiledProgram &program,
            const MachineConfig &cfg, obs::Timeline *timeline,
            obs::MetricsRecorder *metrics)
{
    sim::Machine m(program, cfg);
    sim::RecorderSink sink(m, timeline, metrics);
    m.setTraceSink(&sink);
    return m.run();
}

obs::Timeline::Naming
timelineNaming()
{
    obs::Timeline::Naming n;
    n.missClass = [](std::uint8_t v) {
        return std::string(
            mem::missClassName(static_cast<mem::MissClass>(v)));
    };
    n.markKind = [](std::uint8_t v) {
        switch (static_cast<compiler::MarkKind>(v)) {
          case compiler::MarkKind::Normal: return std::string("normal");
          case compiler::MarkKind::TimeRead:
            return std::string("time-read");
          case compiler::MarkKind::Bypass: return std::string("bypass");
        }
        return csprintf("mark%d", unsigned(v));
    };
    return n;
}

CellVerdict
soundness(const sim::RunResult &r)
{
    if (r.oracleViolations != 0 || r.doallViolations != 0 ||
        r.shadowViolations != 0)
        return {verify::ExitViolation,
                csprintf("%d oracle / %d race / %d shadow violations - "
                         "experiment invalid",
                         r.oracleViolations, r.doallViolations,
                         r.shadowViolations)};
    if (r.aborted())
        return {verify::ExitAbort,
                csprintf("run aborted (%s: %s) - experiment invalid",
                         fault::abortKindName(r.abort.kind),
                         r.abort.reason)};
    return {};
}

FaultOutcome
classifyFaulted(const sim::RunResult &r, const sim::RunResult &ref)
{
    if (r.aborted())
        return FaultOutcome::Aborted;
    if (r.oracleViolations || r.shadowViolations || r.doallViolations)
        return FaultOutcome::Flagged;
    if (r.tasks != ref.tasks || r.epochs != ref.epochs ||
        r.parallelEpochs != ref.parallelEpochs || r.reads != ref.reads ||
        r.writes != ref.writes)
        return FaultOutcome::Silent;
    return r.faultsInjected ? FaultOutcome::Recovered : FaultOutcome::Clean;
}

} // namespace bench
} // namespace hscd
