/**
 * @file
 * The simulated multiprocessor: processors, caches, coherence scheme,
 * interconnect, memory, and the execution-driven engine that runs a
 * compiled program on them in global time order.
 */

#ifndef HSCD_SIM_MACHINE_HH
#define HSCD_SIM_MACHINE_HH

#include <memory>

#include "compiler/analysis.hh"
#include "fault/injector.hh"
#include "mem/coherence.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"
#include "sim/result.hh"

namespace hscd {

namespace obs {
class MetricsRecorder;
class Timeline;
} // namespace obs

namespace sim {

class TraceSink;

class Machine
{
  public:
    /** @p cp must outlive the machine. */
    Machine(const compiler::CompiledProgram &cp, MachineConfig cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Record every scheme-visible event into @p sink during run(). */
    void setTraceSink(TraceSink *sink) { _trace = sink; }

    /**
     * Observability attachment points. All three default to null and
     * every hook is branch-guarded on the pointer, so an unobserved run
     * pays only a handful of null checks - the zero-overhead guard in
     * the obs test suite and the perf_smoke 2% gate enforce this.
     */
    /** Record epoch spans / protocol flows / instants during run(). */
    void setTimeline(obs::Timeline *tl) { _timeline = tl; }
    /** Sample counter snapshots per epoch / N cycles during run(). */
    void setMetrics(obs::MetricsRecorder *m) { _metrics = m; }
    /** Accumulate phase wall-clock into RunResult::profile. */
    void enableProfiling(bool on = true) { _profiled = on; }

    /** Execute the whole program; callable once. */
    RunResult run();

    const MachineConfig &config() const { return _cfg; }
    const mem::CoherenceScheme &scheme() const { return *_scheme; }
    const net::Network &network() const { return _network; }
    /** Non-null iff the config's fault plan is enabled. */
    const fault::FaultInjector *faultInjector() const
    {
        return _faultInjector.get();
    }

  private:
    friend class Executor;

    const compiler::CompiledProgram &_cp;
    MachineConfig _cfg;
    mem::MainMemory _memory;
    net::Network _network;
    std::unique_ptr<mem::CoherenceScheme> _scheme;
    std::unique_ptr<fault::FaultInjector> _faultInjector;
    TraceSink *_trace = nullptr;
    obs::Timeline *_timeline = nullptr;
    obs::MetricsRecorder *_metrics = nullptr;
    bool _profiled = false;
    bool _ran = false;
};

/**
 * Convenience: compile nothing, just run @p cp under @p cfg.
 *
 * Thread-safety: a Machine owns all of its mutable state (counters,
 * memory image, network model, migration RNG), so concurrent simulate()
 * calls on distinct Machines are independent - even over one shared,
 * immutable CompiledProgram. The sweep engine relies on this.
 */
RunResult simulate(const compiler::CompiledProgram &cp,
                   const MachineConfig &cfg);

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_MACHINE_HH
