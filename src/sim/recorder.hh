/**
 * @file
 * The sink that turns a run's TraceSink events into the observability
 * artifacts: the Perfetto timeline (obs::Timeline) and the counter
 * time series (obs::MetricsRecorder). The executor reports to it like
 * to any other sink, so the interpreter and the epoch-stream fast path
 * produce identical artifacts by construction.
 */

#ifndef HSCD_SIM_RECORDER_HH
#define HSCD_SIM_RECORDER_HH

#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"

namespace hscd {
namespace sim {

/**
 * Feeds an optional timeline and an optional metrics recorder from the
 * events of @p m's run, reading counters from @p m for metric rows.
 * Attach it with m.setTraceSink(&sink); it must outlive m.run().
 */
class RecorderSink : public TraceSink
{
  public:
    RecorderSink(const Machine &m, obs::Timeline *timeline,
                 obs::MetricsRecorder *metrics)
        : _m(m), _tl(timeline), _mx(metrics)
    {
    }

    void onAccess(const mem::MemOp &) override {}
    void onBoundary(EpochId) override {}
    void onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
                   EpochId epoch) override;
    void onSpan(ProcId p, EpochId epoch, Cycles begin,
                Cycles end) override;
    void onEpochStart(EpochId epoch, Cycles t, Cycles reset) override;
    void onAbort(const fault::AbortInfo &info, EpochId epoch) override;

  private:
    /** The cumulative counters at cycle @p now of epoch @p epoch. */
    obs::MetricSample sample(EpochId epoch, Cycles now) const;

    const Machine &_m;
    obs::Timeline *_tl;
    obs::MetricsRecorder *_mx;
    /** Injected faults already reported as FaultInjected instants. */
    Counter _faultsSeen = 0;
};

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_RECORDER_HH
