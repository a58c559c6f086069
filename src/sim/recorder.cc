#include "sim/recorder.hh"

namespace hscd {
namespace sim {

void
RecorderSink::onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
                        EpochId epoch)
{
    if (_tl && !res.hit && res.cls != mem::MissClass::None)
        _tl->missFlow(op.proc, epoch, op.addr, op.now, res.stall,
                      static_cast<std::uint8_t>(res.cls),
                      static_cast<std::uint8_t>(op.mark), op.distance);
    // The issuing processor's clock after the reference.
    const Cycles now = op.now + res.stall;
    if (_mx && _mx->dueCycle(now))
        _mx->record(sample(epoch, now));
}

void
RecorderSink::onSpan(ProcId p, EpochId epoch, Cycles begin, Cycles end)
{
    if (_tl)
        _tl->procSpan(p, epoch, begin, end);
}

void
RecorderSink::onEpochStart(EpochId epoch, Cycles t, Cycles reset)
{
    const std::uint32_t mem_track =
        obs::Timeline::memTrack(_m.config().procs);
    if (_tl && reset > 0) {
        _tl->resetWindow(epoch, t - reset, reset);
        _tl->instant(obs::Timeline::InstantKind::TagReset, mem_track, epoch,
                     t - reset, _m.scheme().stats().tagResets);
    }
    if (_tl && _m.faultInjector()) {
        const Counter n = _m.faultInjector()->stats().totalInjected();
        if (n != _faultsSeen) {
            _tl->instant(obs::Timeline::InstantKind::FaultInjected,
                         mem_track, epoch, t, n - _faultsSeen);
            _faultsSeen = n;
        }
    }
    if (_mx && _mx->dueEpoch(epoch))
        _mx->record(sample(epoch, t));
}

void
RecorderSink::onAbort(const fault::AbortInfo &info, EpochId epoch)
{
    if (_tl)
        _tl->instant(obs::Timeline::InstantKind::Abort, info.proc, epoch,
                     info.cycle, static_cast<std::uint64_t>(info.kind));
}

obs::MetricSample
RecorderSink::sample(EpochId epoch, Cycles now) const
{
    const mem::CoherenceScheme &scheme = _m.scheme();
    obs::MetricSample s;
    s.epoch = epoch;
    s.cycle = now;
    copySchemeCounters(s, scheme.stats());
    s.trafficPackets = _m.network().totalPackets();
    s.trafficWords = _m.network().totalWords();
    if (_m.faultInjector())
        s.faultsInjected = _m.faultInjector()->stats().totalInjected();
    for (ProcId p = 0; p < _m.config().procs; ++p) {
        const Cycles drain = scheme.writeDrainTime(p);
        if (drain > now)
            s.writePending += drain - now;
    }
    s.networkLoad = _m.network().load();
    return s;
}

} // namespace sim
} // namespace hscd
