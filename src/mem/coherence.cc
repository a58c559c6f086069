#include "mem/coherence.hh"

#include "common/log.hh"
#include "mem/base_scheme.hh"
#include "mem/directory_scheme.hh"
#include "mem/sc_scheme.hh"
#include "mem/tpi_scheme.hh"
#include "mem/vc_scheme.hh"

namespace hscd {
namespace mem {

const char *
missClassName(MissClass c)
{
    switch (c) {
      case MissClass::None:
        return "hit";
      case MissClass::Cold:
        return "cold";
      case MissClass::Replacement:
        return "replacement";
      case MissClass::TrueShare:
        return "true-share";
      case MissClass::FalseShare:
        return "false-share";
      case MissClass::Conservative:
        return "conservative";
      case MissClass::TagReset:
        return "tag-reset";
      case MissClass::Uncached:
        return "uncached";
    }
    return "?";
}

CoherenceScheme::CoherenceScheme(const MachineConfig &cfg,
                                 MainMemory &memory, net::Network &network)
    : _cfg(cfg), _mem(memory), _net(network), _writeDone(cfg.procs, 0)
{
}

Cycles
CoherenceScheme::epochBoundary(EpochId new_epoch)
{
    _epoch = new_epoch;
    return 0;
}

std::string
CoherenceScheme::postMortem() const
{
    std::string out = csprintf("scheme %s epoch %d\n",
                               schemeName(_cfg.scheme), _epoch);
    for (ProcId p = 0; p < _cfg.procs; p++) {
        if (_writeDone[p])
            out += csprintf("  proc %d: writes drain at cycle %d\n", p,
                            _writeDone[p]);
    }
    return out;
}

Cycles
CoherenceScheme::sendWithFaults(ProcId p, Cycles now, const char *what)
{
    net::MsgFate fate = _net.deliver();
    Cycles extra = 0;
    unsigned attempt = 0;
    while (fate.copies == 0) {
        if (attempt >= _cfg.faultMaxRetries) {
            fault::AbortInfo info;
            info.kind = fault::AbortKind::Protocol;
            info.reason = csprintf(
                "%s from proc %d lost %d times; retry budget exhausted",
                what, p, attempt + 1);
            info.cycle = now + extra;
            info.epoch = _epoch;
            info.proc = p;
            info.snapshot = postMortem();
            throw fault::RunAbort(std::move(info));
        }
        // Wait out the ack timeout, doubling each attempt, and resend.
        extra += _cfg.faultAckTimeoutCycles << attempt;
        ++attempt;
        _fault->noteRetry();
        ++_stats.coherencePackets;
        _net.addTraffic(1, 0);
        fate = _net.deliver();
    }
    if (attempt > 0)
        _fault->noteRecovered();
    if (fate.copies > 1) {
        // Duplicate delivery: the protocol absorbs the second copy (all
        // messages are idempotent) but it still loaded the network.
        _stats.coherencePackets += fate.copies - 1;
        _net.addTraffic(fate.copies - 1, 0);
    }
    return extra + fate.extraDelay;
}

std::unique_ptr<CoherenceScheme>
makeScheme(const MachineConfig &cfg, MainMemory &memory,
           net::Network &network)
{
    switch (cfg.scheme) {
      case SchemeKind::Base:
        return std::make_unique<BaseScheme>(cfg, memory, network);
      case SchemeKind::SC:
        return std::make_unique<ScScheme>(cfg, memory, network);
      case SchemeKind::TPI:
        return std::make_unique<TpiScheme>(cfg, memory, network);
      case SchemeKind::HW:
        return std::make_unique<DirectoryScheme>(cfg, memory, network);
      case SchemeKind::VC:
        return std::make_unique<VcScheme>(cfg, memory, network);
    }
    panic("unreachable scheme kind");
}

} // namespace mem
} // namespace hscd
