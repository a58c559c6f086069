#include "mem/base_scheme.hh"

namespace hscd {
namespace mem {

BaseScheme::BaseScheme(const MachineConfig &cfg, MainMemory &memory,
                       net::Network &network)
    : CoherenceScheme(cfg, memory, network)
{
    _wbuf.reserve(cfg.procs);
    for (unsigned p = 0; p < cfg.procs; ++p)
        _wbuf.emplace_back(cfg.writeBufferAsCache,
                           cfg.writeBufferCacheWords);
}

AccessResult
BaseScheme::access(const MemOp &op)
{
    AccessResult res;
    if (op.write) {
        ++_stats.writes;
        _mem.write(op.addr, op.stamp);
        Cycles extra = 0;
        if (!_wbuf[op.proc].noteWrite(op.addr)) {
            ++_stats.writePackets;
            ++_stats.writeWords;
            _net.addTraffic(1, 1);
            extra = reliableSend(op.proc, op.now, "write-through");
        }
        res.hit = false;
        res.stall = finishWrite(op.proc, op.now,
                                _cfg.writeLatencyCycles +
                                    _net.contentionDelay(1) + extra);
        return res;
    }

    ++_stats.reads;
    ++_stats.readMisses;
    _stats.classify(MissClass::Uncached);
    ++_stats.readPackets;
    ++_stats.readWords;
    _net.addTraffic(1, 1);
    res.hit = false;
    res.cls = MissClass::Uncached;
    res.stall = wordFetchLatency() +
                reliableSend(op.proc, op.now, "word fetch");
    res.observed = _mem.read(op.addr);
    _stats.noteMissLatency(res.stall);
    return res;
}

Cycles
BaseScheme::epochBoundary(EpochId new_epoch)
{
    for (WriteBuffer &wb : _wbuf)
        wb.drain();
    return CoherenceScheme::epochBoundary(new_epoch);
}

void
BaseScheme::migrationDrain(ProcId p)
{
    _wbuf[p].drain();
}

} // namespace mem
} // namespace hscd
