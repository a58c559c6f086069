#include "mem/sc_scheme.hh"

namespace hscd {
namespace mem {

using compiler::MarkKind;

ScScheme::ScScheme(const MachineConfig &cfg, MainMemory &memory,
                   net::Network &network)
    : CoherenceScheme(cfg, memory, network),
      _history(cfg.procs, Addr(memory.words()) * 4, cfg.lineBytes)
{
    _caches.reserve(cfg.procs);
    _wbuf.reserve(cfg.procs);
    for (unsigned p = 0; p < cfg.procs; ++p) {
        _caches.emplace_back(cfg, Addr(memory.words()) * 4);
        _wbuf.emplace_back(cfg.writeBufferAsCache,
                           cfg.writeBufferCacheWords);
    }
}

ScScheme::Cache::Line &
ScScheme::fill(ProcId proc, Addr addr, Cycles now)
{
    Cache &cache = _caches[proc];
    Addr base = cache.lineAddr(addr);
    Cache::Line &line = cache.victim(addr, now);
    if (line.valid)
        _history.record(proc, line.base, LineEvent::Evicted);
    line.valid = true;
    line.base = base;
    line.lastUse = now;
    for (unsigned w = 0; w < cache.wordsPerLine(); ++w)
        line.stamps[w] = _mem.read(base + Addr(w) * 4);
    _history.record(proc, base, LineEvent::Cached);
    ++_stats.readPackets;
    _stats.readWords += cache.wordsPerLine();
    _net.addTraffic(1, cache.wordsPerLine());
    return line;
}

AccessResult
ScScheme::access(const MemOp &op)
{
    AccessResult res;
    Cache &cache = _caches[op.proc];
    unsigned widx = cache.wordIndex(op.addr);

    if (op.write) {
        ++_stats.writes;
        Cache::Line *line = cache.lookup(op.addr, op.now);
        res.hit = line != nullptr;
        if (!line) {
            // Write-allocate: bring the line in (off the critical path).
            ++_stats.writeMisses;
            line = &fill(op.proc, op.addr, op.now);
        }
        line->stamps[widx] = op.stamp;
        _mem.write(op.addr, op.stamp);
        Cycles extra = 0;
        if (!_wbuf[op.proc].noteWrite(op.addr)) {
            ++_stats.writePackets;
            ++_stats.writeWords;
            _net.addTraffic(1, 1);
            extra = reliableSend(op.proc, op.now, "write-through");
        }
        res.stall = finishWrite(op.proc, op.now,
                                _cfg.writeLatencyCycles +
                                    _net.contentionDelay(1) + extra);
        return res;
    }

    ++_stats.reads;
    const bool marked = op.mark != MarkKind::Normal;
    if (marked) {
        ++_stats.timeReads; // SC executes the same marked set
        Cache::Line *line = cache.lookup(op.addr, op.now);
        MissClass cls;
        if (line) {
            cls = line->stamps[widx] == _mem.read(op.addr)
                      ? MissClass::Conservative
                      : MissClass::TrueShare;
            line->valid = false; // block invalidate
        } else {
            cls = _history.classifyAbsent(op.proc, op.addr);
        }
        Cache::Line &fresh = fill(op.proc, op.addr, op.now);
        ++_stats.readMisses;
        _stats.classify(cls);
        res.hit = false;
        res.cls = cls;
        res.stall = lineFetchLatency() +
                    reliableSend(op.proc, op.now, "marked refetch");
        res.observed = fresh.stamps[widx];
        _stats.noteMissLatency(res.stall);
        return res;
    }

    Cache::Line *hitLine = cache.lookup(op.addr, op.now);
    if (hitLine && _fault && _fault->fire(fault::Site::MemTagFlip)) {
        // SC keeps no per-word tags, so the stored-bit flip lands on the
        // line valid bit: the copy is lost and refetched. Always
        // recoverable - normal reads were compiler-proven fresh, and the
        // refetch can only observe newer data.
        hitLine->valid = false;
        hitLine = nullptr;
        _fault->noteRecovered();
    }
    if (hitLine) {
        ++_stats.readHits;
        res.hit = true;
        res.stall = _cfg.hitCycles;
        res.observed = hitLine->stamps[widx];
        return res;
    }

    MissClass cls = _history.classifyAbsent(op.proc, op.addr);
    Cache::Line &line = fill(op.proc, op.addr, op.now);
    ++_stats.readMisses;
    _stats.classify(cls);
    res.hit = false;
    res.cls = cls;
    res.stall = lineFetchLatency() +
                reliableSend(op.proc, op.now, "line fetch");
    res.observed = line.stamps[widx];
    _stats.noteMissLatency(res.stall);
    return res;
}

Cycles
ScScheme::epochBoundary(EpochId new_epoch)
{
    for (WriteBuffer &wb : _wbuf)
        wb.drain();
    return CoherenceScheme::epochBoundary(new_epoch);
}

void
ScScheme::migrationDrain(ProcId p)
{
    _wbuf[p].drain();
}

void
ScScheme::flushCache(ProcId p)
{
    _caches[p].forEachLine([&](Cache::Line &line) {
        _history.record(p, line.base, LineEvent::Evicted);
        line.valid = false;
    });
}

} // namespace mem
} // namespace hscd
