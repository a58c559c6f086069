#include "mem/vc_scheme.hh"

#include "common/log.hh"

namespace hscd {
namespace mem {

using compiler::MarkKind;

VcScheme::VcScheme(const MachineConfig &cfg, MainMemory &memory,
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

std::uint64_t &
VcScheme::cvnSlot(std::uint32_t array)
{
    hscd_assert(array != static_cast<std::uint32_t>(-1),
                "VC needs the owning array of every reference");
    if (array >= _cvn.size())
        _cvn.resize(array + 1, 0);
    return _cvn[array];
}

std::uint64_t
VcScheme::cvn(std::uint32_t array) const
{
    return array < _cvn.size() ? _cvn[array] : 0;
}

VcScheme::Cache::Line &
VcScheme::fill(ProcId proc, const MemOp &op)
{
    Cache &cache = _caches[proc];
    Addr base = cache.lineAddr(op.addr);
    Cache::Line *frame = cache.lookup(op.addr, op.now);
    if (!frame) {
        frame = &cache.victim(op.addr, op.now);
        if (frame->valid)
            _history.record(proc, frame->base, LineEvent::Evicted);
    }
    Cache::Line &line = *frame;
    line.valid = true;
    line.base = base;
    line.lastUse = op.now;
    line.meta.arrayId = op.arrayId;
    std::uint64_t version = cvnSlot(op.arrayId);
    for (unsigned w = 0; w < cache.wordsPerLine(); ++w) {
        line.stamps[w] = _mem.read(base + Addr(w) * 4);
        line.words[w].valid = true;
        line.words[w].bvn = version;
    }
    _history.record(proc, base, LineEvent::Cached);
    ++_stats.readPackets;
    _stats.readWords += cache.wordsPerLine();
    _net.addTraffic(1, cache.wordsPerLine());
    return line;
}

AccessResult
VcScheme::miss(const MemOp &op, MissClass cls, unsigned widx)
{
    AccessResult res;
    Cache::Line &line = fill(op.proc, op);
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

AccessResult
VcScheme::access(const MemOp &op)
{
    AccessResult res;
    Cache &cache = _caches[op.proc];
    unsigned widx = cache.wordIndex(op.addr);
    std::uint64_t version = cvnSlot(op.arrayId);

    if (op.write) {
        ++_stats.writes;
        _writtenArrays.insert(op.arrayId);
        Cache::Line *line = cache.lookup(op.addr, op.now);
        res.hit = line != nullptr;
        if (!line) {
            ++_stats.writeMisses;
            line = &fill(op.proc, op);
        }
        line->stamps[widx] = op.stamp;
        line->words[widx].valid = true;
        // The writer's copy survives the next version bump - unless the
        // write is lock-/sync-ordered, where a later lock owner may
        // produce a newer value within the same version.
        line->words[widx].bvn = op.critical ? version : version + 1;
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
    Cache::Line *line = cache.lookup(op.addr, op.now);

    if (op.mark == MarkKind::Bypass) {
        ++_stats.bypassReads;
        ++_stats.readMisses;
        MissClass cls;
        if (line && line->words[widx].valid) {
            cls = line->stamps[widx] == _mem.read(op.addr)
                      ? MissClass::Conservative
                      : MissClass::TrueShare;
        } else {
            cls = _history.classifyAbsent(op.proc, op.addr);
        }
        _stats.classify(cls);
        ++_stats.readPackets;
        ++_stats.readWords;
        _net.addTraffic(1, 1);
        res.hit = false;
        res.cls = cls;
        res.stall = wordFetchLatency() +
                    reliableSend(op.proc, op.now, "bypass word fetch");
        res.observed = _mem.read(op.addr);
        if (line)
            line->stamps[widx] = res.observed;
        _stats.noteMissLatency(res.stall);
        return res;
    }

    // VC has no distance operand: Normal and Time-Read reads are the
    // same load; validity is the per-variable version comparison.
    if (op.mark == MarkKind::TimeRead)
        ++_stats.timeReads;
    if (line && line->words[widx].valid &&
        line->words[widx].bvn >= version)
    {
        ++_stats.readHits;
        if (op.mark == MarkKind::TimeRead)
            ++_stats.timeReadHits;
        res.hit = true;
        res.stall = _cfg.hitCycles;
        res.observed = line->stamps[widx];
        return res;
    }

    MissClass cls;
    if (line && line->words[widx].valid) {
        cls = line->stamps[widx] == _mem.read(op.addr)
                  ? MissClass::Conservative
                  : MissClass::TrueShare;
    } else {
        cls = _history.classifyAbsent(op.proc, op.addr);
    }
    return miss(op, cls, widx);
}

Cycles
VcScheme::epochBoundary(EpochId new_epoch)
{
    CoherenceScheme::epochBoundary(new_epoch);
    for (WriteBuffer &wb : _wbuf)
        wb.drain();
    for (std::uint32_t a : _writtenArrays)
        ++cvnSlot(a);
    _writtenArrays.clear();
    return 0;
}

void
VcScheme::migrationDrain(ProcId p)
{
    _wbuf[p].drain();
}

void
VcScheme::flushCache(ProcId p)
{
    _caches[p].forEachLine([&](Cache::Line &line) {
        _history.record(p, line.base, LineEvent::Evicted);
        line.valid = false;
    });
}

} // namespace mem
} // namespace hscd
