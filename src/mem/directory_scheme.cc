#include "mem/directory_scheme.hh"

#include <bit>

#include "common/log.hh"

namespace hscd {
namespace mem {

DirectoryScheme::DirectoryScheme(const MachineConfig &cfg,
                                 MainMemory &memory, net::Network &network)
    : CoherenceScheme(cfg, memory, network),
      _dir(memory.words() * 4 / cfg.lineBytes + 1),
      _history(cfg.procs, Addr(memory.words()) * 4, cfg.lineBytes),
      _lineShift(floorLog2(cfg.lineBytes))
{
    hscd_assert(cfg.procs <= 64,
                "full-map presence bits limited to 64 processors here");
    hscd_assert(cfg.wordsPerLine() <= 64,
                "the accessed-word mask is limited to 64 words per line");
    _caches.reserve(cfg.procs);
    for (unsigned p = 0; p < cfg.procs; ++p)
        _caches.emplace_back(cfg, Addr(memory.words()) * 4);
}

DirEntry &
DirectoryScheme::entry(Addr addr)
{
    hscd_dassert(lineIndex(addr) < _dir.size(),
                 "directory entry for %d beyond %d lines", addr,
                 _dir.size());
    return _dir[lineIndex(addr)];
}

const DirEntry &
DirectoryScheme::dirEntry(Addr addr) const
{
    hscd_dassert(lineIndex(addr) < _dir.size(),
                 "directory entry for %d beyond %d lines", addr,
                 _dir.size());
    return _dir[lineIndex(addr)];
}

void
DirectoryScheme::writeBack(ProcId proc, Cache::Line &line)
{
    Cache &cache = _caches[proc];
    for (unsigned w = 0; w < cache.wordsPerLine(); ++w)
        _mem.write(line.base + Addr(w) * 4, cache.stamps(line)[w]);
    line.meta.dirty = false;
    ++_stats.writebackPackets;
    _stats.writebackWords += cache.wordsPerLine();
    _net.addTraffic(1, cache.wordsPerLine());
}

unsigned
DirectoryScheme::invalidateSharers(DirEntry &e, Addr base, ProcId except,
                                   unsigned written_word)
{
    unsigned count = 0;
    std::uint64_t bits = e.sharers;
    for (ProcId q = 0; bits; ++q, bits >>= 1) {
        if (!(bits & 1) || q == except)
            continue;
        Cache::Line *line = _caches[q].lookup(base, 0);
        if (!line && _fault) {
            // Presence bit without a cached line: on a perfect machine
            // this is a protocol bug, under fault injection it is the
            // signature of a flipped directory bit. The phantom sharer
            // NACKs the invalidation and the directory repairs itself.
            e.sharers &= ~(std::uint64_t{1} << q);
            _fault->noteRecovered();
            _stats.coherencePackets += 2; // invalidation + NACK
            _net.addTraffic(2, 0);
            continue;
        }
        hscd_assert(line, "directory presence bit without a cached line");
        if (line->meta.dirty)
            writeBack(q, *line);
        const bool used =
            line->meta.accessedMask & (std::uint64_t{1} << written_word);
        _history.record(q, base,
                        used ? LineEvent::InvalidatedTrue
                             : LineEvent::InvalidatedFalse);
        line->valid = false;
        ++count;
    }
    e.sharers &= std::uint64_t{1} << except;
    _stats.invalidationsSent += count;
    _stats.coherencePackets += 2 * count; // invalidation + ack
    _net.addTraffic(2 * count, 0);
    return count;
}

void
DirectoryScheme::downgradeOwner(DirEntry &e, Addr base)
{
    Cache::Line *line = _caches[e.owner].lookup(base, 0);
    hscd_assert(line && line->meta.dirty, "stale directory owner");
    writeBack(e.owner, *line);
    e.state = DirEntry::State::Shared;
    e.owner = invalidProc;
    _stats.coherencePackets += 2; // forward request + response
    _net.addTraffic(2, 0);
}

void
DirectoryScheme::maybeCorruptEntry(DirEntry &e)
{
    if (!_fault || !_fault->fire(fault::Site::DirPresenceFlip))
        return;
    // Flip one presence bit. A spuriously-set bit is repaired by the
    // NACK path in invalidateSharers; a cleared bit leaves a sharer the
    // directory forgot, whose next stale hit the soundness oracles must
    // flag (this is the "silently wrong" hazard the R1 campaign hunts).
    e.sharers ^=
        std::uint64_t{1} << (_fault->draw(fault::Site::DirPresenceFlip) %
                             _cfg.procs);
}

Cycles
DirectoryScheme::overflowPenalty(DirEntry &e)
{
    if (_cfg.directoryPtrs == 0)
        return 0;
    unsigned sharers = static_cast<unsigned>(std::popcount(e.sharers));
    if (sharers <= _cfg.directoryPtrs) {
        e.overflowed = false;
        return 0;
    }
    // Software handler services the pointer overflow (LimitLess style).
    e.overflowed = true;
    ++_stats.coherencePackets;
    _net.addTraffic(1, 0);
    return _cfg.directoryOverflowCycles;
}

DirectoryScheme::Cache::Line &
DirectoryScheme::fill(ProcId proc, Addr addr, Cycles now)
{
    Cache &cache = _caches[proc];
    Addr base = cache.lineAddr(addr);
    Cache::Line &line = cache.victim(addr, now);
    if (line.valid) {
        // Evict: tell the directory, write back if we own it.
        DirEntry &v = entry(line.base);
        if (line.meta.dirty) {
            writeBack(proc, line);
            v.state = DirEntry::State::Uncached;
            v.owner = invalidProc;
            v.sharers = 0;
        } else {
            v.sharers &= ~(std::uint64_t{1} << proc);
            if (v.sharers == 0)
                v.state = DirEntry::State::Uncached;
        }
        _history.record(proc, line.base, LineEvent::Evicted);
    }
    line.valid = true;
    line.base = base;
    line.lastUse = now;
    line.meta.dirty = false;
    line.meta.accessedMask = 0;
    for (unsigned w = 0; w < cache.wordsPerLine(); ++w)
        cache.stamps(line)[w] = _mem.read(base + Addr(w) * 4);
    _history.record(proc, base, LineEvent::Cached);
    ++_stats.readPackets;
    _stats.readWords += cache.wordsPerLine();
    _net.addTraffic(1, cache.wordsPerLine());
    return line;
}

AccessResult
DirectoryScheme::access(const MemOp &op)
{
    AccessResult res;
    Cache &cache = _caches[op.proc];
    unsigned widx = cache.wordIndex(op.addr);
    Addr base = cache.lineAddr(op.addr);
    const std::uint64_t self = std::uint64_t{1} << op.proc;

    if (!op.write) {
        ++_stats.reads;
        if (Cache::Line *line = cache.lookup(op.addr, op.now)) {
            line->meta.accessedMask |= std::uint64_t{1} << widx;
            ++_stats.readHits;
            res.hit = true;
            res.stall = _cfg.hitCycles;
            res.observed = cache.stamps(*line)[widx];
            return res;
        }

        DirEntry &e = entry(base);
        maybeCorruptEntry(e);
        Cycles latency = lineFetchLatency();
        latency += reliableSend(op.proc, op.now, "read line request");
        if (e.state == DirEntry::State::Modified) {
            hscd_assert(e.owner != op.proc,
                        "modified owner missed its own line");
            downgradeOwner(e, base);
            latency += _cfg.dirtyMissExtraCycles;
        }
        MissClass cls = _history.classifyAbsent(op.proc, op.addr);
        Cache::Line &line = fill(op.proc, op.addr, op.now);
        line.meta.accessedMask = std::uint64_t{1} << widx;
        e.sharers |= self;
        e.state = DirEntry::State::Shared;
        latency += overflowPenalty(e);

        ++_stats.readMisses;
        _stats.classify(cls);
        res.hit = false;
        res.cls = cls;
        res.stall = latency;
        res.observed = cache.stamps(line)[widx];
        _stats.noteMissLatency(latency);
        return res;
    }

    ++_stats.writes;
    Cache::Line *line = cache.lookup(op.addr, op.now);
    DirEntry &e = entry(base);

    if (line && line->meta.dirty) {
        // Write hit in M: cheapest path.
        cache.stamps(*line)[widx] = op.stamp;
        line->meta.accessedMask |= std::uint64_t{1} << widx;
        res.hit = true;
        res.stall = _cfg.hitCycles;
        return res;
    }

    if (line) {
        // Write hit in S: upgrade needs invalidations (weak consistency:
        // buffered, the processor does not stall).
        maybeCorruptEntry(e);
        Cycles extra = reliableSend(op.proc, op.now, "upgrade request");
        unsigned n = invalidateSharers(e, base, op.proc, widx);
        e.state = DirEntry::State::Modified;
        e.owner = op.proc;
        e.sharers = self;
        line->meta.dirty = true;
        cache.stamps(*line)[widx] = op.stamp;
        line->meta.accessedMask |= std::uint64_t{1} << widx;
        res.hit = true;
        res.stall = finishWrite(op.proc, op.now,
                                _cfg.writeLatencyCycles +
                                    _net.contentionDelay(2) + Cycles(n) +
                                    extra);
        return res;
    }

    // Write miss: fetch exclusive.
    maybeCorruptEntry(e);
    Cycles latency = lineFetchLatency();
    latency += reliableSend(op.proc, op.now, "exclusive line request");
    if (e.state == DirEntry::State::Modified) {
        hscd_assert(e.owner != op.proc,
                    "modified owner missed its own line");
        Cache::Line *owned = _caches[e.owner].lookup(base, 0);
        hscd_assert(owned && owned->meta.dirty, "stale directory owner");
        writeBack(e.owner, *owned);
        const bool used =
            owned->meta.accessedMask & (std::uint64_t{1} << widx);
        _history.record(e.owner, base,
                        used ? LineEvent::InvalidatedTrue
                             : LineEvent::InvalidatedFalse);
        owned->valid = false;
        e.sharers = 0;
        _stats.coherencePackets += 2;
        ++_stats.invalidationsSent;
        _net.addTraffic(2, 0);
        latency += _cfg.dirtyMissExtraCycles;
    } else if (e.state == DirEntry::State::Shared) {
        invalidateSharers(e, base, op.proc, widx);
        e.sharers = 0;
    }

    ++_stats.writeMisses;
    Cache::Line &filled = fill(op.proc, op.addr, op.now);
    filled.meta.dirty = true;
    cache.stamps(filled)[widx] = op.stamp;
    filled.meta.accessedMask = std::uint64_t{1} << widx;
    e.state = DirEntry::State::Modified;
    e.owner = op.proc;
    e.sharers = self;
    latency += overflowPenalty(e);

    res.hit = false;
    res.stall = finishWrite(op.proc, op.now, latency);
    return res;
}

std::string
DirectoryScheme::postMortem() const
{
    std::string out = CoherenceScheme::postMortem();
    unsigned shown = 0;
    for (std::size_t i = 0; i < _dir.size() && shown < 32; ++i) {
        const DirEntry &e = _dir[i];
        if (e.state == DirEntry::State::Uncached)
            continue;
        out += csprintf(
            "  line %#x: %s sharers=%#x owner=%d\n", i * _cfg.lineBytes,
            e.state == DirEntry::State::Modified ? "M" : "S", e.sharers,
            e.owner == invalidProc ? -1 : int(e.owner));
        ++shown;
    }
    return out;
}

} // namespace mem
} // namespace hscd
