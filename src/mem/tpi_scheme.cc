#include "mem/tpi_scheme.hh"

#include <algorithm>

namespace hscd {
namespace mem {

using compiler::MarkKind;

TpiScheme::TpiScheme(const MachineConfig &cfg, MainMemory &memory,
                     net::Network &network)
    : CoherenceScheme(cfg, memory, network),
      _history(cfg.procs, Addr(memory.words()) * 4, cfg.lineBytes),
      _phase(EpochId{1} << (cfg.timetagBits - 1))
{
    _caches.reserve(cfg.procs);
    _wbuf.reserve(cfg.procs);
    for (unsigned p = 0; p < cfg.procs; ++p) {
        _caches.emplace_back(cfg, Addr(memory.words()) * 4);
        _wbuf.emplace_back(cfg.writeBufferAsCache,
                           cfg.writeBufferCacheWords);
    }
}

TpiScheme::Cache::Line &
TpiScheme::fill(ProcId proc, Addr addr, Cycles now)
{
    Cache &cache = _caches[proc];
    Addr base = cache.lineAddr(addr);
    unsigned widx = cache.wordIndex(addr);
    // Refill in place when the line is already resident (a Time-Read miss
    // on a present-but-expired word); otherwise take the LRU victim.
    Cache::Line *frame = cache.lookup(addr, now);
    if (!frame) {
        frame = &cache.victim(addr, now);
        if (frame->valid)
            _history.record(proc, frame->base, LineEvent::Evicted);
    }
    Cache::Line &line = *frame;
    line.valid = true;
    line.base = base;
    line.lastUse = now;
    for (unsigned w = 0; w < cache.wordsPerLine(); ++w) {
        line.stamps[w] = _mem.read(base + Addr(w) * 4);
        // Side-filled words may still be written by a concurrent task of
        // the current epoch, so they are only vouched for up to EC - 1.
        // In epoch 0 there is no representable EC - 1: those words stay
        // invalid, exactly as tags come up invalid at boot.
        if (w == widx) {
            line.words[w].valid = true;
            line.words[w].tt = _epoch;
        } else if (_epoch > 0) {
            line.words[w].valid = true;
            line.words[w].tt = _epoch - 1;
        } else {
            line.words[w].valid = false;
            line.words[w].tt = 0;
        }
    }
    _history.record(proc, base, LineEvent::Cached);
    ++_stats.readPackets;
    _stats.readWords += cache.wordsPerLine();
    _net.addTraffic(1, cache.wordsPerLine());
    return line;
}

void
TpiScheme::maybeCorruptTag(Cache::Line *line)
{
    if (!_fault || !line || !_fault->fire(fault::Site::MemTagFlip))
        return;
    // Flip one stored bit of the word's TPI state: one of the n timetag
    // bits, or (one draw in n+1) the valid bit. A lowered tag or cleared
    // valid bit only costs a conservative miss; a raised tag or
    // spuriously-set valid bit can vouch for a stale word, which the
    // value-stamp oracle / shadow-epoch detector must then flag.
    const std::uint64_t bits = _fault->draw(fault::Site::MemTagFlip);
    TpiWord &w = line->words[bits % _cfg.wordsPerLine()];
    const unsigned bit = (bits >> 32) % (_cfg.timetagBits + 1);
    if (bit == _cfg.timetagBits)
        w.valid = !w.valid;
    else
        w.tt ^= EpochId{1} << bit;
}

AccessResult
TpiScheme::miss(const MemOp &op, MissClass cls, unsigned widx)
{
    AccessResult res;
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

AccessResult
TpiScheme::access(const MemOp &op)
{
    AccessResult res;
    Cache &cache = _caches[op.proc];
    unsigned widx = cache.wordIndex(op.addr);

    if (op.write) {
        ++_stats.writes;
        Cache::Line *line = cache.lookup(op.addr, op.now);
        if (!line) {
            ++_stats.writeMisses;
            line = &fill(op.proc, op.addr, op.now);
        }
        line->stamps[widx] = op.stamp;
        // A lock-protected write may be followed by another lock owner's
        // write to the same word later this epoch: the copy can only be
        // vouched for up to the previous epoch (or not at all in epoch 0,
        // where no older tag value exists).
        if (!op.critical) {
            line->words[widx].tt = _epoch;
            line->words[widx].valid = true;
        } else if (_epoch > 0) {
            line->words[widx].tt = _epoch - 1;
            line->words[widx].valid = true;
        } else {
            line->words[widx].tt = 0;
            line->words[widx].valid = false;
        }
        _mem.write(op.addr, op.stamp);
        Cycles extra = 0;
        if (!_wbuf[op.proc].noteWrite(op.addr)) {
            ++_stats.writePackets;
            ++_stats.writeWords;
            _net.addTraffic(1, 1);
            // The value always lands in memory above; a lost write-through
            // packet only delays the buffered write's completion.
            extra = reliableSend(op.proc, op.now, "write-through");
        }
        res.stall = finishWrite(op.proc, op.now,
                                _cfg.writeLatencyCycles +
                                    _net.contentionDelay(1) + extra);
        return res;
    }

    ++_stats.reads;
    Cache::Line *line = cache.lookup(op.addr, op.now);
    maybeCorruptTag(line);

    switch (op.mark) {
      case MarkKind::Normal: {
        if (line && line->words[widx].valid) {
            ++_stats.readHits;
            res.hit = true;
            res.stall = _cfg.hitCycles;
            res.observed = line->stamps[widx];
            return res;
        }
        MissClass cls = line ? MissClass::TagReset // word lost to a reset
                             : _history.classifyAbsent(op.proc, op.addr);
        return miss(op, cls, widx);
      }

      case MarkKind::TimeRead: {
        ++_stats.timeReads;
        // Hardware caps the representable distance at 2^n - 1; clamping
        // down is the conservative direction.
        EpochId d = _cfg.tpiUseDistance
                        ? std::min<EpochId>(op.distance, 2 * _phase - 1)
                        : 0;
        EpochId floor = _epoch >= d ? _epoch - d : 0;
        if (line && line->words[widx].valid &&
            line->words[widx].tt >= floor)
        {
            // Proven fresh: promote so later Time-Reads keep hitting.
            if (_cfg.tpiPromoteOnHit)
                line->words[widx].tt = _epoch;
            ++_stats.readHits;
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
        } else if (line) {
            cls = MissClass::TagReset;
        } else {
            cls = _history.classifyAbsent(op.proc, op.addr);
        }
        return miss(op, cls, widx);
      }

      case MarkKind::Bypass: {
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
        // Refresh the cached copy's value but not its timetag: the word
        // may be rewritten by another lock owner later this epoch.
        if (line)
            line->stamps[widx] = res.observed;
        _stats.noteMissLatency(res.stall);
        return res;
      }
    }
    panic("unreachable mark kind");
}

Cycles
TpiScheme::epochBoundary(EpochId new_epoch)
{
    CoherenceScheme::epochBoundary(new_epoch);
    for (WriteBuffer &wb : _wbuf)
        wb.drain();

    // Fault site mem.epoch: a processor's epoch-counter register was
    // corrupted during the epoch. The barrier broadcast of the new EC
    // exposes the mismatch; with per-word tags relative to a wrong EC
    // unusable, the processor resynchronizes by flash-invalidating its
    // cache and reloading the counter - fully recoverable, charged as a
    // reset-length stall on the barrier.
    Cycles recovery = 0;
    if (_fault && _fault->fire(fault::Site::MemEpochFlip)) {
        const ProcId p = static_cast<ProcId>(
            _fault->draw(fault::Site::MemEpochFlip) % _cfg.procs);
        flushCache(p);
        _fault->noteRecovered();
        ++_stats.coherencePackets; // EC reload broadcast
        _net.addTraffic(1, 0);
        recovery = _cfg.twoPhaseResetCycles;
    }

    // Two-phase reset: when EC enters a new phase, words last vouched for
    // a full wrap ago become ambiguous in n-bit arithmetic and are
    // invalidated (per word; the line stays for its younger words).
    if (new_epoch % _phase == 0 && new_epoch >= _phase) {
        EpochId cutoff = new_epoch - _phase;
        for (unsigned p = 0; p < _cfg.procs; ++p) {
            const unsigned wpl = _caches[p].wordsPerLine();
            _caches[p].forEachLine([&](Cache::Line &line) {
                bool any_valid = false;
                for (unsigned wi = 0; wi < wpl; ++wi) {
                    TpiWord &w = line.words[wi];
                    if (w.valid && w.tt < cutoff)
                        w.valid = false;
                    any_valid |= w.valid;
                }
                if (!any_valid) {
                    line.valid = false;
                    _history.record(p, line.base,
                                    LineEvent::InvalidatedTag);
                }
            });
        }
        ++_stats.tagResets;
        return _cfg.twoPhaseResetCycles + recovery;
    }
    return recovery;
}

void
TpiScheme::migrationDrain(ProcId p)
{
    _wbuf[p].drain();
}

void
TpiScheme::flushCache(ProcId p)
{
    _caches[p].forEachLine([&](Cache::Line &line) {
        _history.record(p, line.base, LineEvent::InvalidatedTag);
        line.valid = false;
    });
}

std::string
TpiScheme::postMortem() const
{
    std::string out = CoherenceScheme::postMortem();
    out += csprintf("  EC %d, phase length %d\n", _epoch, _phase);
    for (unsigned p = 0; p < _cfg.procs; ++p) {
        std::size_t lines = 0;
        _caches[p].forEachLine([&](const Cache::Line &) { ++lines; });
        out += csprintf("  proc %d: %d valid lines\n", p, lines);
    }
    return out;
}

} // namespace mem
} // namespace hscd
