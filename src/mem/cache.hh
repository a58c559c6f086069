/**
 * @file
 * Generic set-associative cache array with per-word metadata.
 *
 * The coherence schemes differ in what they must remember per word (TPI:
 * timetags) and per line (HW: MSI state), so the array is templated over
 * both. Value stamps per word are always kept: they are the simulated
 * "data" the coherence oracle checks.
 */

#ifndef HSCD_MEM_CACHE_HH
#define HSCD_MEM_CACHE_HH

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/zeroed.hh"
#include "mem/machine_config.hh"
#include "mem/memory.hh"

namespace hscd {
namespace mem {

/** Empty metadata for schemes that need none. */
struct NoMeta
{
};

/**
 * Frames are fixed-stride records, each laid out as
 *
 *     [ Line header | wordsPerLine() ValueStamps | wordsPerLine() WordMetas ]
 *
 * so a frame's stamps and word metadata are found from the frame itself
 * (stamps(), words()): no per-frame pointer is stored or bound, and an
 * empty WordMeta takes no bytes.
 *
 * Only the sets the data can reach exist: the set index is the line
 * number masked by the configured (power-of-two) set count, so an
 * address below data_bytes never indexes a set at or beyond
 * min(ceil(data_bytes / lineBytes), sets). Each of those sets' ways is
 * one entry of a zeroed frame table; a null entry is a way nothing has
 * filled, and lookup() misses on it without touching a frame. The first
 * victim() on a null way takes the next frame, already zeroed
 * (common/zeroed.hh), from page-sized blocks handed out in fill order, so
 * the frames a processor fills sit packed together whichever sets they
 * map to. A block is never moved or freed before the cache, so a Line
 * reference stays valid for the cache's lifetime. The all-zero frame is
 * an invalid line with zeroed metadata, so WordMeta and LineMeta must be
 * trivially copyable and reset to all zero bits. A Machine is built per
 * simulated run with P caches, and each processor fills a small part of
 * its cache: construction, memory and teardown grow with the frames a
 * run fills, not with P times the cache size.
 */
template <typename WordMeta = NoMeta, typename LineMeta = NoMeta>
class CacheArray
{
    static_assert(std::is_trivially_copyable_v<WordMeta> &&
                      std::is_trivially_copyable_v<LineMeta>,
                  "cache frames start as zero bytes");

  public:
    struct Line
    {
        Addr base = 0;                 ///< line-aligned address
        Cycles lastUse = 0;            ///< for LRU
        [[no_unique_address]] LineMeta meta{};
        bool valid = false;
    };

    /**
     * @param data_bytes upper bound on simulated addresses, or 0 for
     * none (every set exists).
     */
    CacheArray(const MachineConfig &cfg, Addr data_bytes = 0)
        : _lineBytes(cfg.lineBytes), _lineShift(floorLog2(cfg.lineBytes)),
          _assoc(cfg.assoc), _setMask(cfg.sets() - 1),
          _sets(reachableSets(cfg, data_bytes)),
          _stampOffset(roundUp(sizeof(Line), kAlign)),
          _wordOffset(_stampOffset + cfg.wordsPerLine() * sizeof(ValueStamp)),
          _stride(roundUp(_wordOffset + wordBytes(cfg.wordsPerLine()),
                          kAlign)),
          _framesPerBlock(std::max<std::size_t>(1, kBlockBytes / _stride)),
          _blockUsed(_framesPerBlock), _ways(_sets * _assoc)
    {
        hscd_assert(isPowerOf2(_lineBytes) && _lineBytes >= 4,
                    "line size must be a power of two >= 4");
        hscd_assert(isPowerOf2(_setMask + 1),
                    "set count must be a power of two");
    }

    Addr lineAddr(Addr a) const { return a & ~Addr(_lineBytes - 1); }
    unsigned
    wordIndex(Addr a) const
    {
        return static_cast<unsigned>((a & (_lineBytes - 1)) >> 2);
    }
    unsigned wordsPerLine() const
    {
        return static_cast<unsigned>(_lineBytes / 4);
    }
    /** Set index of the line holding @p addr. */
    std::size_t setOf(Addr addr) const
    {
        return (addr >> _lineShift) & _setMask;
    }

    /** The value stamps of @p line's words. */
    ValueStamp *
    stamps(Line &line) const
    {
        return reinterpret_cast<ValueStamp *>(
            reinterpret_cast<std::byte *>(&line) + _stampOffset);
    }
    const ValueStamp *
    stamps(const Line &line) const
    {
        return stamps(const_cast<Line &>(line));
    }

    /** The per-word metadata of @p line. */
    WordMeta *
    words(Line &line) const
    {
        return reinterpret_cast<WordMeta *>(
            reinterpret_cast<std::byte *>(&line) + _wordOffset);
    }
    const WordMeta *
    words(const Line &line) const
    {
        return words(const_cast<Line &>(line));
    }

    /** Find a valid line holding @p addr; updates LRU on hit. */
    Line *
    lookup(Addr addr, Cycles now)
    {
        Addr base = lineAddr(addr);
        Line *const *set = ways(setOf(base));
        for (unsigned w = 0; w < _assoc; ++w) {
            Line *l = set[w];
            if (l && l->valid && l->base == base) {
                if (now > l->lastUse)
                    l->lastUse = now;
                return l;
            }
        }
        return nullptr;
    }

    const Line *
    peek(Addr addr) const
    {
        Addr base = lineAddr(addr);
        const Line *const *set = ways(setOf(base));
        for (unsigned w = 0; w < _assoc; ++w) {
            const Line *l = set[w];
            if (l && l->valid && l->base == base)
                return l;
        }
        return nullptr;
    }

    /**
     * Choose a victim frame for @p addr (LRU among the set; invalid frames
     * first, a never-filled way getting a fresh zeroed frame). The caller
     * inspects the returned line (valid => eviction) and then initializes
     * it.
     */
    Line &
    victim(Addr addr, Cycles now)
    {
        Line **set = ways(setOf(lineAddr(addr)));
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w])
                set[w] = takeFrame();
            Line &l = *set[w];
            if (!l.valid)
                return l;
            if (!best || l.lastUse < best->lastUse)
                best = &l;
        }
        (void)now;
        return *best;
    }

    /**
     * Invalidate every line for which @p pred returns true. Templated
     * (not std::function) so scheme epoch-boundary sweeps inline the
     * predicate instead of paying an indirect call per line.
     */
    template <typename Pred>
    void
    invalidateIf(Pred &&pred)
    {
        forEachLine([&](Line &l) {
            if (pred(l))
                l.valid = false;
        });
    }

    /**
     * Visit every valid line, set by set and way by way within a set,
     * whatever order the frames were filled in.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::size_t i = 0; i < _ways.size(); ++i)
            if (Line *l = _ways[i]; l && l->valid)
                fn(*l);
    }

    /** Visit every valid line, read-only (post-mortem snapshots). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        const_cast<CacheArray *>(this)->forEachLine(
            [&](const Line &l) { fn(l); });
    }

    /** Frames the cache can hold: reachable sets times associativity. */
    std::size_t lineCount() const { return _sets * _assoc; }

    /** Frames taken from the pool: the (set, way)s ever filled. */
    std::size_t
    framesInUse() const
    {
        return _blocks.empty()
                   ? 0
                   : (_blocks.size() - 1) * _framesPerBlock + _blockUsed;
    }

  private:
    static constexpr std::size_t kAlign =
        std::max({alignof(Line), alignof(ValueStamp), alignof(WordMeta)});
    static_assert(kAlign <= alignof(std::max_align_t),
                  "calloc must align every frame");
    /** Bytes of frames one pool block aims at (about a page). */
    static constexpr std::size_t kBlockBytes = 4096;

    static std::size_t
    wordBytes(unsigned words_per_line)
    {
        return std::is_empty_v<WordMeta>
                   ? 0
                   : std::size_t{words_per_line} * sizeof(WordMeta);
    }

    static std::size_t
    reachableSets(const MachineConfig &cfg, Addr data_bytes)
    {
        std::size_t sets = cfg.sets();
        if (data_bytes == 0)
            return sets;
        return std::min<std::size_t>(divCeil(data_bytes, cfg.lineBytes),
                                     sets);
    }

    /** The frame-table entries of set @p s, one per way. */
    Line **
    ways(std::size_t s)
    {
        hscd_dassert(s < _sets, "set %d beyond the cache's %d sets", s,
                     _sets);
        return _ways.data() + s * _assoc;
    }
    const Line *const *
    ways(std::size_t s) const
    {
        return const_cast<CacheArray *>(this)->ways(s);
    }

    /** The next zeroed frame of the pool, opening a block if needed. */
    Line *
    takeFrame()
    {
        if (_blockUsed == _framesPerBlock) {
            _blocks.emplace_back(_framesPerBlock * _stride);
            _blockUsed = 0;
        }
        return reinterpret_cast<Line *>(_blocks.back().data() +
                                        _blockUsed++ * _stride);
    }

    // Line sizes are powers of two (MachineConfig::validate), so the
    // per-access index arithmetic is shifts and masks.
    unsigned _lineBytes;
    unsigned _lineShift;
    unsigned _assoc;
    std::size_t _setMask;      ///< configured set count - 1
    std::size_t _sets;         ///< reachable sets
    std::size_t _stampOffset;  ///< frame-relative byte offsets
    std::size_t _wordOffset;
    std::size_t _stride;       ///< bytes per frame
    std::size_t _framesPerBlock;
    std::size_t _blockUsed;    ///< frames taken from the last block
    /** Frame of each (set, way), set-major; null until first filled. */
    ZeroedArray<Line *> _ways;
    /** The frame pool, in fill order; blocks never move. */
    std::vector<ZeroedArray<std::byte>> _blocks;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_CACHE_HH
