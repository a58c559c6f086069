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
 * min(ceil(data_bytes / lineBytes), sets). Those sets are grouped into
 * page-sized chunks, and a chunk's frames are allocated, already zeroed
 * (common/zeroed.hh), by the first victim() in it; lookup() in a chunk
 * nothing has filled is a miss without touching memory. The all-zero
 * frame is an invalid line with zeroed metadata, so WordMeta and
 * LineMeta must be trivially copyable and reset to all zero bits. A
 * Machine is built per simulated run with P caches, and each processor
 * fills a small part of its cache: construction, memory and teardown
 * grow with the frames a run fills, not with P times the cache size,
 * whatever the allocator does with freed blocks.
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
          _chunkShift(chunkShift(_assoc * _stride)),
          _chunks(divCeil(_sets, std::size_t{1} << _chunkShift))
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
        Line *set = filledSet(setOf(base));
        if (!set)
            return nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            Line &l = way(set, w);
            if (l.valid && l.base == base) {
                if (now > l.lastUse)
                    l.lastUse = now;
                return &l;
            }
        }
        return nullptr;
    }

    const Line *
    peek(Addr addr) const
    {
        Addr base = lineAddr(addr);
        Line *set = filledSet(setOf(base));
        if (!set)
            return nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            const Line &l = way(set, w);
            if (l.valid && l.base == base)
                return &l;
        }
        return nullptr;
    }

    /**
     * Choose a victim frame for @p addr (LRU among the set; invalid frames
     * first). The caller inspects the returned line (valid => eviction)
     * and then initializes it.
     */
    Line &
    victim(Addr addr, Cycles now)
    {
        const std::size_t set_index = setOf(lineAddr(addr));
        Line *set = filledSet(set_index);
        if (!set)
            set = bindChunk(set_index);
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            Line &l = way(set, w);
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

    /** Visit every valid line. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::size_t c = 0; c < _chunks.size(); ++c) {
            std::byte *chunk = _chunks[c].data();
            for (std::size_t i = 0; chunk && i < chunkFrames(c); ++i)
                if (Line &l = frameAt(chunk, i); l.valid)
                    fn(l);
        }
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

  private:
    static constexpr std::size_t kAlign =
        std::max({alignof(Line), alignof(ValueStamp), alignof(WordMeta)});
    static_assert(kAlign <= alignof(std::max_align_t),
                  "calloc must align every frame");
    /** Bytes of frames one chunk aims at (about a page). */
    static constexpr std::size_t kChunkBytes = 4096;

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

    /** log2 of the sets per chunk: a power of two, at least one set. */
    static unsigned
    chunkShift(std::size_t set_bytes)
    {
        return set_bytes >= kChunkBytes ? 0
                                        : floorLog2(kChunkBytes / set_bytes);
    }

    /** Frames in chunk @p c (the last chunk may be partial). */
    std::size_t
    chunkFrames(std::size_t c) const
    {
        const std::size_t first = c << _chunkShift;
        const std::size_t sets =
            std::min(_sets - first, std::size_t{1} << _chunkShift);
        return sets * _assoc;
    }

    Line &
    frameAt(std::byte *chunk, std::size_t i) const
    {
        return *reinterpret_cast<Line *>(chunk + i * _stride);
    }

    /** First frame of set @p s, or null if its chunk was never filled. */
    Line *
    filledSet(std::size_t s) const
    {
        hscd_dassert(s < _sets, "set %d beyond the cache's %d sets", s,
                     _sets);
        auto *chunk =
            const_cast<std::byte *>(_chunks[s >> _chunkShift].data());
        if (!chunk)
            return nullptr;
        const std::size_t in_chunk = s & ((std::size_t{1} << _chunkShift) - 1);
        return &frameAt(chunk, in_chunk * _assoc);
    }

    /** Allocate set @p s's chunk, zeroed; returns the set's first frame. */
    Line *
    bindChunk(std::size_t s)
    {
        const std::size_t c = s >> _chunkShift;
        _chunks[c] = ZeroedArray<std::byte>(chunkFrames(c) * _stride);
        return filledSet(s);
    }

    /** Way @p w of the set whose first frame is @p set. */
    Line &
    way(Line *set, unsigned w) const
    {
        return *reinterpret_cast<Line *>(reinterpret_cast<std::byte *>(set) +
                                         w * _stride);
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
    unsigned _chunkShift;      ///< log2(sets per chunk)
    /** Each chunk's frames; empty until a victim() first lands in it. */
    std::vector<ZeroedArray<std::byte>> _chunks;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_CACHE_HH
