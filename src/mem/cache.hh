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

#include <vector>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "mem/machine_config.hh"
#include "mem/memory.hh"

namespace hscd {
namespace mem {

/** Empty metadata for schemes that need none. */
struct NoMeta
{
};

template <typename WordMeta = NoMeta, typename LineMeta = NoMeta>
class CacheArray
{
  public:
    struct Line
    {
        bool valid = false;
        Addr base = 0;                 ///< line-aligned address
        Cycles lastUse = 0;            ///< for LRU
        LineMeta meta{};
        /**
         * wordsPerLine() entries each, aliasing the array's flat backing
         * stores. Two big allocations per cache instead of two small ones
         * per line: Machine construction happens once per simulated run,
         * and tens of thousands of per-line vector allocations dominated
         * short runs' wall clock.
         */
        WordMeta *words = nullptr;
        ValueStamp *stamps = nullptr;
    };

    /**
     * @param data_bytes upper bound on simulated addresses, or 0 for
     * none. setOf() masks the line index by the set count, so when the
     * whole address range maps into the first N sets, the remaining sets
     * are unreachable and need not be allocated. Capping the set count at
     * the next power of two >= N leaves the set of every reachable
     * address unchanged while making construction cost proportional to
     * the program's footprint instead of the configured cache size —
     * which matters because a Machine is built per simulated run.
     */
    CacheArray(const MachineConfig &cfg, Addr data_bytes = 0)
        : _lineBytes(cfg.lineBytes), _lineShift(floorLog2(cfg.lineBytes)),
          _assoc(cfg.assoc), _sets(reachableSets(cfg, data_bytes)),
          _lines(_sets * _assoc),
          _wordStore(_lines.size() * cfg.wordsPerLine()),
          _stampStore(_lines.size() * cfg.wordsPerLine())
    {
        hscd_assert(isPowerOf2(_lineBytes) && _lineBytes >= 4,
                    "line size must be a power of two >= 4");
        hscd_assert(isPowerOf2(_sets), "set count must be a power of two");
        const unsigned wpl = cfg.wordsPerLine();
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            _lines[i].words = _wordStore.data() + i * wpl;
            _lines[i].stamps = _stampStore.data() + i * wpl;
        }
    }

    // Lines alias the backing stores; moving is safe (the stores' heap
    // buffers move wholesale) but copying would alias the source.
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;
    CacheArray(CacheArray &&) = default;
    CacheArray &operator=(CacheArray &&) = default;

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
        return (addr >> _lineShift) & (_sets - 1);
    }

    /** Find a valid line holding @p addr; updates LRU on hit. */
    Line *
    lookup(Addr addr, Cycles now)
    {
        Addr base = lineAddr(addr);
        std::size_t set = setOf(base);
        for (unsigned w = 0; w < _assoc; ++w) {
            Line &l = _lines[set * _assoc + w];
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
        std::size_t set = setOf(base);
        for (unsigned w = 0; w < _assoc; ++w) {
            const Line &l = _lines[set * _assoc + w];
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
        Addr base = lineAddr(addr);
        std::size_t set = setOf(base);
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            Line &l = _lines[set * _assoc + w];
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
        for (Line &l : _lines)
            if (l.valid && pred(l))
                l.valid = false;
    }

    /** Visit every valid line. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (Line &l : _lines)
            if (l.valid)
                fn(l);
    }

    /** Visit every valid line, read-only (post-mortem snapshots). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const Line &l : _lines)
            if (l.valid)
                fn(l);
    }

    std::size_t lineCount() const { return _lines.size(); }

  private:
    static std::size_t
    reachableSets(const MachineConfig &cfg, Addr data_bytes)
    {
        std::size_t sets = cfg.sets();
        if (data_bytes == 0)
            return sets;
        Addr data_lines = divCeil(data_bytes, cfg.lineBytes);
        std::size_t reachable = std::size_t{1} << ceilLog2(data_lines);
        return reachable < sets ? reachable : sets;
    }

    // Line sizes are powers of two (MachineConfig::validate), so the
    // per-access index arithmetic is shifts and masks.
    unsigned _lineBytes;
    unsigned _lineShift;
    unsigned _assoc;
    std::size_t _sets;
    std::vector<Line> _lines;
    std::vector<WordMeta> _wordStore;
    std::vector<ValueStamp> _stampStore;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_CACHE_HH
