/** @file Unit tests for the generic cache array. */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "common/zeroed.hh"
#include "mem/cache.hh"
#include "mem/directory_scheme.hh"
#include "mem/line_history.hh"
#include "mem/tpi_scheme.hh"
#include "mem/vc_scheme.hh"
#include "sim/machine.hh"

using namespace hscd;
using namespace hscd::mem;

namespace {

MachineConfig
smallConfig(unsigned assoc = 1)
{
    MachineConfig c;
    c.cacheBytes = 256; // 16 lines of 16B
    c.lineBytes = 16;
    c.assoc = assoc;
    return c;
}

} // namespace

TEST(CacheArray, Geometry)
{
    CacheArray<> c(smallConfig());
    EXPECT_EQ(c.wordsPerLine(), 4u);
    EXPECT_EQ(c.lineCount(), 16u);
    EXPECT_EQ(c.lineAddr(0x123), 0x120u);
    EXPECT_EQ(c.wordIndex(0x120), 0u);
    EXPECT_EQ(c.wordIndex(0x12c), 3u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray<> c(smallConfig());
    EXPECT_EQ(c.lookup(0x100, 1), nullptr);
    auto &line = c.victim(0x100, 1);
    EXPECT_FALSE(line.valid);
    line.valid = true;
    line.base = c.lineAddr(0x100);
    line.lastUse = 1;
    EXPECT_NE(c.lookup(0x104, 2), nullptr);
    EXPECT_EQ(c.lookup(0x104, 2), c.lookup(0x10c, 3));
}

TEST(CacheArray, DirectMappedConflict)
{
    CacheArray<> c(smallConfig());
    // 16 lines * 16B = 256B: addresses 0x100 and 0x200 conflict.
    auto &l1 = c.victim(0x100, 1);
    l1.valid = true;
    l1.base = 0x100;
    auto &l2 = c.victim(0x200, 2);
    EXPECT_EQ(&l1, &l2) << "same set, direct-mapped";
    EXPECT_TRUE(l2.valid) << "caller sees the eviction candidate";
}

TEST(CacheArray, AssociativityAvoidsConflict)
{
    CacheArray<> c(smallConfig(2));
    auto &l1 = c.victim(0x100, 1);
    l1.valid = true;
    l1.base = 0x100;
    l1.lastUse = 1;
    auto &l2 = c.victim(0x200, 2);
    EXPECT_NE(&l1, &l2) << "second way available";
    l2.valid = true;
    l2.base = 0x200;
    l2.lastUse = 2;
    EXPECT_NE(c.lookup(0x100, 3), nullptr);
    EXPECT_NE(c.lookup(0x200, 4), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<> c(smallConfig(2));
    auto &a = c.victim(0x100, 1);
    a.valid = true;
    a.base = 0x100;
    a.lastUse = 1;
    auto &b = c.victim(0x200, 5);
    b.valid = true;
    b.base = 0x200;
    b.lastUse = 5;
    // Touch a to make b the LRU.
    c.lookup(0x100, 9);
    auto &v = c.victim(0x300, 10);
    EXPECT_EQ(v.base, 0x200u);
}

TEST(CacheArray, LookupDoesNotRegressLru)
{
    CacheArray<> c(smallConfig(2));
    auto &a = c.victim(0x100, 10);
    a.valid = true;
    a.base = 0x100;
    a.lastUse = 10;
    // A bookkeeping lookup at time 0 must not make the line look old.
    c.lookup(0x100, 0);
    EXPECT_EQ(c.peek(0x100)->lastUse, 10u);
}

TEST(CacheArray, InvalidateIf)
{
    CacheArray<> c(smallConfig());
    for (Addr base = 0; base < 8 * 16; base += 16) {
        auto &l = c.victim(base, 1);
        l.valid = true;
        l.base = base;
    }
    c.invalidateIf([](auto &l) { return l.base >= 4 * 16; });
    EXPECT_NE(c.lookup(0x00, 2), nullptr);
    EXPECT_NE(c.lookup(0x30, 2), nullptr);
    EXPECT_EQ(c.lookup(0x40, 2), nullptr);
    EXPECT_EQ(c.lookup(0x70, 2), nullptr);
}

TEST(CacheArray, ForEachLineVisitsOnlyValid)
{
    CacheArray<> c(smallConfig());
    auto &l = c.victim(0x100, 1);
    l.valid = true;
    l.base = 0x100;
    int count = 0;
    c.forEachLine([&](auto &) { ++count; });
    EXPECT_EQ(count, 1);
}

TEST(CacheArray, PerWordMetadataSized)
{
    struct Tag
    {
        int v = 0;
    };
    MachineConfig cfg = smallConfig();
    cfg.lineBytes = 32;
    cfg.cacheBytes = 512;
    CacheArray<Tag> c(cfg);
    auto &l = c.victim(0x100, 1);
    ASSERT_EQ(c.wordsPerLine(), 8u);
    // Every line's word metadata starts at its all-zero reset state and
    // is writable across the whole line (the frame's stride is sized for
    // it) without touching the neighbouring frame.
    EXPECT_EQ(c.words(l)[3].v, 0);
    c.words(l)[7].v = 11;
    c.stamps(l)[7] = 42;
    EXPECT_EQ(c.words(l)[7].v, 11);
    EXPECT_EQ(c.stamps(l)[7], 42u);
    auto &next = c.victim(0x120, 1);
    EXPECT_NE(&next, &l);
    EXPECT_EQ(c.words(next)[0].v, 0);
    EXPECT_EQ(c.stamps(next)[0], 0u);
}

/**
 * Only the sets a data range can reach are allocated:
 * min(ceil(data / line), sets) x assoc frames, for direct-mapped and
 * set-associative geometries; no bound allocates every set.
 */
TEST(CacheArray, FootprintSized)
{
    for (unsigned assoc : {1u, 4u}) {
        MachineConfig cfg;
        cfg.cacheBytes = 64 * 1024;
        cfg.lineBytes = 16;
        cfg.assoc = assoc;
        const std::size_t sets = cfg.sets();
        EXPECT_EQ(CacheArray<>(cfg).lineCount(), sets * assoc);
        EXPECT_EQ(CacheArray<>(cfg, 1000).lineCount(), 63u * assoc)
            << "ceil(1000 / 16) = 63 sets, not the next power of two";
        EXPECT_EQ(CacheArray<>(cfg, 1008).lineCount(), 63u * assoc);
        EXPECT_EQ(CacheArray<>(cfg, 1009).lineCount(), 64u * assoc);
        EXPECT_EQ(CacheArray<TpiWord>(cfg, 16).lineCount(), 1u * assoc);
        EXPECT_EQ(CacheArray<>(cfg, 16 * sets).lineCount(), sets * assoc);
        EXPECT_EQ(CacheArray<>(cfg, 1 << 20).lineCount(), sets * assoc)
            << "data larger than the cache allocates every set";
    }
}

namespace {

/**
 * Drive a footprint-capped and an uncapped array of the same geometry
 * through one random sequence of in-range fills and probes; they must
 * agree access for access: hit or miss, the victim (invalid, or the
 * line it evicts), and the value stamps a hit reads back.
 */
template <typename WordMeta>
void
expectCappedMatchesUncapped(const MachineConfig &cfg, Addr data_bytes,
                            std::uint64_t seed)
{
    CacheArray<WordMeta> capped(cfg, data_bytes);
    CacheArray<WordMeta> full(cfg);
    ASSERT_LE(capped.lineCount(), full.lineCount());
    Rng rng(seed);
    const unsigned wpl = cfg.wordsPerLine();
    for (Cycles now = 1; now <= 4000; ++now) {
        const Addr addr = Addr(rng.below(std::uint32_t(data_bytes))) & ~3;
        ASSERT_EQ(capped.setOf(addr), full.setOf(addr));
        auto *a = capped.lookup(addr, now);
        auto *b = full.lookup(addr, now);
        ASSERT_EQ(a == nullptr, b == nullptr) << "addr " << addr;
        if (a) {
            for (unsigned w = 0; w < wpl; ++w)
                ASSERT_EQ(capped.stamps(*a)[w], full.stamps(*b)[w]);
            continue;
        }
        auto &va = capped.victim(addr, now);
        auto &vb = full.victim(addr, now);
        ASSERT_EQ(va.valid, vb.valid) << "addr " << addr;
        if (va.valid) {
            ASSERT_EQ(va.base, vb.base) << "addr " << addr;
        }
        for (auto *l : {&va, &vb}) {
            l->valid = true;
            l->base = capped.lineAddr(addr);
            l->lastUse = now;
        }
        for (unsigned w = 0; w < wpl; ++w) {
            capped.stamps(va)[w] = now * 64 + w;
            full.stamps(vb)[w] = now * 64 + w;
        }
    }
}

} // namespace

TEST(CacheArray, CappedMatchesUncappedFrameForFrame)
{
    struct Case
    {
        unsigned cacheBytes, lineBytes, assoc;
        Addr dataBytes;
    };
    // Data smaller than the cache (a non-power-of-two set count), about
    // its size, and larger, direct-mapped and associative.
    const Case cases[] = {
        {4096, 16, 1, 1000},  {4096, 16, 1, 4100}, {4096, 16, 1, 20000},
        {4096, 16, 4, 1000},  {4096, 16, 4, 3000}, {4096, 32, 2, 50000},
        {2048, 64, 2, 1500},  {1024, 16, 8, 800},
    };
    std::uint64_t seed = 1;
    for (const Case &k : cases) {
        MachineConfig cfg;
        cfg.cacheBytes = k.cacheBytes;
        cfg.lineBytes = k.lineBytes;
        cfg.assoc = k.assoc;
        SCOPED_TRACE(testing::Message()
                     << k.cacheBytes << "B " << k.assoc << "-way, "
                     << k.lineBytes << "B lines, " << k.dataBytes
                     << "B data");
        expectCappedMatchesUncapped<NoMeta>(cfg, k.dataBytes, seed++);
        expectCappedMatchesUncapped<TpiWord>(cfg, k.dataBytes, seed++);
    }
}

/**
 * Every piece of state that starts as zero pages reads as its reset
 * state: a fresh frame of each scheme's cache, a LineHistory entry, a
 * main-memory word and the executor's per-word record (oracle stamp and
 * legality state).
 */
TEST(CacheArray, FreshStateReadsAsReset)
{
    MachineConfig cfg = smallConfig(2);
    const Addr data = 4096;
    CacheArray<TpiWord> tpi(cfg, data);
    CacheArray<VcWord> vc(cfg, data);
    CacheArray<NoMeta, MsiLine> hw(cfg, data);
    for (Addr a = 0; a < data; a += cfg.lineBytes) {
        auto &t = tpi.victim(a, 1);
        EXPECT_FALSE(t.valid);
        EXPECT_EQ(t.base, 0u);
        EXPECT_EQ(t.lastUse, 0u);
        auto &v = vc.victim(a, 1);
        auto &h = hw.victim(a, 1);
        EXPECT_FALSE(v.valid);
        EXPECT_FALSE(h.valid);
        EXPECT_EQ(h.meta.dirty, MsiLine{}.dirty);
        EXPECT_EQ(h.meta.accessedMask, MsiLine{}.accessedMask);
        for (unsigned w = 0; w < tpi.wordsPerLine(); ++w) {
            EXPECT_EQ(tpi.words(t)[w].tt, TpiWord{}.tt);
            EXPECT_EQ(tpi.words(t)[w].valid, TpiWord{}.valid);
            EXPECT_EQ(vc.words(v)[w].bvn, VcWord{}.bvn);
            EXPECT_EQ(vc.words(v)[w].valid, VcWord{}.valid);
            EXPECT_EQ(tpi.stamps(t)[w], 0u);
            EXPECT_EQ(vc.stamps(v)[w], 0u);
            EXPECT_EQ(hw.stamps(h)[w], 0u);
        }
    }

    LineHistory history(4, data, cfg.lineBytes);
    for (ProcId p = 0; p < 4; ++p) {
        EXPECT_EQ(history.state(p, 0), LineEvent::NeverCached);
        EXPECT_EQ(history.state(p, data - 1), LineEvent::NeverCached);
        EXPECT_EQ(history.classifyAbsent(p, data), MissClass::Cold);
    }

    MainMemory memory(data);
    EXPECT_EQ(memory.read(0), 0u);
    EXPECT_EQ(memory.read(data), 0u);

    ZeroedArray<sim::AccessRec> recs(16);
    const sim::AccessRec reset{};
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].stamp, reset.stamp) << "stamp 0 means never written";
        EXPECT_EQ(recs[i].gen, reset.gen) << "generation 0 means never";
        EXPECT_EQ(recs[i].task, reset.task);
        EXPECT_EQ(recs[i].wrote, reset.wrote);
        EXPECT_EQ(recs[i].critical, reset.critical);
    }
}

/**
 * The frame pool hands out a frame only when victim() first fills a
 * (set, way): lookups, peeks and refills of a frame take none, and the
 * count grows by one per newly filled way, across pool blocks.
 */
TEST(CacheArray, FramesOnlyForFilledWays)
{
    for (unsigned assoc : {1u, 2u}) {
        MachineConfig cfg;
        cfg.cacheBytes = 16 * 1024; // 1024 lines of 16B
        cfg.lineBytes = 16;
        cfg.assoc = assoc;
        CacheArray<TpiWord> c(cfg);
        const std::size_t sets = cfg.sets();
        EXPECT_EQ(c.framesInUse(), 0u);
        for (Addr a = 0; a < 64 * 1024; a += 16) {
            EXPECT_EQ(c.lookup(a, 1), nullptr);
            EXPECT_EQ(c.peek(a), nullptr);
        }
        EXPECT_EQ(c.framesInUse(), 0u) << "a miss takes no frame";

        // Every third set, once: one frame each, however many blocks.
        std::size_t filled = 0;
        for (std::size_t s = 0; s < sets; s += 3) {
            auto &l = c.victim(Addr(s) * 16, 1);
            EXPECT_FALSE(l.valid);
            EXPECT_EQ(c.framesInUse(), ++filled);
            // A victim() that finds the fresh frame still invalid reuses
            // it instead of taking another.
            EXPECT_EQ(&c.victim(Addr(s) * 16, 2), &l);
            EXPECT_EQ(c.framesInUse(), filled);
            l.valid = true;
            l.base = Addr(s) * 16;
        }
        // A conflicting line fills the second way, or replaces the only
        // one in place.
        const Addr conflict = Addr(sets) * 16;
        auto &v = c.victim(conflict, 3);
        EXPECT_EQ(v.valid, assoc == 1);
        EXPECT_EQ(c.framesInUse(), filled + (assoc == 2 ? 1 : 0));
        EXPECT_EQ(c.lineCount(), sets * assoc);
    }
}

/**
 * forEachLine walks set by set and way by way, however the fills were
 * ordered: TPI's phase reset and flushes report their tag events in
 * that order.
 */
TEST(CacheArray, ForEachLineVisitsInSetOrderWhateverTheFillOrder)
{
    for (unsigned assoc : {1u, 2u}) {
        MachineConfig cfg;
        cfg.cacheBytes = 4096; // 256 lines of 16B
        cfg.lineBytes = 16;
        cfg.assoc = assoc;
        const std::size_t sets = cfg.sets();
        // assoc lines per set: base s, then s + sets lines, ...
        std::vector<Addr> lines(sets * assoc);
        for (std::size_t i = 0; i < lines.size(); ++i)
            lines[i] = Addr(i) * 16;

        std::vector<Addr> reversed(lines.rbegin(), lines.rend());
        std::vector<Addr> shuffled = lines;
        Rng rng(7 + assoc);
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[rng.below(i)]);

        for (const std::vector<Addr> *order : {&reversed, &shuffled}) {
            CacheArray<> c(cfg);
            std::vector<std::vector<Addr>> per_set(sets);
            for (Addr base : *order) {
                auto &l = c.victim(base, 1);
                ASSERT_FALSE(l.valid) << "the set has a free way";
                l.valid = true;
                l.base = base;
                per_set[c.setOf(base)].push_back(base); // next way
            }
            std::vector<Addr> want;
            for (const std::vector<Addr> &ways : per_set)
                want.insert(want.end(), ways.begin(), ways.end());
            std::vector<Addr> got;
            c.forEachLine([&](const auto &l) { got.push_back(l.base); });
            EXPECT_EQ(got, want) << assoc << "-way, "
                                 << (order == &reversed ? "reverse"
                                                        : "random")
                                 << " fill order";
        }
    }
}

/**
 * A Line reference stays valid for the cache's lifetime: later fills
 * open new pool blocks without moving the frames already handed out.
 */
TEST(CacheArray, LinesStayPutAcrossNewBlocks)
{
    MachineConfig cfg;
    cfg.cacheBytes = 64 * 1024;
    cfg.lineBytes = 16;
    CacheArray<TpiWord> c(cfg);
    // A frame is at least 56 bytes, so 1000 fills open well over ten
    // 4 KB blocks.
    const unsigned n = 1000;
    std::vector<CacheArray<TpiWord>::Line *> handed_out;
    for (unsigned i = 0; i < n; ++i) {
        const Addr a = Addr(i) * 16;
        auto &l = c.victim(a, 1);
        l.valid = true;
        l.base = a;
        c.stamps(l)[i % 4] = 1000 + i;
        c.words(l)[i % 4].tt = i;
        handed_out.push_back(&l);
    }
    EXPECT_EQ(c.framesInUse(), n);
    for (unsigned i = 0; i < n; ++i) {
        auto *l = c.lookup(Addr(i) * 16, 2);
        ASSERT_EQ(l, handed_out[i]) << "line " << i << " moved";
        EXPECT_EQ(c.stamps(*l)[i % 4], 1000u + i);
        EXPECT_EQ(c.words(*l)[i % 4].tt, i);
    }
}

/**
 * One flat procs x lines table: rows must not bleed into each other at
 * processor boundaries, and the last data line has its own entry.
 */
TEST(LineHistory, FlatIndexingAtBoundaries)
{
    const unsigned procs = 3;
    const Addr data = 1000;
    LineHistory h(procs, data, 16);
    const Addr last = data / 16 * 16; // first byte of the last line
    // Adjacent in the flat table: (p, last line) and (p + 1, line 0).
    h.record(0, last, LineEvent::Evicted);
    h.record(1, 0, LineEvent::InvalidatedTrue);
    h.record(1, last + 15, LineEvent::InvalidatedTag);
    h.record(2, 0, LineEvent::Cached);
    h.record(2, data - 1, LineEvent::InvalidatedFalse);
    EXPECT_EQ(h.state(0, 0), LineEvent::NeverCached);
    EXPECT_EQ(h.state(0, last), LineEvent::Evicted);
    EXPECT_EQ(h.state(1, 3), LineEvent::InvalidatedTrue);
    EXPECT_EQ(h.state(1, last), LineEvent::InvalidatedTag);
    EXPECT_EQ(h.state(2, 0), LineEvent::Cached);
    EXPECT_EQ(h.state(2, data - 1), LineEvent::InvalidatedFalse);
    EXPECT_EQ(h.state(2, last), LineEvent::InvalidatedFalse)
        << "the last data byte lies in the last line";
    EXPECT_EQ(h.state(2, last - 16), LineEvent::NeverCached);
    EXPECT_EQ(h.classifyAbsent(0, last), MissClass::Replacement);
    EXPECT_EQ(h.classifyAbsent(1, last), MissClass::TagReset);
    EXPECT_EQ(h.classifyAbsent(2, data - 1), MissClass::FalseShare);
    EXPECT_EQ(h.classifyAbsent(0, 16), MissClass::Cold);
}

/** Zeroed arrays start at zero, move their storage, and may be empty. */
TEST(ZeroedArray, StartsZeroAndMoves)
{
    ZeroedArray<std::uint64_t> a(1000);
    ASSERT_EQ(a.size(), 1000u);
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], 0u);
    a[999] = 7;
    ZeroedArray<std::uint64_t> b(std::move(a));
    EXPECT_EQ(b.size(), 1000u);
    EXPECT_EQ(b[999], 7u);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.data(), nullptr);
    ZeroedArray<std::uint64_t> empty(0);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.data(), nullptr);
}

/**
 * wordIndex and setOf use a shift and masks precomputed from the line
 * size; they must agree with the division forms for every power-of-two
 * line size and several set counts.
 */
TEST(CacheArray, ShiftIndexingMatchesDivision)
{
    for (unsigned line = 4; line <= 256; line *= 2) {
        for (unsigned sets : {1u, 2u, 16u, 1024u}) {
            MachineConfig cfg;
            cfg.lineBytes = line;
            cfg.assoc = 2;
            cfg.cacheBytes = std::uint64_t(line) * sets * cfg.assoc;
            CacheArray<> c(cfg);
            for (Addr a = 0; a < Addr(line) * sets * 3; a += 4) {
                ASSERT_EQ(c.wordIndex(a), (a % line) / 4)
                    << "line " << line << " addr " << a;
                ASSERT_EQ(c.setOf(a), (a / line) % sets)
                    << "line " << line << " sets " << sets << " addr " << a;
            }
            // Far addresses wrap onto the same sets.
            const Addr far = (Addr(1) << 40) + 12;
            EXPECT_EQ(c.wordIndex(far), (far % line) / 4);
            EXPECT_EQ(c.setOf(far), (far / line) % sets);
        }
    }
}
