/** @file Unit tests for the generic cache array. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

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
        int v = 7;
    };
    MachineConfig cfg = smallConfig();
    cfg.lineBytes = 32;
    cfg.cacheBytes = 512;
    CacheArray<Tag> c(cfg);
    auto &l = c.victim(0x100, 1);
    ASSERT_EQ(c.wordsPerLine(), 8u);
    // Every line's word metadata is default-initialized and writable
    // across the whole line (the flat backing store is sized for it).
    EXPECT_EQ(l.words[3].v, 7);
    l.words[7].v = 11;
    l.stamps[7] = 42;
    EXPECT_EQ(l.words[7].v, 11);
    EXPECT_EQ(l.stamps[7], 42u);
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
