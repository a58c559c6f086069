/** @file Unit tests for the Params key/value store and MachineConfig. */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/log.hh"
#include "mem/machine_config.hh"

using namespace hscd;

namespace {

Params
makeParams()
{
    Params p;
    p.define("procs", "16", "number of processors")
        .define("cache_kb", "64", "cache size in KB")
        .define("rate", "0.5", "a ratio")
        .define("name", "tpi", "scheme name")
        .define("verbose", "false", "chatter");
    return p;
}

} // namespace

TEST(Params, DefaultsVisible)
{
    Params p = makeParams();
    EXPECT_EQ(p.getInt("procs"), 16);
    EXPECT_EQ(p.getString("name"), "tpi");
    EXPECT_DOUBLE_EQ(p.getDouble("rate"), 0.5);
    EXPECT_FALSE(p.getBool("verbose"));
}

TEST(Params, SetOverrides)
{
    Params p = makeParams();
    p.set("procs", "64");
    EXPECT_EQ(p.getInt("procs"), 64);
}

TEST(Params, ParseAssignment)
{
    Params p = makeParams();
    p.parseAssignment("cache_kb=256");
    EXPECT_EQ(p.getUint("cache_kb"), 256u);
    p.parseAssignment(" name = hw ");
    EXPECT_EQ(p.getString("name"), "hw");
}

TEST(Params, ParseArgsMany)
{
    Params p = makeParams();
    p.parseArgs({"procs=4", "verbose=true"});
    EXPECT_EQ(p.getInt("procs"), 4);
    EXPECT_TRUE(p.getBool("verbose"));
}

TEST(Params, UnknownKeyFatal)
{
    Params p = makeParams();
    EXPECT_THROW(p.set("bogus", "1"), FatalError);
    EXPECT_THROW(p.getInt("bogus"), FatalError);
}

TEST(Params, DuplicateDefineFatal)
{
    Params p;
    p.define("x", "1");
    EXPECT_THROW(p.define("x", "2"), FatalError);
}

TEST(Params, BadIntegerFatal)
{
    Params p = makeParams();
    p.set("procs", "abc");
    EXPECT_THROW(p.getInt("procs"), FatalError);
    p.set("procs", "12x");
    EXPECT_THROW(p.getInt("procs"), FatalError);
}

TEST(Params, NegativeUintFatal)
{
    Params p = makeParams();
    p.set("procs", "-3");
    EXPECT_THROW(p.getUint("procs"), FatalError);
    EXPECT_EQ(p.getInt("procs"), -3);
}

TEST(Params, MissingEqualsFatal)
{
    Params p = makeParams();
    EXPECT_THROW(p.parseAssignment("procs16"), FatalError);
}

TEST(Params, HexIntegerAccepted)
{
    Params p = makeParams();
    p.set("cache_kb", "0x40");
    EXPECT_EQ(p.getInt("cache_kb"), 64);
}

TEST(Params, KeysInDefinitionOrder)
{
    Params p = makeParams();
    ASSERT_EQ(p.keys().size(), 5u);
    EXPECT_EQ(p.keys().front(), "procs");
    EXPECT_EQ(p.keys().back(), "verbose");
}

TEST(Params, DescribeMentionsValueAndDesc)
{
    Params p = makeParams();
    const std::string d = p.describe("procs");
    EXPECT_NE(d.find("procs=16"), std::string::npos);
    EXPECT_NE(d.find("number of processors"), std::string::npos);
}

/** Full-map presence bits are 64 wide: HW beyond 64 procs is refused. */
TEST(MachineConfigValidate, HwOver64ProcsIsFatal)
{
    MachineConfig c;
    c.scheme = SchemeKind::HW;
    c.procs = 64;
    EXPECT_NO_THROW(c.validate());
    c.procs = 128;
    EXPECT_THROW(c.validate(), FatalError);
    c.scheme = SchemeKind::TPI;
    EXPECT_NO_THROW(c.validate());
}

/**
 * HW's false-sharing classification keeps one accessed bit per word in
 * a 64-bit mask: lines over 64 words (256 bytes) are refused.
 */
TEST(MachineConfigValidate, HwOver64WordsPerLineIsFatal)
{
    MachineConfig c;
    c.scheme = SchemeKind::HW;
    c.cacheBytes = 64 * 1024;
    c.lineBytes = 256;
    EXPECT_NO_THROW(c.validate());
    c.lineBytes = 512;
    EXPECT_THROW(c.validate(), FatalError);
    c.scheme = SchemeKind::TPI;
    EXPECT_NO_THROW(c.validate());
}

/** A write buffer organized as a cache needs at least one slot. */
TEST(MachineConfigValidate, ZeroWordWriteBufferCacheIsFatal)
{
    MachineConfig c;
    c.writeBufferAsCache = true;
    c.writeBufferCacheWords = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c.writeBufferAsCache = false;
    EXPECT_NO_THROW(c.validate());
}

/**
 * The executor has one operation source, so the old `fastpath` machine
 * key is gone: passing it is a usage error, not a silent no-op.
 */
TEST(MachineConfigParams, FastpathKeyIsUnknown)
{
    Params p = MachineConfig::params();
    EXPECT_FALSE(p.has("fastpath"));
    try {
        p.parseAssignment("fastpath=false");
        ADD_FAILURE() << "fastpath=false was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown parameter 'fastpath'"),
                  std::string::npos)
            << e.what();
    }
}
