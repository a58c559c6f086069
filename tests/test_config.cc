/** @file Unit tests for the Params key/value store and MachineConfig. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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
    EXPECT_EQ(p.getUint("procs"), 16u);
    EXPECT_EQ(p.getString("name"), "tpi");
    EXPECT_DOUBLE_EQ(p.getDouble("rate"), 0.5);
    EXPECT_FALSE(p.getBool("verbose"));
}

TEST(Params, SetOverrides)
{
    Params p = makeParams();
    p.set("procs", "64");
    EXPECT_EQ(p.getUint("procs"), 64u);
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
    EXPECT_EQ(p.getUint("procs"), 4u);
    EXPECT_TRUE(p.getBool("verbose"));
}

TEST(Params, UnknownKeyFatal)
{
    Params p = makeParams();
    EXPECT_THROW(p.set("bogus", "1"), FatalError);
    EXPECT_THROW(p.getUint("bogus"), FatalError);
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
    EXPECT_THROW(p.getUint("procs"), FatalError);
    p.set("procs", "12x");
    EXPECT_THROW(p.getUint("procs"), FatalError);
}

TEST(Params, NegativeUintFatal)
{
    Params p = makeParams();
    p.set("procs", "-3");
    EXPECT_THROW(p.getUint("procs"), FatalError);
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
    EXPECT_EQ(p.getUint("cache_kb"), 64u);
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

namespace {

/** A CLI-style schema: valued keys, flags and the two aliases in use. */
Params
makeCli()
{
    Params p;
    p.define("jobs", "0", "worker threads")
        .define("json", "", "results file")
        .define("max-states", "8000000", "state cap")
        .defineFlag("resume", "resume from the journal")
        .defineFlag("help", "this text")
        .alias("-j", "jobs")
        .alias("-h", "help");
    return p;
}

std::vector<std::string>
parseCli(Params &p, std::vector<const char *> args)
{
    args.insert(args.begin(), "tool");
    return p.parseCommandLine(int(args.size()), args.data());
}

} // namespace

TEST(ParamsCommandLine, BothSpellingsAndBareFlags)
{
    Params p = makeCli();
    const std::vector<std::string> pos = parseCli(
        p, {"OCEAN", "--jobs", "4", "--json=out.json", "--resume", "TRFD"});
    EXPECT_EQ(pos, (std::vector<std::string>{"OCEAN", "TRFD"}));
    EXPECT_EQ(p.getUint("jobs"), 4u);
    EXPECT_EQ(p.getString("json"), "out.json");
    EXPECT_TRUE(p.getBool("resume"));
    EXPECT_FALSE(p.getBool("help"));

    // A bare flag never takes the next argument as its value; the `=`
    // spelling sets it explicitly.
    Params q = makeCli();
    EXPECT_EQ(parseCli(q, {"--resume", "false", "--resume=no"}),
              std::vector<std::string>{"false"});
    EXPECT_FALSE(q.getBool("resume"));
}

TEST(ParamsCommandLine, Aliases)
{
    Params p = makeCli();
    EXPECT_TRUE(parseCli(p, {"-j", "2", "-h"}).empty());
    EXPECT_EQ(p.getUint("jobs"), 2u);
    EXPECT_TRUE(p.getBool("help"));
    // An alias is its exact spelling; no other short form exists.
    Params q = makeCli();
    EXPECT_THROW(parseCli(q, {"-j=2"}), FatalError);
    EXPECT_THROW(parseCli(q, {"-x"}), FatalError);
    EXPECT_THROW(q.alias("-j", "json"), FatalError);
    EXPECT_THROW(q.alias("-q", "quiet"), FatalError);
}

TEST(ParamsCommandLine, MissingValueAndUnknownFlagFatal)
{
    Params p = makeCli();
    EXPECT_THROW(parseCli(p, {"--jobs"}), FatalError);
    Params q = makeCli();
    EXPECT_THROW(parseCli(q, {"--bogus", "1"}), FatalError);
    Params r = makeCli();
    EXPECT_THROW(parseCli(r, {"--bogus=1"}), FatalError);
    // A value may itself start with '-'; the range check then refuses it.
    Params s = makeCli();
    EXPECT_NO_THROW(parseCli(s, {"--max-states", "-1"}));
    EXPECT_THROW(s.getUint("max-states"), FatalError);
}

TEST(ParamsCommandLine, HelpListsEveryKeyOnce)
{
    const std::string help = makeCli().help();
    for (const char *line : {"-j, --jobs JOBS", "--json JSON",
                             "--max-states MAX_STATES", "--resume  ",
                             "-h, --help  "})
        EXPECT_NE(help.find(line), std::string::npos) << line << "\n"
                                                      << help;
    EXPECT_NE(help.find("(default 8000000)"), std::string::npos) << help;
    EXPECT_EQ(help.find("--resume RESUME"), std::string::npos) << help;
}

TEST(ParamsRangedRead, RefusesWhatIsNotAWholeNumberInRange)
{
    Params p = makeCli();
    auto read = [&p](const char *v, std::uint64_t lo, std::uint64_t hi) {
        p.set("max-states", v);
        return p.getUint("max-states", lo, hi);
    };
    EXPECT_EQ(read("3", 2, 3), 3u);
    EXPECT_EQ(read("0x10", 0, 16), 16u);
    EXPECT_EQ(read("0X1f", 0, 31), 31u);
    // A leading zero reads as decimal, not octal.
    EXPECT_EQ(read("010", 0, 100), 10u);
    EXPECT_EQ(read("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
    for (const char *bad : {"", "abc", "12x", "2.7", "2.0", "8e6", "-1",
                            "+1", " 1", "0x", "0x1g",
                            "18446744073709551616", "99999999999999999999"})
        EXPECT_THROW(read(bad, 0, UINT64_MAX), FatalError) << bad;
    EXPECT_THROW(read("4", 2, 3), FatalError);
    EXPECT_THROW(read("1", 2, 3), FatalError);
    EXPECT_THROW(read("4294967298", 0, 4294967295u), FatalError);
    EXPECT_EQ(Params::parseUint("proc", "4294967295", 0, 4294967295u),
              4294967295u);
    EXPECT_THROW(Params::parseUint("proc", "4294967296", 0, 4294967295u),
                 FatalError);
}

TEST(ParamsRangedRead, RealAndBooleanReads)
{
    Params p = makeParams();
    p.set("rate", "nan");
    EXPECT_THROW(p.getDouble("rate"), FatalError);
    p.set("rate", "0.25");
    EXPECT_DOUBLE_EQ(p.getDouble("rate", 0, 1), 0.25);
    p.set("rate", "-0.5");
    EXPECT_THROW(p.getDouble("rate", 0, 1), FatalError);
    p.set("verbose", "maybe");
    EXPECT_THROW(p.getBool("verbose"), FatalError);
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

/**
 * fromParams reads every unsigned field whole and in the field's range,
 * so a value past 32 bits is refused instead of wrapping to a small one,
 * and a cache size whose byte count would wrap is refused too.
 */
TEST(MachineConfigParams, NarrowFieldsRefuseWideValues)
{
    for (const char *key : {"procs", "line_bytes", "assoc", "timetag_bits",
                            "dir_ptrs", "fault_retries"}) {
        Params p = MachineConfig::params();
        p.set(key, "4294967300");
        EXPECT_THROW(MachineConfig::fromParams(p), FatalError) << key;
        p.set(key, "-1");
        EXPECT_THROW(MachineConfig::fromParams(p), FatalError) << key;
    }
    Params p = MachineConfig::params();
    p.set("cache_kb", "18014398509481984"); // 2^54: 2^64 bytes
    EXPECT_THROW(MachineConfig::fromParams(p), FatalError);
    p.set("cache_kb", "64");
    p.set("procs", "4");
    EXPECT_EQ(MachineConfig::fromParams(p).procs, 4u);
    EXPECT_EQ(MachineConfig::fromParams(p).cacheBytes, 64u * 1024);
}
