/**
 * @file
 * Scheme-level fuzzing: random epoch-structured access streams driven
 * straight into each coherence scheme, with an independent shadow model
 * checking every observed value and the directory invariants checked
 * after every operation.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "mc/explorer.hh"
#include "mc/replay.hh"
#include "mem/coherence.hh"
#include "mem/directory_scheme.hh"

using namespace hscd;
using namespace hscd::mem;
using compiler::MarkKind;

namespace {

/**
 * Generates a legal access stream: per epoch, each word has at most one
 * writing processor, and readers of a word never overlap its writer
 * within the epoch. Reads are issued as Time-Reads with the exact
 * distance to the last write epoch - the most aggressive sound marking.
 */
class Fuzzer
{
  public:
    Fuzzer(SchemeKind kind, std::uint64_t seed, unsigned line_bytes = 16,
           unsigned tag_bits = 8)
        : _rng(seed), _memory(1 << 16),
          _cfg(), _epoch(0)
    {
        _cfg.scheme = kind;
        _cfg.procs = 4;
        _cfg.cacheBytes = 2048; // tiny: exercise eviction constantly
        _cfg.lineBytes = line_bytes;
        _cfg.timetagBits = tag_bits;
        _net = std::make_unique<net::Network>(_cfg.procs,
                                              _cfg.networkRadix,
                                              _cfg.maxNetworkLoad);
        _scheme = makeScheme(_cfg, _memory, *_net);
    }

    void
    runEpochs(int epochs, int ops_per_epoch)
    {
        for (int e = 0; e < epochs; ++e) {
            epochOps(ops_per_epoch);
            ++_epoch;
            _scheme->epochBoundary(_epoch);
        }
    }

    Counter violations() const { return _violations; }
    const CoherenceScheme &scheme() const { return *_scheme; }

  private:
    struct WordState
    {
        ValueStamp stamp = 0;
        EpochId lastWriteEpoch = 0;
        bool everWritten = false;
    };

    void
    epochOps(int count)
    {
        // Pre-assign this epoch's writers: a DOALL fixes who writes each
        // word before the epoch starts, and no other task may touch a
        // written word at all (even a read before the write is a race).
        std::map<std::uint64_t, ProcId> writer;
        for (int i = 0; i < count / 3; ++i)
            writer.emplace(_rng.below(256),
                           static_cast<ProcId>(_rng.below(_cfg.procs)));

        for (int i = 0; i < count; ++i) {
            ProcId p = static_cast<ProcId>(_rng.below(_cfg.procs));
            std::uint64_t word = _rng.below(256);
            Addr addr = 0x1000 + word * 4;
            auto w = writer.find(word);
            bool write = w != writer.end() && w->second == p &&
                         _rng.chance(0.6);

            if (!write && w != writer.end() && w->second != p)
                continue; // word owned by another task this epoch

            MemOp op;
            op.proc = p;
            op.addr = addr;
            op.arrayId = static_cast<std::uint32_t>(word / 32);
            op.now = ++_now;
            WordState &ws = _shadow[word];
            if (write) {
                op.write = true;
                op.stamp = ++_stamp;
                ws.stamp = op.stamp;
                ws.lastWriteEpoch = _epoch;
                ws.everWritten = true;
                _scheme->access(op);
            } else {
                op.mark = _rng.chance(0.2) ? MarkKind::Normal
                                           : MarkKind::TimeRead;
                // A Normal read is only sound for never-written data
                // here; anything else gets the exact-distance Time-Read.
                if (op.mark == MarkKind::Normal && ws.everWritten)
                    op.mark = MarkKind::TimeRead;
                if (op.mark == MarkKind::TimeRead) {
                    // Exact distance to the last write epoch (or huge
                    // when never written).
                    op.distance =
                        ws.everWritten
                            ? static_cast<std::uint32_t>(
                                  _epoch - ws.lastWriteEpoch)
                            : 1000000;
                }
                AccessResult res = _scheme->access(op);
                if (res.observed != ws.stamp)
                    ++_violations;
            }
            checkDirectoryInvariants(addr);
        }
    }

    void
    checkDirectoryInvariants(Addr addr)
    {
        auto *dir = dynamic_cast<DirectoryScheme *>(_scheme.get());
        if (!dir)
            return;
        const DirEntry &e = dir->dirEntry(addr);
        if (e.state == DirEntry::State::Modified) {
            ASSERT_NE(e.owner, invalidProc);
            ASSERT_EQ(e.sharers, std::uint64_t{1} << e.owner)
                << "modified lines have exactly the owner present";
        }
        if (e.state == DirEntry::State::Uncached) {
            ASSERT_EQ(e.sharers, 0u);
        }
    }

    Rng _rng;
    MainMemory _memory;
    MachineConfig _cfg;
    std::unique_ptr<net::Network> _net;
    std::unique_ptr<CoherenceScheme> _scheme;
    std::map<std::uint64_t, WordState> _shadow;
    EpochId _epoch;
    Cycles _now = 0;
    ValueStamp _stamp = 0;
    Counter _violations = 0;
};

struct FuzzCase
{
    SchemeKind scheme;
    unsigned lineBytes;
    unsigned tagBits;
};

class SchemeFuzz : public testing::TestWithParam<FuzzCase>
{
};

} // namespace

TEST_P(SchemeFuzz, RandomStreamsNeverReadStale)
{
    const FuzzCase &fc = GetParam();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Fuzzer f(fc.scheme, seed * 31, fc.lineBytes, fc.tagBits);
        f.runEpochs(40, 300);
        EXPECT_EQ(f.violations(), 0u)
            << schemeName(fc.scheme) << " seed " << seed;
        EXPECT_GT(f.scheme().stats().reads, 0u);
    }
}

// ----------------------------------------------------- pinned corpus --
//
// Model-checker feedback into the fuzz corpus (ISSUE 6 satellite): the
// exhaustive explorer came back clean on every shipped configuration,
// so there are no violating traces to pin. What it *did* surface during
// development was a near-miss interleaving - a benign lowered-tag
// mem.tag flip whose copy legally ages past dmax and must miss
// conservatively rather than trip the wraparound invariants. These
// pinned walks keep that fault corner (and the exhaustively-verified
// acceptance shapes) replaying deterministically against the real
// TpiScheme on every build; a divergence here means the implementation
// drifted from the modelled semantics.
TEST(SchemeFuzz, PinnedModelCheckerTraces)
{
    struct Pin
    {
        unsigned bits;
        unsigned faults;
        std::uint64_t seed;
    };
    // Seeds chosen to exercise: fault-free wraparound at both narrow
    // widths, and faulted walks whose scripts fire mem.tag flips /
    // net.drops at the 1-bit acceptance shape.
    const Pin pins[] = {{1, 0, 3},  {1, 0, 11}, {2, 0, 5},
                        {1, 1, 2},  {1, 1, 7},  {1, 1, 13},
                        {1, 1, 29}, {2, 1, 17}};
    for (const Pin &pin : pins) {
        mc::McConfig cfg;
        cfg.timetagBits = pin.bits;
        cfg.faultBudget = pin.faults;
        if (pin.bits == 2) {
            cfg.horizonEpochs = 6;
            cfg.opsPerEpoch = 1;
        }
        const std::vector<mc::Action> path =
            mc::randomWalk(cfg, pin.seed);
        const mc::CheckReport rep = mc::crossCheck(cfg, path);
        EXPECT_TRUE(rep.ok)
            << "bits=" << pin.bits << " faults=" << pin.faults
            << " seed=" << pin.seed << ": " << rep.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeFuzz,
    testing::Values(FuzzCase{SchemeKind::Base, 16, 8},
                    FuzzCase{SchemeKind::SC, 16, 8},
                    FuzzCase{SchemeKind::SC, 64, 8},
                    FuzzCase{SchemeKind::TPI, 16, 8},
                    FuzzCase{SchemeKind::TPI, 16, 3},
                    FuzzCase{SchemeKind::TPI, 64, 4},
                    FuzzCase{SchemeKind::TPI, 4, 2},
                    FuzzCase{SchemeKind::HW, 16, 8},
                    FuzzCase{SchemeKind::HW, 64, 8},
                    FuzzCase{SchemeKind::VC, 16, 8},
                    FuzzCase{SchemeKind::VC, 64, 8}),
    [](const auto &info) {
        return std::string(schemeName(info.param.scheme)) + "_l" +
               std::to_string(info.param.lineBytes) + "_t" +
               std::to_string(info.param.tagBits);
    });
