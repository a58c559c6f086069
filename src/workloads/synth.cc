/** @file Seed-deterministic synthetic workload generators. */

#include "workloads/synth.hh"

#include "common/config.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "hir/builder.hh"

namespace hscd {
namespace workloads {

using hir::IntExpr;
using hir::ProgramBuilder;

namespace {

/** FNV-1a: stable family fingerprint for seeding the PCG stream. */
std::uint64_t
familyHash(const std::string &family)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : family)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

std::string
loopVar(const char *base, int round)
{
    return std::string(base) + std::to_string(round);
}

/**
 * Streaming: long unit/strided passes that copy-transform one buffer
 * into another, rotating through 2-4 buffers so each round consumes the
 * previous round's output. Low reuse; misses should be dominated by
 * cold/replacement, and direction reversals force cross-processor
 * producer-consumer pairs under block scheduling.
 */
hir::Program
genStreaming(Rng &rng, int scale)
{
    const std::int64_t n =
        (48 + 16 * static_cast<std::int64_t>(rng.below(4))) * scale;
    const int streams = 2 + static_cast<int>(rng.below(3));
    const int rounds = 2 + static_cast<int>(rng.below(2));
    const std::int64_t stride = rng.chance(0.3) ? 2 : 1;
    const std::int64_t iters = n / stride;

    ProgramBuilder b;
    b.param("N", n);
    std::vector<std::string> arr;
    for (int s = 0; s < streams; ++s) {
        arr.push_back("S" + std::to_string(s));
        b.array(arr.back(), std::vector<std::int64_t>{n});
    }
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            for (const std::string &a : arr)
                b.write(a, {b.v("init")});
        });
        for (int r = 0; r < rounds; ++r) {
            const std::string &src = arr[r % streams];
            const std::string &dst = arr[(r + 1) % streams];
            const bool reversed = rng.chance(0.35);
            const Cycles work = 1 + rng.below(4);
            const std::string iv = loopVar("i", r);
            b.doall(iv, 0, iters - 1, [&] {
                IntExpr idx =
                    reversed ? b.c((iters - 1) * stride) -
                                   b.v(iv) * stride
                             : b.v(iv) * stride;
                b.read(src, {idx});
                b.compute(work);
                b.write(dst, {idx});
            });
        }
    });
    return b.build();
}

/**
 * Dense reuse: every task broadcast-reads a handful of slots of a small
 * table each round plus its own accumulator. Half the seeds keep the
 * table read-only after init (Normal reads, high hit rates); the other
 * half rewrite it serially every other round, turning the broadcasts
 * into short-distance Time-Reads.
 */
hir::Program
genReuse(Rng &rng, int scale)
{
    const std::int64_t m = 8 + 4 * static_cast<std::int64_t>(rng.below(4));
    const std::int64_t k =
        (32 + 16 * static_cast<std::int64_t>(rng.below(3))) * scale;
    const int rounds = 3 + static_cast<int>(rng.below(3));
    const bool rewrite = rng.chance(0.5);
    const int slots = 2 + static_cast<int>(rng.below(3));

    ProgramBuilder b;
    b.param("M", m);
    b.param("K", k);
    b.array("T", {"M"});
    b.array("OUT", {"K"});
    b.proc("MAIN", [&] {
        b.doserial("it", 0, m - 1, [&] { b.write("T", {b.v("it")}); });
        b.doserial("io", 0, k - 1, [&] { b.write("OUT", {b.v("io")}); });
        for (int r = 0; r < rounds; ++r) {
            if (rewrite && r % 2 == 1) {
                const std::string wv = loopVar("w", r);
                b.doserial(wv, 0, m - 1, [&] {
                    b.write("T", {b.v(wv)});
                });
            }
            const Cycles work = 1 + rng.below(3);
            std::vector<std::int64_t> picks;
            for (int s = 0; s < slots; ++s)
                picks.push_back(rng.below(static_cast<std::uint32_t>(m)));
            const std::string iv = loopVar("i", r);
            b.doall(iv, 0, k - 1, [&] {
                for (std::int64_t p : picks)
                    b.read("T", {b.c(p)});
                b.read("OUT", {b.v(iv)});
                b.compute(work);
                b.write("OUT", {b.v(iv)});
            });
        }
    });
    return b.build();
}

/**
 * Producer-consumer: a chain of 2-4 stages per round; stage j's task i
 * consumes stage j-1's elements i+off for a random offset subset of
 * {-1,0,+1} (all produced in the previous epoch), optionally followed
 * by a serial consumer that scans the chain tail.
 */
hir::Program
genProdcons(Rng &rng, int scale)
{
    const std::int64_t n =
        (32 + 8 * static_cast<std::int64_t>(rng.below(5))) * scale;
    const int stages = 2 + static_cast<int>(rng.below(3));
    const int rounds = 2 + static_cast<int>(rng.below(2));
    const bool serialTail = rng.chance(0.5);

    ProgramBuilder b;
    b.param("N", n);
    std::vector<std::string> stage;
    for (int s = 0; s <= stages; ++s) {
        stage.push_back("S" + std::to_string(s));
        b.array(stage.back(), std::vector<std::int64_t>{n});
    }
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            for (const std::string &a : stage)
                b.write(a, {b.v("init")});
        });
        for (int r = 0; r < rounds; ++r) {
            const std::string pv = loopVar("p", r);
            b.doall(pv, 0, n - 1, [&] {
                b.compute(2);
                b.write(stage[0], {b.v(pv)});
            });
            for (int s = 1; s <= stages; ++s) {
                // Random nonempty offset subset of {-1, 0, +1}.
                std::vector<std::int64_t> offs;
                for (std::int64_t o : {-1, 0, 1})
                    if (rng.chance(0.5))
                        offs.push_back(o);
                if (offs.empty())
                    offs.push_back(0);
                const Cycles work = 1 + rng.below(3);
                const std::string cv =
                    "c" + std::to_string(r) + "_" + std::to_string(s);
                b.doall(cv, 1, n - 2, [&] {
                    for (std::int64_t o : offs)
                        b.read(stage[s - 1], {b.v(cv) + o});
                    b.compute(work);
                    b.write(stage[s], {b.v(cv)});
                });
            }
            if (serialTail) {
                const std::string tv = loopVar("t", r);
                b.doserial(tv, 0, 7, [&] {
                    b.read(stage[stages], {b.v(tv) * (n / 8)});
                });
            }
        }
    });
    return b.build();
}

/**
 * Stencil halo: double-buffered 1-D relaxation with randomized radius
 * 1-3. Half the seeds run a symmetric reverse sweep per step, the rest
 * a plain copy-back; interior reads of radius-r halos are the classic
 * one-epoch-distance Time-Read shape.
 */
hir::Program
genStencil(Rng &rng, int scale)
{
    const std::int64_t rdx = 1 + static_cast<std::int64_t>(rng.below(3));
    const std::int64_t n =
        (40 + 8 * static_cast<std::int64_t>(rng.below(6))) * scale;
    const int steps = 2 + static_cast<int>(rng.below(3));
    const Cycles work = 2 + rng.below(5);
    const bool symmetric = rng.chance(0.5);

    ProgramBuilder b;
    b.param("N", n);
    b.param("R", rdx);
    b.array("OLD", {"N"});
    b.array("NEW", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            b.write("OLD", {b.v("init")});
            b.write("NEW", {b.v("init")});
        });
        b.doserial("t", 0, steps - 1, [&] {
            b.doall("i", rdx, n - 1 - rdx, [&] {
                for (std::int64_t d = -rdx; d <= rdx; ++d)
                    b.read("OLD", {b.v("i") + d});
                b.compute(work);
                b.write("NEW", {b.v("i")});
            });
            b.doall("j", rdx, n - 1 - rdx, [&] {
                if (symmetric) {
                    for (std::int64_t d = -rdx; d <= rdx; ++d)
                        b.read("NEW", {b.v("j") + d});
                    b.compute(work);
                } else {
                    b.read("NEW", {b.v("j")});
                }
                b.write("OLD", {b.v("j")});
            });
        });
    });
    return b.build();
}

/**
 * Migratory sharing: round r's task i owns (reads then rewrites) chunk
 * i+r, so every chunk migrates to the next task each round - the
 * read-modify-write handoff pattern invalidation protocols like and
 * update protocols hate. Half the seeds add a lock-protected shared
 * counter (migratory-via-critical-section).
 */
hir::Program
genMigratory(Rng &rng, int scale)
{
    const std::int64_t tasks =
        (8 + static_cast<std::int64_t>(rng.below(9))) * scale;
    const std::int64_t w = 2 + static_cast<std::int64_t>(rng.below(3));
    const int rounds = 3 + static_cast<int>(rng.below(3));
    const bool useLock = rng.chance(0.5);
    const std::int64_t chunks = tasks + rounds;

    ProgramBuilder b;
    b.param("T", tasks);
    b.param("W", w);
    b.array("M", std::vector<std::int64_t>{chunks * w});
    b.array("LCK", std::vector<std::int64_t>{2});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, chunks * w - 1, [&] {
            b.write("M", {b.v("init")});
        });
        b.write("LCK", {b.c(0)});
        for (int r = 0; r < rounds; ++r) {
            const Cycles work = 1 + rng.below(3);
            const std::string iv = loopVar("i", r);
            b.doall(iv, 0, tasks - 1, [&] {
                // Chunk i+r: element (i+r)*w + k is affine in i.
                for (std::int64_t k = 0; k < w; ++k)
                    b.read("M", {b.v(iv) * w + (r * w + k)});
                b.compute(work);
                for (std::int64_t k = 0; k < w; ++k)
                    b.write("M", {b.v(iv) * w + (r * w + k)});
                if (useLock) {
                    b.critical([&] {
                        b.read("LCK", {b.c(0)});
                        b.write("LCK", {b.c(0)});
                    });
                }
            });
        }
    });
    return b.build();
}

/**
 * False sharing: each task repeatedly read-modify-writes its own slot
 * of a compact counter array, so adjacent tasks' slots share 4-word
 * lines (stride 1 packs 4 tasks per line; stride 2 packs 2). Most
 * seeds add a neighbour-scan phase that true-shares the same lines
 * across epochs for contrast.
 */
hir::Program
genFalseshare(Rng &rng, int scale)
{
    const std::int64_t tasks =
        (12 + static_cast<std::int64_t>(rng.below(9))) * scale;
    const std::int64_t stride = rng.chance(0.4) ? 2 : 1;
    const int rmw = 2 + static_cast<int>(rng.below(3));
    const int rounds = 3 + static_cast<int>(rng.below(3));
    const bool neighbours = rng.chance(0.6);

    ProgramBuilder b;
    b.param("T", tasks);
    b.array("CNT", std::vector<std::int64_t>{tasks * stride});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, tasks * stride - 1, [&] {
            b.write("CNT", {b.v("init")});
        });
        for (int r = 0; r < rounds; ++r) {
            const std::string iv = loopVar("i", r);
            b.doall(iv, 0, tasks - 1, [&] {
                for (int q = 0; q < rmw; ++q) {
                    b.read("CNT", {b.v(iv) * stride});
                    b.compute(1);
                    b.write("CNT", {b.v(iv) * stride});
                }
            });
            if (neighbours) {
                const std::string nv = loopVar("n", r);
                b.doall(nv, 1, tasks - 2, [&] {
                    b.read("CNT", {b.v(nv) * stride - stride});
                    b.read("CNT", {b.v(nv) * stride + stride});
                    b.compute(1);
                });
            }
        }
    });
    return b.build();
}

} // namespace

std::vector<std::string>
synthFamilies()
{
    return {"falseshare", "migratory", "prodcons",
            "reuse",      "stencil",   "streaming"};
}

bool
isSynthFamily(const std::string &name)
{
    const std::string n = toLower(trim(name));
    for (const std::string &f : synthFamilies())
        if (n == f)
            return true;
    return false;
}

bool
isSynthSpec(const std::string &spec)
{
    const std::string s = toLower(trim(spec));
    return s.rfind("synth:", 0) == 0;
}

std::string
SynthSpec::str() const
{
    return "synth:" + family + ":" + std::to_string(seed);
}

SynthSpec
parseSynthSpec(const std::string &spec)
{
    const std::string s = toLower(trim(spec));
    if (s.rfind("synth:", 0) != 0)
        fatal("not a synth spec: '%s' (expected synth:<family>:<seed>)",
              spec);
    const std::string rest = s.substr(6);
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos)
        fatal("bad synth spec '%s': expected synth:<family>:<seed>",
              spec);
    SynthSpec out;
    out.family = rest.substr(0, colon);
    const std::string seedStr = rest.substr(colon + 1);
    if (!isSynthFamily(out.family)) {
        std::string families;
        for (const std::string &f : synthFamilies())
            families += (families.empty() ? "" : ", ") + f;
        fatal("unknown synth family '%s' (expected one of %s)",
              out.family, families);
    }
    out.seed = Params::parseUint("synth seed", seedStr);
    return out;
}

hir::Program
buildSynth(const SynthSpec &spec, int scale)
{
    if (scale < 1)
        fatal("synth scale must be >= 1, got %d", scale);
    const std::uint64_t fh = familyHash(spec.family);
    Rng rng(spec.seed ^ fh, fh | 1);
    if (spec.family == "falseshare")
        return genFalseshare(rng, scale);
    if (spec.family == "migratory")
        return genMigratory(rng, scale);
    if (spec.family == "prodcons")
        return genProdcons(rng, scale);
    if (spec.family == "reuse")
        return genReuse(rng, scale);
    if (spec.family == "stencil")
        return genStencil(rng, scale);
    if (spec.family == "streaming")
        return genStreaming(rng, scale);
    fatal("unknown synth family '%s'", spec.family);
}

hir::Program
buildSynth(const std::string &family, std::uint64_t seed, int scale)
{
    SynthSpec spec;
    spec.family = toLower(trim(family));
    spec.seed = seed;
    if (!isSynthFamily(spec.family))
        fatal("unknown synth family '%s'", family);
    return buildSynth(spec, scale);
}

} // namespace workloads
} // namespace hscd
