/**
 * @file
 * Random legal-DOALL program generator for property tests.
 *
 * Programs are built so that no DOALL carries a cross-task same-word
 * dependence (outside critical sections); the executor's race detector
 * re-checks this at run time, so the generator is itself under test.
 */

#ifndef HSCD_TESTS_PROGRAM_GEN_HH
#define HSCD_TESTS_PROGRAM_GEN_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "hir/builder.hh"

namespace hscd {
namespace testgen {

struct GenOptions
{
    std::uint64_t seed = 1;
    std::int64_t arraySize = 48;
    unsigned dataArrays = 3;
    unsigned phases = 4;          ///< top-level phases
    bool useCritical = true;
    bool useIf = true;
    bool useUnknown = true;
    bool useCalls = true;
    bool useSync = true;
    /**
     * Start MAIN with a barrier so no fill happens in epoch 0 (where
     * TPI's side-filled words boot invalid); used by cross-scheme
     * dominance properties.
     */
    bool leadingBarrier = false;
};

inline hir::Program
randomLegalProgram(const GenOptions &opt)
{
    using hir::ProgramBuilder;
    using hir::TakePolicy;
    Rng rng(opt.seed);
    ProgramBuilder b;
    const std::int64_t N = opt.arraySize;
    b.param("N", N);

    std::vector<std::string> arrays;
    for (unsigned a = 0; a < opt.dataArrays; ++a) {
        arrays.push_back("A" + std::to_string(a));
        b.array(arrays.back(), {"N"});
    }
    b.array("ACC", {4}); // critical-section accumulators

    // One DOALL epoch: pick a written array and a legal access pattern.
    auto doallPhase = [&](const std::string &ivar) {
        unsigned w = rng.below(opt.dataArrays);
        const std::string &written = arrays[w];
        bool split = rng.chance(0.3); // write evens, read odds
        std::int64_t off = rng.range(0, 2);
        std::int64_t hi = split ? N / 2 - 1 : N - 1 - off;
        b.doall(ivar, 0, hi, [&] {
            auto i = b.v(ivar);
            // Reads of arrays not written this epoch: any shape.
            for (unsigned r = 0; r < 1 + rng.below(3); ++r) {
                unsigned a = rng.below(opt.dataArrays);
                if (a == w)
                    continue;
                switch (rng.below(4)) {
                  case 0:
                    b.read(arrays[a], {i});
                    break;
                  case 1:
                    b.read(arrays[a],
                           {b.c(rng.range(0, N - 1))});
                    break;
                  case 2:
                    if (opt.useUnknown) {
                        b.read(arrays[a], {b.unknown()});
                        break;
                    }
                    [[fallthrough]];
                  default:
                    b.read(arrays[a], {i * (split ? 2 : 1)});
                    break;
                }
            }
            b.compute(1 + rng.below(4));
            if (split) {
                // Tasks write even elements, read odd ones: disjoint.
                b.read(written, {i * 2 + 1});
                b.write(written, {i * 2});
            } else {
                if (rng.chance(0.5))
                    b.read(written, {i + off}); // read-modify-write
                b.write(written, {i + off});
                if (rng.chance(0.3))
                    b.read(written, {i + off}); // covered read
            }
            if (opt.useCritical && rng.chance(0.35)) {
                std::int64_t slot = rng.range(0, 3);
                b.critical([&] {
                    b.read("ACC", {b.c(slot)});
                    b.write("ACC", {b.c(slot)});
                });
            }
            // Alternate-policy branch inside the DOALL body: legal (both
            // arms read-only on data this epoch), and its trips count
            // per iteration, so the recording must replay it under any
            // placement (FastpathEquiv.GeneratedAlternateInDoallRecords).
            if (opt.useIf && rng.chance(0.12)) {
                unsigned a = rng.below(opt.dataArrays);
                // Reading the written array is only legal at the task's
                // own (covered) word; any shape goes for the others.
                hir::IntExpr sub =
                    a == w ? (split ? i * 2 : i + off) : i;
                b.ifUnknown(TakePolicy::Alternate,
                            [&] {
                                b.read(arrays[a], {sub});
                                b.compute(2);
                            },
                            [&] { b.compute(1); });
            }
        });
    };

    // Doacross chain: task i consumes task i-1's element, ordered by
    // post/wait. Self-seeding post(0) keeps it deadlock-free under any
    // schedule (posts precede waits; tasks only wait on lower tasks).
    auto syncPhase = [&](const std::string &ivar) {
        unsigned w = rng.below(opt.dataArrays);
        const std::string &written = arrays[w];
        b.doall(ivar, 1, N - 1, [&] {
            auto i = b.v(ivar);
            b.compute(1 + rng.below(3));
            b.post(0);
            b.wait(i - 1);
            b.read(written, {i - 1});
            b.write(written, {i});
            b.post(i);
        });
    };

    auto serialPhase = [&](const std::string &ivar) {
        unsigned a = rng.below(opt.dataArrays);
        std::int64_t lo = rng.range(0, N / 2);
        std::int64_t hi = lo + rng.range(0, N / 2 - 1);
        b.doserial(ivar, lo, hi, [&] {
            if (rng.chance(0.6))
                b.read(arrays[a], {b.v(ivar)});
            b.write(arrays[a], {b.v(ivar)});
        });
        if (rng.chance(0.4))
            b.read("ACC", {b.c(rng.range(0, 3))});
    };

    int uid = 0;
    auto phase = [&](auto &&self, int depth) -> void {
        std::string v = "i" + std::to_string(uid++);
        if (opt.useSync && depth == 0 && rng.chance(0.15)) {
            syncPhase(v);
            return;
        }
        switch (rng.below(depth > 0 ? 4u : 6u)) {
          case 0:
          case 1:
            doallPhase(v);
            break;
          case 2:
            serialPhase(v);
            break;
          case 3:
            if (opt.useIf) {
                TakePolicy pol =
                    rng.chance(0.5) ? TakePolicy::Alternate
                                    : TakePolicy::Hash;
                b.ifUnknown(pol, [&] { doallPhase(v); },
                            [&] { serialPhase(v + "e"); });
                break;
            }
            doallPhase(v);
            break;
          case 4: {
            // Time loop around one or two inner phases.
            b.doserial("t" + std::to_string(uid++), 0,
                       rng.range(1, 3), [&] {
                           self(self, depth + 1);
                           if (rng.chance(0.5))
                               self(self, depth + 1);
                       });
            break;
          }
          default:
            b.barrier();
            doallPhase(v);
            break;
        }
    };

    if (opt.useCalls && rng.chance(0.5)) {
        b.proc("MAIN", [&] {
            if (opt.leadingBarrier)
                b.barrier();
            phase(phase, 0);
            b.call("STEP");
            phase(phase, 0);
            b.call("STEP");
        });
        b.proc("STEP", [&] { phase(phase, 0); });
    } else {
        b.proc("MAIN", [&] {
            if (opt.leadingBarrier)
                b.barrier();
            for (unsigned p = 0; p < opt.phases; ++p)
                phase(phase, 0);
        });
    }
    return b.build();
}

} // namespace testgen
} // namespace hscd

#endif // HSCD_TESTS_PROGRAM_GEN_HH
