/**
 * @file
 * Seed-deterministic synthetic workload generators.
 *
 * Six parameterized families cover the access-pattern taxonomy the
 * Perfect Club kernels only sample (streaming vs reuse mixes,
 * producer-consumer chains, stencil halos, migratory sharing, and
 * false-sharing stressors). Each generator emits well-formed,
 * legal-DOALL HIR from nothing but (family, seed, scale) and is
 * compiled by the ordinary Analysis pipeline - markings are earned, not
 * hand-written - so every program inherits the lint, oracle, shadow,
 * fast-path-equivalence, and fault harnesses for free.
 *
 * Specs are spelled `synth:<family>:<seed>` and accepted anywhere a
 * workload name is (bench sweeps, hscd_lint, hscd_inspect). Determinism
 * contract: the same (family, seed, scale) produces byte-identical HIR
 * in any process, at any thread count (pinned by
 * tests/test_synth_determinism.cc).
 */

#ifndef HSCD_WORKLOADS_SYNTH_HH
#define HSCD_WORKLOADS_SYNTH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hir/program.hh"

namespace hscd {
namespace workloads {

/** The generator families, in stable (alphabetical) order. */
std::vector<std::string> synthFamilies();

/** Is @p name one of synthFamilies() (case-insensitive)? */
bool isSynthFamily(const std::string &name);

/** Does @p spec look like a synth workload spec (`synth:...`)? */
bool isSynthSpec(const std::string &spec);

/** A parsed `synth:<family>:<seed>` workload spec. */
struct SynthSpec
{
    std::string family;      ///< canonical lower-case family name
    std::uint64_t seed = 1;

    /** Canonical spec string, `synth:<family>:<seed>`. */
    std::string str() const;
};

/**
 * Parse `synth:<family>:<seed>`. The family must be one of
 * synthFamilies() and the seed a plain decimal integer; anything else
 * is a user error (fatal(), i.e. FatalError - the CLIs map it to the
 * usage exit code).
 */
SynthSpec parseSynthSpec(const std::string &spec);

/**
 * Generate one synthetic program. @p scale multiplies the problem
 * size the same way it does for the six Perfect-Club-like kernels
 * (1 = test-sized, 2 = benchmark-sized).
 */
hir::Program buildSynth(const SynthSpec &spec, int scale = 1);
hir::Program buildSynth(const std::string &family, std::uint64_t seed,
                        int scale = 1);

} // namespace workloads
} // namespace hscd

#endif // HSCD_WORKLOADS_SYNTH_HH
