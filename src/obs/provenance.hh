/**
 * @file
 * Provenance headers for machine-readable artifacts.
 *
 * Every JSON file the toolchain emits (sweep results, metrics series,
 * Perfetto timelines, fault campaigns, lint reports) starts with a
 * self-describing provenance object: which schema and version the file
 * follows, which tool wrote it, a hash of the configuration that shaped
 * the data, the fault-injection spec, and the `--jobs` value. Archived
 * results then stay auditable ("which config produced this table?") and
 * resumable artifacts can be rejected when their provenance mismatches.
 *
 * Determinism note: every field except `jobs` is independent of the
 * thread count. The `jobs` field is, by design, the only JSON content
 * allowed to differ between otherwise byte-identical `--jobs` runs
 * (the stdout analogue is the sweep wall-clock line).
 */

#ifndef HSCD_OBS_PROVENANCE_HH
#define HSCD_OBS_PROVENANCE_HH

#include <cstdint>
#include <string>

#include "common/strutil.hh"

namespace hscd {
namespace obs {

using hscd::jsonEscape;

/** FNV-1a over a byte string (the provenance config-hash primitive). */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

struct Provenance
{
    /** Schema identifier, e.g. "hscd-sweep". */
    std::string schema;
    /** Schema version; bump on any incompatible field change. */
    unsigned version = 1;
    /** Producing tool / experiment, e.g. "bench_fig14" or "F14". */
    std::string tool;
    /** FNV-1a hash of the configuration that shaped the data. */
    std::uint64_t configHash = 0;
    /** Fault-injection spec ("off" when disabled). */
    std::string faultSpec = "off";
    /** Worker threads used to produce the artifact (0 = hardware). */
    unsigned jobs = 0;

    /**
     * Render as a JSON object (no trailing newline), each line prefixed
     * with @p pad spaces; the first line carries no prefix so the object
     * can follow a `"provenance": ` key.
     */
    std::string json(unsigned pad = 2) const;
};

} // namespace obs
} // namespace hscd

#endif // HSCD_OBS_PROVENANCE_HH
