#include "obs/provenance.hh"

#include "common/strutil.hh"

namespace hscd {
namespace obs {

std::uint64_t
fnv1a(const std::string &s, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char b : s) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
Provenance::json(unsigned pad) const
{
    const std::string p(pad, ' ');
    std::string out = "{\n";
    out += p + csprintf("  \"schema\": \"%s/%d\",\n", jsonEscape(schema),
                        version);
    out += p + csprintf("  \"tool\": \"%s\",\n", jsonEscape(tool));
    out += p + csprintf("  \"config_hash\": \"%016x\",\n", configHash);
    out += p + csprintf("  \"fault\": \"%s\",\n", jsonEscape(faultSpec));
    out += p + csprintf("  \"jobs\": %d\n", jobs);
    out += p + "}";
    return out;
}

} // namespace obs
} // namespace hscd
