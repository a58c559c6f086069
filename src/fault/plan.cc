#include "fault/plan.hh"

#include "common/config.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"

namespace hscd {
namespace fault {

namespace {

const char *const kSiteNames[kNumSites] = {
    "net.drop", "net.dup", "net.delay", "net.reorder",
    "mem.tag",  "mem.epoch", "dir.presence",
};

/** Map one SITES token to its mask bits, or 0 if unrecognised. */
unsigned
parseSiteToken(const std::string &tok)
{
    if (tok == "all")
        return kSitesAll;
    if (tok == "net")
        return kSitesNet;
    if (tok == "mem")
        return kSitesMem;
    if (tok == "dir")
        return kSitesDir;
    for (unsigned i = 0; i < kNumSites; i++) {
        if (tok == kSiteNames[i])
            return 1u << i;
    }
    return 0;
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(sep, start);
        out.push_back(s.substr(start, pos - start));
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return out;
}

} // namespace

const char *
siteName(Site s)
{
    const unsigned i = static_cast<unsigned>(s);
    hscd_assert(i < kNumSites, "bad fault site %u", i);
    return kSiteNames[i];
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    const std::vector<std::string> parts = splitOn(spec, ':');
    if (parts.size() > 3 || parts[0].empty())
        fatal("bad --fault spec '%s': want RATE[:SEED[:SITES]]", spec);

    FaultPlan plan;
    plan.rate = Params::parseReal("--fault rate", parts[0], 0.0, 1.0);
    if (parts.size() >= 2 && !parts[1].empty())
        plan.seed = Params::parseUint("--fault seed", parts[1]);

    if (parts.size() >= 3) {
        plan.sites = 0;
        for (const std::string &tok : splitOn(parts[2], ',')) {
            const unsigned bits = parseSiteToken(tok);
            if (!bits)
                fatal("bad --fault site '%s': want all, net, mem, dir, "
                      "or a site name like net.drop", tok);
            plan.sites |= bits;
        }
    }
    return plan;
}

std::string
FaultPlan::str() const
{
    std::string sites_str;
    if (sites == kSitesAll) {
        sites_str = "all";
    } else {
        for (unsigned i = 0; i < kNumSites; i++) {
            if (!(sites & (1u << i)))
                continue;
            if (!sites_str.empty())
                sites_str += ',';
            sites_str += kSiteNames[i];
        }
        if (sites_str.empty())
            sites_str = "none";
    }
    return csprintf("%g:%d:%s", rate, seed, sites_str);
}

FaultPlan
planForCell(const FaultPlan &plan, std::uint64_t index)
{
    FaultPlan cell = plan;
    // splitmix output is a bijection of (seed + offset), so distinct cell
    // indices can never collapse onto the same derived seed stream.
    std::uint64_t s = plan.seed + 0x9e3779b97f4a7c15ull * index;
    cell.seed = splitmix64(s);
    return cell;
}

} // namespace fault
} // namespace hscd
