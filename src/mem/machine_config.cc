#include "mem/machine_config.hh"

#include <limits>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/strutil.hh"

namespace hscd {

SchemeKind
parseScheme(const std::string &s)
{
    const std::string v = toLower(trim(s));
    if (v == "base")
        return SchemeKind::Base;
    if (v == "sc")
        return SchemeKind::SC;
    if (v == "tpi")
        return SchemeKind::TPI;
    if (v == "hw" || v == "dir" || v == "directory")
        return SchemeKind::HW;
    if (v == "vc" || v == "version")
        return SchemeKind::VC;
    fatal("unknown scheme '%s' (expected base|sc|tpi|hw|vc)", s);
}

const char *
schemeName(SchemeKind k)
{
    switch (k) {
      case SchemeKind::Base:
        return "BASE";
      case SchemeKind::SC:
        return "SC";
      case SchemeKind::TPI:
        return "TPI";
      case SchemeKind::HW:
        return "HW";
      case SchemeKind::VC:
        return "VC";
    }
    return "?";
}

Topology
parseTopology(const std::string &s)
{
    const std::string v = toLower(trim(s));
    if (v == "min" || v == "omega" || v == "banyan")
        return Topology::MIN;
    if (v == "torus3d" || v == "torus" || v == "t3d")
        return Topology::Torus3D;
    fatal("unknown network '%s' (expected min|torus3d)", s);
}

const char *
topologyName(Topology t)
{
    switch (t) {
      case Topology::MIN:
        return "MIN";
      case Topology::Torus3D:
        return "torus3d";
    }
    return "?";
}

SchedPolicy
parseSched(const std::string &s)
{
    const std::string v = toLower(trim(s));
    if (v == "block")
        return SchedPolicy::Block;
    if (v == "cyclic")
        return SchedPolicy::Cyclic;
    if (v == "dynamic")
        return SchedPolicy::Dynamic;
    fatal("unknown schedule '%s' (expected block|cyclic|dynamic)", s);
}

const char *
schedName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::Block:
        return "block";
      case SchedPolicy::Cyclic:
        return "cyclic";
      case SchedPolicy::Dynamic:
        return "dynamic";
    }
    return "?";
}

Params
MachineConfig::params()
{
    Params p;
    p.define("procs", "16", "number of processors")
        .define("cache_kb", "64", "per-processor cache size in KB")
        .define("line_bytes", "16", "cache line size in bytes")
        .define("assoc", "1", "cache associativity (1 = direct-mapped)")
        .define("timetag_bits", "8", "TPI per-word timetag width")
        .define("scheme", "tpi", "coherence scheme: base|sc|tpi|hw")
        .define("sched", "block", "DOALL schedule: block|cyclic|dynamic")
        .define("base_miss", "100", "unloaded miss latency in cycles")
        .define("word_transfer", "12", "extra cycles per line word")
        .define("two_phase_reset", "128", "two-phase reset stall cycles")
        .define("barrier", "40", "barrier cost in cycles")
        .define("write_latency", "60", "write-through completion cycles")
        .define("dir_ptrs", "0", "0=full-map, else DirNB-i pointer count")
        .define("wbuf_cache", "false", "write buffer organized as a cache")
        .define("migration_rate", "0.0", "per-task migration probability")
        .define("seq_consistency", "false",
                "sequential instead of weak consistency")
        .define("shadow_check", "false",
                "shadow-epoch race detector: flag stale cache hits")
        .define("network", "min",
                "interconnect topology: min|torus3d")
        .define("fault", "0",
                "fault injection: RATE[:SEED[:SITES]], 0 = off")
        .define("fault_timeout", "50",
                "cycles before a lost message is retransmitted")
        .define("fault_retries", "4",
                "retransmissions before a protocol abort")
        .define("watchdog_ops", "4194304",
                "merge steps without progress before a watchdog abort "
                "(a step is one reference with the Computes folded into "
                "it, or one other op), 0 = off");
    return p;
}

MachineConfig
MachineConfig::fromParams(const Params &p)
{
    // Every read is whole and in its field's range; validate() then
    // checks what the values mean.
    auto narrow = [&p](const char *key) {
        return unsigned(
            p.getUint(key, 0, std::numeric_limits<unsigned>::max()));
    };
    MachineConfig c;
    c.procs = narrow("procs");
    c.cacheBytes =
        p.getUint("cache_kb", 0,
                  std::numeric_limits<std::uint64_t>::max() / 1024) *
        1024;
    c.lineBytes = narrow("line_bytes");
    c.assoc = narrow("assoc");
    c.timetagBits = narrow("timetag_bits");
    c.scheme = parseScheme(p.getString("scheme"));
    c.sched = parseSched(p.getString("sched"));
    c.baseMissCycles = p.getUint("base_miss");
    c.wordTransferCycles = p.getUint("word_transfer");
    c.twoPhaseResetCycles = p.getUint("two_phase_reset");
    c.barrierCycles = p.getUint("barrier");
    c.writeLatencyCycles = p.getUint("write_latency");
    c.directoryPtrs = narrow("dir_ptrs");
    c.writeBufferAsCache = p.getBool("wbuf_cache");
    c.migrationRate = p.getDouble("migration_rate");
    c.sequentialConsistency = p.getBool("seq_consistency");
    c.shadowEpochCheck = p.getBool("shadow_check");
    c.topology = parseTopology(p.getString("network"));
    c.fault = fault::FaultPlan::parse(p.getString("fault"));
    c.faultAckTimeoutCycles = p.getUint("fault_timeout");
    c.faultMaxRetries = narrow("fault_retries");
    c.watchdogStallOps = p.getUint("watchdog_ops");
    c.validate();
    return c;
}

void
MachineConfig::validate() const
{
    if (procs == 0 || procs > kMaxProcs)
        fatal("procs must be in [1, %d], got %d", kMaxProcs, procs);
    if (!isPowerOf2(lineBytes) || lineBytes < 4)
        fatal("line_bytes must be a power of two >= 4, got %d", lineBytes);
    if (!isPowerOf2(cacheBytes) || cacheBytes < lineBytes)
        fatal("cache size must be a power of two >= line size");
    if (assoc == 0 || lines() % assoc != 0)
        fatal("associativity %d does not divide %d lines", assoc, lines());
    if (scheme == SchemeKind::HW && procs > 64)
        fatal("scheme=hw keeps 64 presence bits per line; procs must be "
              "<= 64, got %d", procs);
    if (scheme == SchemeKind::HW && wordsPerLine() > 64)
        fatal("scheme=hw keeps a 64-bit accessed-word mask per line; "
              "line_bytes must be <= 256, got %d", lineBytes);
    if (writeBufferAsCache && writeBufferCacheWords == 0)
        fatal("a write buffer organized as a cache needs at least one "
              "word");
    if (timetagBits < 1 || timetagBits > 32)
        fatal("timetag_bits must be in [1, 32], got %d", timetagBits);
    if (migrationRate < 0.0 || migrationRate > 1.0)
        fatal("migration_rate must be in [0, 1]");
    if (fault.rate < 0.0 || fault.rate > 1.0)
        fatal("fault rate must be in [0, 1]");
    if (fault.enabled() && faultAckTimeoutCycles == 0)
        fatal("fault_timeout must be nonzero when faults are enabled");
}

std::string
MachineConfig::str() const
{
    return csprintf(
        "%s: %d procs, %dKB %d-way, %dB lines, %d-bit tags, sched=%s",
        schemeName(scheme), procs, cacheBytes / 1024, assoc, lineBytes,
        timetagBits, schedName(sched));
}

// A field added to MachineConfig changes its size: add it to key() too,
// or two configs that differ only in it would share one sweep run.
static_assert(sizeof(MachineConfig) == 240,
              "MachineConfig changed: update MachineConfig::key()");
static_assert(sizeof(fault::FaultPlan) == 24,
              "FaultPlan changed: update MachineConfig::key()");

std::string
MachineConfig::key() const
{
    std::string k;
    auto put = [&k](const auto &... fields) {
        (k.append(reinterpret_cast<const char *>(&fields), sizeof(fields)),
         ...);
    };
    put(procs, cacheBytes, lineBytes, assoc, hitCycles, baseMissCycles,
        wordTransferCycles, timetagBits, twoPhaseResetCycles, barrierCycles,
        writeLatencyCycles, networkRadix, topology, maxNetworkLoad, scheme,
        sched, dynamicChunk, lockCycles, directoryPtrs,
        directoryOverflowCycles, dirtyMissExtraCycles, writeBufferAsCache,
        writeBufferCacheWords, migrationRate, migrationSeed,
        tpiPromoteOnHit, tpiUseDistance, flushAtCalls, callFlushCycles,
        sequentialConsistency, shadowEpochCheck, fault.rate, fault.seed,
        fault.sites, faultAckTimeoutCycles, faultMaxRetries,
        watchdogStallOps);
    return k;
}

} // namespace hscd
