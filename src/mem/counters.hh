/**
 * @file
 * The counter schema: the one definition of every sim::RunResult scalar
 * and every mem::SchemeStats counter.
 *
 * The paper's figures (miss rate, miss kinds, traffic, execution time)
 * are read off these counters. Both lists are X-macros, the idiom of
 * obs/metrics.hh. RunResult's members, SchemeStats' members,
 * RunResult::fingerprint(), the journal codec
 * (campaign::encodeResult / decodeResult), the per-cell JSON
 * (campaign::writeResultCellJson) and the executor's copy out of the
 * scheme (sim/machine.cc) all expand from them, so adding a counter is
 * one line here.
 *
 * Order is part of the contract: fingerprints, journal records and the
 * cell JSON follow it, and all three are compared byte for byte against
 * pinned values. A new field changes every fingerprint and the journal
 * record layout, so it comes with re-pinned fingerprints.
 */

#ifndef HSCD_MEM_COUNTERS_HH
#define HSCD_MEM_COUNTERS_HH

/**
 * RunResult scalars, in fingerprint / journal / cell-JSON order. Both
 * callbacks take (type, member, key, desc); key is the cell-JSON key.
 *
 *   RUN     the executor or the network computes the value;
 *   SCHEME  copied from the SchemeStats counter of the same member name.
 */
#define HSCD_RESULT_FIELDS(RUN, SCHEME)                                      \
    RUN(Cycles, cycles, "cycles", "parallel execution time")                 \
    RUN(EpochId, epochs, "epochs", "epoch boundaries crossed")               \
    RUN(Counter, parallelEpochs, "parallel_epochs",                          \
        "DOALL instances executed")                                          \
    RUN(Counter, tasks, "tasks", "DOALL iterations executed")                \
    SCHEME(Counter, reads, "reads", "shared-data read references")           \
    SCHEME(Counter, writes, "writes", "shared-data write references")        \
    SCHEME(Counter, readHits, "read_hits",                                   \
           "read references served by the cache")                            \
    SCHEME(Counter, readMisses, "read_misses",                               \
           "read references going remote")                                   \
    RUN(double, readMissRate, "read_miss_rate", "readMisses / reads")        \
    RUN(double, avgMissLatency, "avg_miss_latency",                          \
        "mean read miss latency in cycles")                                  \
    SCHEME(Counter, missCold, "miss_cold", "first-touch misses")             \
    SCHEME(Counter, missReplacement, "miss_replacement",                     \
           "capacity/conflict re-fetches")                                   \
    SCHEME(Counter, missTrueShare, "miss_true_share",                        \
           "necessary coherence misses")                                     \
    SCHEME(Counter, missFalseShare, "miss_false_share",                      \
           "HW: invalidated by writes to other words")                       \
    SCHEME(Counter, missConservative, "miss_conservative",                   \
           "TPI/SC: refetch of actually-fresh data")                         \
    SCHEME(Counter, missTagReset, "miss_tag_reset",                          \
           "TPI: invalidated by timetag wrap")                               \
    SCHEME(Counter, missUncached, "miss_uncached",                           \
           "BASE: uncached shared data")                                     \
    SCHEME(Counter, timeReads, "time_reads", "reads executed as Time-Read")  \
    SCHEME(Counter, timeReadHits, "time_read_hits",                          \
           "Time-Reads satisfied by the cache")                              \
    SCHEME(Counter, bypassReads, "bypass_reads", "reads forced to memory")   \
    SCHEME(Counter, readPackets, "read_packets",                             \
           "network packets for reads")                                      \
    SCHEME(Counter, writePackets, "write_packets",                           \
           "network packets for writes")                                     \
    SCHEME(Counter, coherencePackets, "coherence_packets",                   \
           "invalidations, acks, forwards")                                  \
    SCHEME(Counter, writebackPackets, "writeback_packets",                   \
           "write-back packets")                                             \
    SCHEME(Counter, readWords, "read_words", "data words fetched")           \
    SCHEME(Counter, writeWords, "write_words", "data words written through") \
    SCHEME(Counter, writebackWords, "writeback_words",                       \
           "write-back data words")                                          \
    RUN(Counter, trafficPackets, "traffic_packets",                          \
        "network packets, all kinds")                                        \
    RUN(Counter, trafficWords, "traffic_words", "network words, all kinds")  \
    RUN(Cycles, busyMax, "busy_max",                                         \
        "busiest processor's work inside parallel epochs")                   \
    RUN(double, busyAvg, "busy_avg",                                         \
        "average processor work inside parallel epochs")                     \
    RUN(Cycles, serialCycles, "serial_cycles",                               \
        "cycles outside parallel epochs (serial code and barriers)")         \
    RUN(Counter, oracleViolations, "oracle_violations",                      \
        "coherence errors; 0 for a sound scheme on a legal program")         \
    RUN(Counter, doallViolations, "doall_violations",                        \
        "data races that make the program an illegal DOALL program")

/**
 * SchemeStats counters that are not RunResult fields, with the same
 * callback shape X(type, member, key, desc). avg_miss_latency is
 * missLatencySum / missLatencyCount.
 */
#define HSCD_SCHEME_ONLY_STATS(X)                                            \
    X(Counter, writeMisses, "write_misses", "write-allocate line fetches")   \
    X(Counter, invalidationsSent, "invalidations",                           \
      "directory invalidation messages")                                     \
    X(Counter, tagResets, "tag_resets", "two-phase reset events")            \
    X(double, missLatencySum, "miss_latency_sum",                            \
      "summed read miss latency in cycles")                                  \
    X(Counter, missLatencyCount, "miss_latency_count",                       \
      "read misses with a latency sample")

/** Callback that drops an entry from an expansion. */
#define HSCD_COUNTER_SKIP(...)

#endif // HSCD_MEM_COUNTERS_HH
