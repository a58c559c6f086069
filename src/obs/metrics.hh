/**
 * @file
 * Time-series metrics: an interval sampler that snapshots simulator
 * counters per epoch (or per N simulated cycles) into a bounded ring
 * buffer, exported as a compact column-oriented JSON series.
 *
 * sim::RecorderSink owns the sampling sites (the start of each epoch
 * and each reference's outcome); this module owns the spec grammar, the
 * ring, and the schema. Samples carry *cumulative* counters - consumers
 * (hscd_inspect, plots) diff adjacent rows for per-interval rates, so a
 * capped ring that dropped its oldest rows still yields exact deltas
 * inside the retained window.
 *
 * Spec grammar (the `--metrics=` argument):
 *
 *     epoch            sample at every epoch boundary
 *     epoch:K          sample every K-th epoch boundary
 *     cycles:N         sample at the first reference >= each N-cycle mark
 *     ...[:cap=M]      keep at most M newest rows (default 65536)
 */

#ifndef HSCD_OBS_METRICS_HH
#define HSCD_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/provenance.hh"

namespace hscd {
namespace obs {

/**
 * One metrics row. Every field is cumulative-since-run-start except
 * `networkLoad` (the offered load of the most recently closed network
 * window) and `writePending` (outstanding write-drain cycles summed
 * over processors at the sample point).
 *
 * The X-macro is the single source of truth for the schema: the JSON
 * writer, the reader, and the field-name list all expand from it, so
 * they cannot drift apart.
 */
#define HSCD_METRIC_U64_FIELDS(X)                                            \
    X(epoch)                                                                 \
    X(cycle)                                                                 \
    X(reads)                                                                 \
    X(writes)                                                                \
    X(readMisses)                                                            \
    X(missCold)                                                              \
    X(missReplacement)                                                       \
    X(missTrueShare)                                                         \
    X(missFalseShare)                                                        \
    X(missConservative)                                                      \
    X(missTagReset)                                                          \
    X(missUncached)                                                          \
    X(timeReads)                                                             \
    X(timeReadHits)                                                          \
    X(bypassReads)                                                           \
    X(trafficPackets)                                                        \
    X(trafficWords)                                                          \
    X(tagResets)                                                             \
    X(faultsInjected)                                                        \
    X(writePending)

struct MetricSample
{
#define HSCD_METRIC_DECL(name) std::uint64_t name = 0;
    HSCD_METRIC_U64_FIELDS(HSCD_METRIC_DECL)
#undef HSCD_METRIC_DECL
    double networkLoad = 0;

    bool operator==(const MetricSample &) const = default;
};

/** Parsed `--metrics=` spec. */
struct MetricsSpec
{
    enum class Mode : std::uint8_t { Off, Epoch, Cycles };

    Mode mode = Mode::Off;
    std::uint64_t every = 1;     ///< K epochs / N cycles between samples
    std::size_t cap = 65536;     ///< ring capacity (newest rows win)

    bool enabled() const { return mode != Mode::Off; }

    /** Parse the grammar above; fatal() on a malformed spec. */
    static MetricsSpec parse(const std::string &s);
    /** Canonical round-trippable spelling. */
    std::string str() const;

    bool operator==(const MetricsSpec &) const = default;
};

/** Bounded recorder for metric samples (newest `cap` rows retained). */
class MetricsRecorder
{
  public:
    explicit MetricsRecorder(MetricsSpec spec);

    const MetricsSpec &spec() const { return _spec; }

    /** Epoch-mode gate: sample at this boundary? */
    bool
    dueEpoch(EpochId epoch) const
    {
        return _spec.mode == MetricsSpec::Mode::Epoch &&
               epoch % _spec.every == 0;
    }

    /** Cycles-mode gate (hot path: one compare when a recorder is
     *  attached; record() advances the next threshold). */
    bool
    dueCycle(Cycles now) const
    {
        return _spec.mode == MetricsSpec::Mode::Cycles && now >= _nextAt;
    }

    void record(const MetricSample &s);

    /** Retained rows, oldest first. */
    std::vector<MetricSample> rows() const;
    std::size_t size() const;
    /** Rows evicted by the ring cap. */
    std::uint64_t dropped() const { return _dropped; }

    /** Emit the JSON series (schema "hscd-metrics"). */
    void writeJson(std::ostream &os, const Provenance &prov) const;

  private:
    MetricsSpec _spec;
    std::vector<MetricSample> _ring;
    std::size_t _head = 0;        ///< insert slot once the ring is full
    bool _full = false;
    std::uint64_t _dropped = 0;
    Cycles _nextAt = 0;           ///< cycles mode: next sample threshold
};

/**
 * Parse a metrics JSON file produced by writeJson (rigid format - not a
 * general JSON parser). Returns false on any schema mismatch; on
 * success fills @p rows (and @p spec_str when non-null).
 */
bool readMetricsJson(std::istream &is, std::vector<MetricSample> &rows,
                     std::string *spec_str = nullptr);

} // namespace obs
} // namespace hscd

#endif // HSCD_OBS_METRICS_HH
