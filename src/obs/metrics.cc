#include "obs/metrics.hh"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/config.hh"
#include "common/log.hh"
#include "common/strutil.hh"

namespace hscd {
namespace obs {

namespace {

/** Field-name list, expanded from the schema X-macro. */
const char *const kFieldNames[] = {
#define HSCD_METRIC_NAME(name) #name,
    HSCD_METRIC_U64_FIELDS(HSCD_METRIC_NAME)
#undef HSCD_METRIC_NAME
    "networkLoad",
};
constexpr std::size_t kNumFields =
    sizeof(kFieldNames) / sizeof(kFieldNames[0]);

/** Render a double so it round-trips exactly and never uses exponents a
 *  strict reader would choke on; load fractions are small and benign. */
std::string
renderDouble(double v)
{
    std::string s = csprintf("%.9g", v);
    return s;
}

} // namespace

MetricsSpec
MetricsSpec::parse(const std::string &s)
{
    MetricsSpec spec;
    if (s.empty() || s == "off")
        return spec;

    // Split on ':' into mode, optional count, optional cap=N (cap may
    // appear as any later component).
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
        if (c == ':') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);

    const std::string &mode = parts[0];
    if (mode == "epoch") {
        spec.mode = Mode::Epoch;
    } else if (mode == "cycles") {
        spec.mode = Mode::Cycles;
    } else {
        fatal("bad --metrics spec '%s': mode must be 'epoch' or 'cycles'",
              s);
    }

    bool sawEvery = false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &p = parts[i];
        if (p.rfind("cap=", 0) == 0) {
            spec.cap = Params::parseUint(
                "--metrics cap", p.substr(4), 1,
                std::numeric_limits<std::size_t>::max());
        } else if (!sawEvery) {
            spec.every = Params::parseUint("--metrics interval", p, 1);
            sawEvery = true;
        } else {
            fatal("bad --metrics spec '%s': unexpected component '%s'",
                  s, p);
        }
    }
    if (spec.mode == Mode::Cycles && !sawEvery)
        fatal("bad --metrics spec '%s': 'cycles' needs an interval, "
              "e.g. cycles:5000", s);
    return spec;
}

std::string
MetricsSpec::str() const
{
    switch (mode) {
      case Mode::Off:
        return "off";
      case Mode::Epoch:
        return every == 1 ? csprintf("epoch:cap=%d", cap)
                          : csprintf("epoch:%d:cap=%d", every, cap);
      case Mode::Cycles:
        return csprintf("cycles:%d:cap=%d", every, cap);
    }
    return "off";
}

MetricsRecorder::MetricsRecorder(MetricsSpec spec) : _spec(spec)
{
    _ring.reserve(std::min<std::size_t>(_spec.cap, 1024));
    if (_spec.mode == MetricsSpec::Mode::Cycles)
        _nextAt = _spec.every;
}

void
MetricsRecorder::record(const MetricSample &s)
{
    if (_ring.size() < _spec.cap) {
        _ring.push_back(s);
    } else {
        _ring[_head] = s;
        _head = (_head + 1) % _spec.cap;
        _full = true;
        ++_dropped;
    }
    if (_spec.mode == MetricsSpec::Mode::Cycles) {
        // Advance past the sample's cycle so bursty reference streams
        // produce one row per interval, not one per reference.
        while (_nextAt <= s.cycle)
            _nextAt += _spec.every;
    }
}

std::vector<MetricSample>
MetricsRecorder::rows() const
{
    if (!_full)
        return _ring;
    std::vector<MetricSample> out;
    out.reserve(_ring.size());
    for (std::size_t i = 0; i < _ring.size(); ++i)
        out.push_back(_ring[(_head + i) % _ring.size()]);
    return out;
}

std::size_t
MetricsRecorder::size() const
{
    return _ring.size();
}

void
MetricsRecorder::writeJson(std::ostream &os, const Provenance &prov) const
{
    os << "{\n";
    os << "  \"provenance\": " << prov.json(2) << ",\n";
    os << csprintf("  \"spec\": \"%s\",\n", jsonEscape(_spec.str()));
    os << csprintf("  \"dropped\": %d,\n", _dropped);
    os << "  \"fields\": [";
    for (std::size_t i = 0; i < kNumFields; ++i)
        os << (i ? ", " : "") << '"' << kFieldNames[i] << '"';
    os << "],\n";
    os << "  \"rows\": [";
    const auto ordered = rows();
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const MetricSample &r = ordered[i];
        os << (i ? ",\n    [" : "\n    [");
        bool first = true;
#define HSCD_METRIC_EMIT(name)                                               \
        os << (first ? "" : ", ") << r.name;                                 \
        first = false;
        HSCD_METRIC_U64_FIELDS(HSCD_METRIC_EMIT)
#undef HSCD_METRIC_EMIT
        (void)first;
        os << ", " << renderDouble(r.networkLoad) << "]";
    }
    os << "\n  ]\n";
    os << "}\n";
}

bool
readMetricsJson(std::istream &is, std::vector<MetricSample> &rows,
                std::string *spec_str)
{
    rows.clear();
    std::string line;
    bool sawFields = false;
    bool inRows = false;
    while (std::getline(is, line)) {
        // Trim leading whitespace.
        std::size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        std::string t = line.substr(b);

        if (spec_str && t.rfind("\"spec\":", 0) == 0) {
            std::size_t q1 = t.find('"', 7);
            std::size_t q2 = q1 == std::string::npos
                ? std::string::npos : t.find('"', q1 + 1);
            if (q2 != std::string::npos)
                *spec_str = t.substr(q1 + 1, q2 - q1 - 1);
        }

        if (t.rfind("\"fields\":", 0) == 0) {
            // Validate the schema matches ours, field for field.
            std::vector<std::string> names;
            std::size_t pos = t.find('[');
            while (pos != std::string::npos) {
                std::size_t q1 = t.find('"', pos);
                if (q1 == std::string::npos)
                    break;
                std::size_t q2 = t.find('"', q1 + 1);
                if (q2 == std::string::npos)
                    break;
                names.push_back(t.substr(q1 + 1, q2 - q1 - 1));
                pos = q2 + 1;
            }
            if (names.size() != kNumFields)
                return false;
            for (std::size_t i = 0; i < kNumFields; ++i)
                if (names[i] != kFieldNames[i])
                    return false;
            sawFields = true;
            continue;
        }

        if (t.rfind("\"rows\":", 0) == 0) {
            inRows = true;
            continue;
        }
        if (!inRows)
            continue;
        if (t[0] == ']' || t[0] == '}') {
            inRows = false;
            continue;
        }
        if (t[0] != '[')
            continue;

        // Parse one numeric row.
        std::vector<double> vals;
        std::size_t i = 1;
        while (i < t.size() && t[i] != ']') {
            while (i < t.size() && (t[i] == ' ' || t[i] == ','))
                ++i;
            std::size_t j = i;
            while (j < t.size() && t[j] != ',' && t[j] != ']')
                ++j;
            if (j > i) {
                try {
                    vals.push_back(std::stod(t.substr(i, j - i)));
                } catch (...) {
                    return false;
                }
            }
            i = j;
        }
        if (vals.size() != kNumFields)
            return false;
        MetricSample s;
        std::size_t k = 0;
#define HSCD_METRIC_READ(name)                                               \
        s.name = static_cast<std::uint64_t>(vals[k++]);
        HSCD_METRIC_U64_FIELDS(HSCD_METRIC_READ)
#undef HSCD_METRIC_READ
        s.networkLoad = vals[k];
        rows.push_back(s);
    }
    return sawFields;
}

} // namespace obs
} // namespace hscd
