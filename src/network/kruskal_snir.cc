#include "network/kruskal_snir.hh"

#include <cmath>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace hscd {
namespace net {

Network::Network(stats::StatGroup *parent, unsigned procs, unsigned radix,
                 double max_load, Topology topology)
    : _procs(procs), _radix(radix < 2 ? 2 : radix), _topology(topology),
      _maxLoad(max_load),
      _group("network", parent),
      _packets(&_group, "packets", "total network packets"),
      _words(&_group, "words", "total data words moved"),
      _loadAvg(&_group, "load", "offered load per window")
{
    if (_topology == Topology::MIN) {
        unsigned n = 0;
        std::uint64_t span = 1;
        while (span < _procs) {
            span *= _radix;
            ++n;
        }
        _stages = n ? n : 1;
    } else {
        // T3D-like 3-D torus, dimension-order routing: with k nodes per
        // dimension the average distance per dimension is k/4 (wrap
        // links), so ~3k/4 hops per traversal.
        unsigned k = 1;
        while (std::uint64_t(k) * k * k < _procs)
            ++k;
        unsigned hops = (3 * k + 3) / 4;
        _stages = hops ? hops : 1;
    }
    cacheDelays();
}

void
Network::endWindow(Cycles now)
{
    if (now > _windowStart) {
        double cycles = static_cast<double>(now - _windowStart);
        double rho = static_cast<double>(_windowFlits) /
                     (cycles * _procs);
        if (rho > _maxLoad)
            rho = _maxLoad;
        _load = rho;
        _loadAvg.sample(rho);
        cacheDelays();
    }
    _windowStart = now;
    _windowFlits = 0;
}

double
Network::traversalWait() const
{
    if (_topology == Topology::MIN) {
        // Kruskal-Snir mean waiting time per stage times the stage count.
        double per_stage =
            _load * (1.0 - 1.0 / _radix) / (2.0 * (1.0 - _load));
        return per_stage * _stages;
    }
    // Torus: each hop contends with the two other dimensions plus
    // through traffic; the M/M/1-style term without the radix discount.
    double per_hop = _load / (2.0 * (1.0 - _load));
    return per_hop * _stages;
}

Cycles
Network::delayFor(unsigned traversals) const
{
    double d = traversalWait() * traversals;
    return static_cast<Cycles>(std::llround(d));
}

void
Network::cacheDelays()
{
    for (unsigned k = 0; k < _delayByTraversals.size(); ++k)
        _delayByTraversals[k] = delayFor(k);
}

MsgFate
Network::deliver()
{
    MsgFate fate;
    if (!_fault)
        return fate;
    using fault::Site;
    if (_fault->fire(Site::NetDrop)) {
        fate.copies = 0;
        return fate;
    }
    if (_fault->fire(Site::NetDup))
        fate.copies = 2;
    if (_fault->fire(Site::NetDelay)) {
        // Queued behind a burst of cross traffic: up to eight extra
        // full traversals, never zero.
        fate.extraDelay +=
            1 + _fault->draw(Site::NetDelay) % (8ull * _stages);
    }
    if (_fault->fire(Site::NetReorder)) {
        // Overtaken by one younger message: in a one-message-at-a-time
        // analytic model this is an extra traversal's worth of lateness.
        fate.extraDelay += _stages;
    }
    return fate;
}

} // namespace net
} // namespace hscd
