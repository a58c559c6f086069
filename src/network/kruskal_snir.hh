/**
 * @file
 * Analytic contention model for buffered multistage interconnection
 * networks, after Kruskal and Snir [24].
 *
 * For a k-ary buffered banyan under offered load rho (packets per port
 * per cycle), the mean waiting time per stage is
 *
 *     w(rho) = rho * (1 - 1/k) / (2 * (1 - rho))
 *
 * and a traversal of the n = ceil(log_k P) stages costs n * (1 + w).
 * The simulator measures offered load over an execution window (an epoch)
 * and applies the resulting contention delay to the next window - a
 * standard one-step-lag fixed point that keeps the simulation
 * deterministic.
 */

#ifndef HSCD_NETWORK_KRUSKAL_SNIR_HH
#define HSCD_NETWORK_KRUSKAL_SNIR_HH

#include <array>

#include "common/types.hh"
#include "fault/injector.hh"
#include "mem/machine_config.hh"

namespace hscd {
namespace net {

/** Consequence of pushing one message through a (possibly faulty)
 *  network: how many copies arrive and how late. copies == 0 means the
 *  message was lost and the sender must retransmit. */
struct MsgFate
{
    unsigned copies = 1;
    Cycles extraDelay = 0;
};

class Network
{
  public:
    Network(unsigned procs, unsigned radix, double max_load,
            Topology topology = Topology::MIN);

    /** Switch stages (MIN) or average routing hops (torus). */
    unsigned stages() const { return _stages; }
    Topology topology() const { return _topology; }

    /** Record @p packets network packets carrying @p words words. */
    void
    addTraffic(Counter packets, Counter words)
    {
        _packets += packets;
        _words += words;
        // Channel occupancy is per flit: a line transfer loads the
        // network in proportion to its words; header-only packets count
        // as one flit.
        _windowFlits += words > 0 ? words : packets;
    }

    /** Close the current measurement window ending at @p now. */
    void endWindow(Cycles now);

    /** Offered load used for the current window's delays. */
    double load() const { return _load; }

    /** Mean queueing delay for one network traversal (cycles). */
    double traversalWait() const;

    /**
     * Contention cycles added to an access with @p traversals hops:
     * llround(traversalWait() * traversals). The load changes only at
     * window boundaries, so the small traversal counts the schemes use
     * are looked up in a table refreshed there.
     */
    Cycles
    contentionDelay(unsigned traversals) const
    {
        return traversals < _delayByTraversals.size()
                   ? _delayByTraversals[traversals]
                   : delayFor(traversals);
    }

    /** Thread the machine's fault injector through the boundary;
     *  nullptr (the default) keeps delivery perfect and free. */
    void setFaultInjector(fault::FaultInjector *inj) { _fault = inj; }

    /**
     * Decide the fate of one protocol/data message at the network
     * boundary. Perfect delivery unless an injector is attached; with
     * one, the message may be dropped, duplicated, delayed behind cross
     * traffic, or overtaken (reordered) - each a deterministic
     * counter-based draw.
     */
    MsgFate deliver();

    Counter totalPackets() const { return _packets; }
    Counter totalWords() const { return _words; }

  private:
    Cycles delayFor(unsigned traversals) const;
    /** Refill _delayByTraversals for the current load. */
    void cacheDelays();

    unsigned _procs;
    unsigned _radix;
    Topology _topology;
    unsigned _stages;
    double _maxLoad;
    double _load = 0.0;
    /** contentionDelay(k) at the current load, for k < 4. */
    std::array<Cycles, 4> _delayByTraversals{};
    fault::FaultInjector *_fault = nullptr;

    Cycles _windowStart = 0;
    Counter _windowFlits = 0;

    Counter _packets = 0;
    Counter _words = 0;
};

} // namespace net
} // namespace hscd

#endif // HSCD_NETWORK_KRUSKAL_SNIR_HH
