/** @file Unit tests for the Kruskal-Snir network model. */

#include <gtest/gtest.h>

#include <cmath>

#include "network/kruskal_snir.hh"

using namespace hscd;
using namespace hscd::net;

TEST(Network, StageCount)
{
    stats::StatGroup root("root");
    EXPECT_EQ(Network(&root, 16, 2, 0.95).stages(), 4u);
    stats::StatGroup r2("r2");
    EXPECT_EQ(Network(&r2, 64, 4, 0.95).stages(), 3u);
    stats::StatGroup r3("r3");
    EXPECT_EQ(Network(&r3, 1, 2, 0.95).stages(), 1u);
    stats::StatGroup r4("r4");
    EXPECT_EQ(Network(&r4, 17, 2, 0.95).stages(), 5u);
}

TEST(Network, NoTrafficNoDelay)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.endWindow(1000);
    EXPECT_DOUBLE_EQ(n.load(), 0.0);
    EXPECT_EQ(n.contentionDelay(2), 0u);
}

TEST(Network, LoadComputation)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.addTraffic(1600, 1600);
    n.endWindow(1000); // 1600 packets / (1000 cycles * 16 ports) = 0.1
    EXPECT_NEAR(n.load(), 0.1, 1e-9);
}

TEST(Network, DelayMonotoneInLoad)
{
    double prev = -1;
    for (double target : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        stats::StatGroup root("root");
        Network n(&root, 16, 2, 0.95);
        n.addTraffic(static_cast<Counter>(target * 16 * 1000), 0);
        n.endWindow(1000);
        double w = n.traversalWait();
        EXPECT_GT(w, prev);
        prev = w;
    }
}

TEST(Network, KruskalSnirFormula)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.addTraffic(8000, 0); // rho = 0.5
    n.endWindow(1000);
    // w = rho(1-1/k)/(2(1-rho)) per stage = 0.5*0.5/(2*0.5) = 0.25;
    // 4 stages -> 1.0 per traversal.
    EXPECT_NEAR(n.traversalWait(), 1.0, 1e-9);
    EXPECT_EQ(n.contentionDelay(2), 2u);
}

TEST(Network, LoadClamped)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.addTraffic(1000000, 0);
    n.endWindow(10);
    EXPECT_LE(n.load(), 0.95);
    // Finite delay even at the clamp.
    EXPECT_LT(n.contentionDelay(2), 1000u);
}

TEST(Network, WindowsAreIndependent)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.addTraffic(1600, 0);
    n.endWindow(1000);
    EXPECT_NEAR(n.load(), 0.1, 1e-9);
    // Quiet second window.
    n.endWindow(2000);
    EXPECT_DOUBLE_EQ(n.load(), 0.0);
}

TEST(Network, TotalsAccumulate)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.addTraffic(10, 40);
    n.addTraffic(5, 20);
    EXPECT_EQ(n.totalPackets(), 15u);
    EXPECT_EQ(n.totalWords(), 60u);
}

TEST(Network, ZeroLengthWindowKeepsLoad)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.95);
    n.addTraffic(1600, 0);
    n.endWindow(1000);
    double before = n.load();
    n.endWindow(1000); // no time elapsed
    EXPECT_DOUBLE_EQ(n.load(), before);
}

/**
 * contentionDelay(k) is served from a table refreshed at every window
 * boundary; it must equal the formula llround(traversalWait() * k) at
 * every load, the clamp included, on both topologies.
 */
TEST(Network, ContentionDelayMatchesFormulaAtEveryLoad)
{
    for (Topology topo : {Topology::MIN, Topology::Torus3D}) {
        stats::StatGroup root("root");
        Network n(&root, 64, 2, 0.95, topo);
        Cycles now = 0;
        // Flits per 1000-cycle window: idle, light, heavy, clamped.
        for (Counter flits : {0ull, 640ull, 6400ull, 40000ull, 57000ull,
                              1000000ull, 3ull})
        {
            n.addTraffic(1, flits);
            now += 1000;
            n.endWindow(now);
            for (unsigned k = 0; k <= 5; ++k)
                EXPECT_EQ(n.contentionDelay(k),
                          Cycles(std::llround(n.traversalWait() * k)))
                    << topologyName(topo) << " load " << n.load()
                    << " k " << k;
        }
        EXPECT_DOUBLE_EQ(n.load(), 3.0 / (1000.0 * 64));
    }
}

TEST(Network, ContentionDelayAtTheLoadClamp)
{
    stats::StatGroup root("root");
    Network n(&root, 16, 2, 0.5);
    n.addTraffic(1000000, 0);
    n.endWindow(10);
    EXPECT_DOUBLE_EQ(n.load(), 0.5);
    for (unsigned k = 0; k <= 5; ++k)
        EXPECT_EQ(n.contentionDelay(k),
                  Cycles(std::llround(n.traversalWait() * k)));
}
