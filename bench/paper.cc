#include "paper.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <numeric>

#include "common/strutil.hh"
#include "common/table.hh"
#include "mem/storage_model.hh"
#include "workloads/synth.hh"
#include "workloads/workloads.hh"

namespace hscd {
namespace bench {

namespace {

using Names = std::vector<std::string>;
using Claims = std::vector<Claim>;
using Schemes = std::vector<SchemeKind>;

constexpr double kInf = std::numeric_limits<double>::infinity();

const Schemes kFive = {SchemeKind::Base, SchemeKind::SC, SchemeKind::VC,
                       SchemeKind::TPI, SchemeKind::HW};

double
pct(Counter part, Counter whole)
{
    return whole ? 100.0 * double(part) / double(whole) : 0.0;
}

double
hitPct(const sim::RunResult &r)
{
    return pct(r.timeReadHits, r.timeReads);
}

double
missPct(const sim::RunResult &r)
{
    return 100.0 * r.readMissRate;
}

/** Cycles of @p a over @p b's. */
double
cyclesOver(const sim::RunResult &a, const sim::RunResult &b)
{
    return double(a.cycles) / double(b.cycles);
}

/** Holds when every value of @p v lies in [lo, hi]; observes the range. */
Claim
within(const char *id, const char *text, const std::vector<double> &v,
       double lo, double hi)
{
    const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    return {id, text, *mn >= lo && *mx <= hi,
            csprintf("%.2f-%.2f", *mn, *mx)};
}

/** f(b) for each b in [0, n). */
template <typename F>
std::vector<double>
over(std::size_t n, F f)
{
    std::vector<double> v;
    for (std::size_t b = 0; b < n; ++b)
        v.push_back(f(b));
    return v;
}

/** Holds when @p pred(b) holds for at least @p least of b in [0, n). */
template <typename Pred>
Claim
atLeast(const char *id, const char *text, std::size_t n, std::size_t least,
        Pred pred)
{
    std::size_t k = 0;
    for (std::size_t b = 0; b < n; ++b)
        k += pred(b) ? 1 : 0;
    return {id, text, k >= least, csprintf("%d of %d", k, n)};
}

/** A table of @p cols whose first @p left columns are left-aligned. */
TextTable
table(std::initializer_list<std::string> cols, std::size_t left = 1)
{
    TextTable t;
    std::size_t i = 0;
    for (const std::string &c : cols)
        t.col(c, i++ < left ? TextTable::Align::Left : TextTable::Align::Right);
    return t;
}

/** One machine of a row's grid: "benchmark/scheme" + suffix labels it. */
struct Variant
{
    std::string suffix;
    MachineConfig cfg;
};

/** @p k at the Figure 8 defaults with @p edit applied. */
template <typename Edit>
Variant
variant(SchemeKind k, std::string suffix, Edit edit)
{
    MachineConfig c = makeConfig(k);
    edit(c);
    return {std::move(suffix), c};
}

/** Each scheme of @p ks at the Figure 8 defaults. */
std::vector<Variant>
defaults(const Schemes &ks)
{
    std::vector<Variant> vs;
    for (SchemeKind k : ks)
        vs.push_back({"", makeConfig(k)});
    return vs;
}

/** Benchmarks x variants, variant-minor, from sweep index first. */
struct Grid
{
    const Sweep *sweep;
    std::size_t first, width;

    const sim::RunResult &
    operator()(std::size_t b, std::size_t v) const
    {
        return (*sweep)[first + b * width + v];
    }
};

Grid
addGrid(Sweep &sweep, const Names &names, const std::vector<Variant> &vs,
        int scale)
{
    Grid g{&sweep, sweep.size(), vs.size()};
    for (const std::string &name : names)
        for (const Variant &v : vs)
            sweep.add(name + "/" + schemeName(v.cfg.scheme) + v.suffix, name,
                      v.cfg, scale);
    return g;
}

std::size_t
indexOf(const Names &names, const char *name)
{
    return std::find(names.begin(), names.end(), name) - names.begin();
}

// ---- F5: storage overhead (analytic) --------------------------------

RowRun
f5(Sweep &, int)
{
    using namespace mem;
    auto render = [](std::ostream &os) {
        StorageParams p; // the paper's P = 1024 design point
        TextTable t = table({"scheme", "cache SRAM formula",
                             "memory DRAM formula", "SRAM", "DRAM"},
                            3);
        const StorageOverhead full = fullMapOverhead(p);
        const StorageOverhead lim = limitlessOverhead(p);
        t.row().cell("full-map directory").cell("2*C*P").cell("(P+2)*M*P");
        t.cell(formatBits(full.cacheSramBits))
            .cell(formatBits(full.memoryDramBits));
        t.row().cell("LimitLess DirNB-10").cell("2*C*P").cell("(i+2)*M*P");
        t.cell(formatBits(lim.cacheSramBits))
            .cell(formatBits(lim.memoryDramBits));
        t.row().cell("TPI (this paper)").cell("8*L*C*P").cell("none");
        t.cell(formatBits(tpiOverhead(p).cacheSramBits)).cell("0.0 B");
        os << "\nP = 1024, L = 4, C = 16K blocks, M = 512K blocks\n";
        t.print(os);

        // Scaling with the processor count: the directory DRAM overhead
        // grows as P^2 while TPI stays proportional to total cache.
        TextTable s = table(
            {"P", "full-map total", "LimitLess total", "TPI total"}, 0);
        for (std::uint64_t procs : {64u, 256u, 1024u, 4096u}) {
            p.procs = procs;
            s.row()
                .cell(procs)
                .cell(formatBits(fullMapOverhead(p).totalBits()))
                .cell(formatBits(limitlessOverhead(p).totalBits()))
                .cell(formatBits(tpiOverhead(p).totalBits()));
        }
        os << "\nscaling with P (L=4, C=16K, M=512K per node):\n";
        s.print(os);

        // Timetag width knob (TPI's only cost lever).
        TextTable w = table({"timetag bits", "TPI SRAM"}, 0);
        p = StorageParams();
        for (unsigned bits : {2u, 4u, 8u, 16u}) {
            p.timetagBits = bits;
            w.row().cell(bits).cell(formatBits(tpiOverhead(p).cacheSramBits));
        }
        os << "\nTPI overhead vs timetag width (P = 1024):\n";
        w.print(os);
    };
    auto claims = [] {
        StorageParams p, small, big;
        small.procs = 64;
        big.procs = 4096;
        auto growth = [&](StorageOverhead (*f)(const StorageParams &)) {
            return f(big).totalBits() / f(small).totalBits();
        };
        const double dir = growth(fullMapOverhead), tpi = growth(tpiOverhead);
        const double dram = tpiOverhead(p).memoryDramBits;
        return Claims{
            {"F5.tpi-no-dram", "TPI keeps no memory DRAM at P = 1024",
             dram == 0, formatBits(dram)},
            {"F5.dir-grows-p2",
             "from 64 to 4096 procs the full-map total grows at least "
             "0.9 x 64^2-fold, TPI's 64-fold",
             dir >= 0.9 * 64 * 64 && tpi == 64,
             csprintf("full-map x%.0f, TPI x%.0f", dir, tpi)}};
    };
    return {render, claims};
}

// ---- F9: static marking (compile time only) -------------------------

RowRun
f9(Sweep &, int scale)
{
    auto render = [scale](std::ostream &os) {
        TextTable t =
            table({"benchmark", "epochs", "reads", "writes", "read-only",
                   "covered", "affinity", "time-read", "bypass", "%marked"});
        TextTable h = table({"benchmark", "d=0", "d=1", "d=2", "d=3", "d=4",
                             "d=5", "d=6", "d>6"});
        for (const std::string &name : workloads::benchmarkNames()) {
            const CompiledProgramPtr cp = compiledBenchmark(name, scale);
            const compiler::MarkingStats &st = cp->marking.stats();
            t.row()
                .cell(name)
                .cell(std::uint64_t(cp->graph.nodes().size()))
                .cell(st.reads)
                .cell(st.writes)
                .cell(st.readOnly)
                .cell(st.covered)
                .cell(st.affinity)
                .cell(st.timeRead)
                .cell(st.bypass)
                .cell(pct(st.timeRead + st.bypass, st.reads), 1);
            const auto &hist = st.distanceHist; // 17 entries, d = 0..16
            h.row().cell(name);
            for (int d = 0; d <= 6; ++d)
                h.cell(hist[std::size_t(d)]);
            h.cell(std::accumulate(hist.begin() + 7, hist.end(), Counter(0)));
        }
        t.print(os);
        os << "\nTime-Read distance histogram (static references):\n";
        h.print(os);
        os << "\nsmall distances dominate: a 4- or 8-bit timetag "
              "window comfortably covers them (paper Section 4).\n";
    };
    auto claims = [scale] {
        std::vector<double> marked, shortShare;
        for (const std::string &name : workloads::benchmarkNames()) {
            const compiler::MarkingStats &st =
                compiledBenchmark(name, scale)->marking.stats();
            marked.push_back(pct(st.timeRead + st.bypass, st.reads));
            Counter all = 0, near = 0;
            for (std::size_t d = 0; d < st.distanceHist.size(); ++d) {
                all += st.distanceHist[d];
                near += d <= 2 ? st.distanceHist[d] : 0;
            }
            shortShare.push_back(pct(near, all));
        }
        return Claims{
            within("F9.marked",
                   "at least 70% of static reads are marked Time-Read or "
                   "Bypass on all six",
                   marked, 70, 100),
            within("F9.short-d",
                   "d <= 2 covers at least half of the Time-Read "
                   "distances on all six (percent)",
                   shortShare, 50, 100)};
    };
    return {render, claims};
}

// ---- F11: read miss rates -------------------------------------------

RowRun
f11(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    const Grid g = addGrid(sweep, names, defaults(kFive), scale);
    auto render = [g, names](std::ostream &os) {
        TextTable t = table({"benchmark", "BASE %", "SC %", "VC %", "TPI %",
                             "HW %", "TPI/HW"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int s = 0; s < 5; ++s)
                t.cell(missPct(g(b, s)), 2);
            const double hw = g(b, 4).readMissRate;
            t.cell(hw > 0 ? g(b, 3).readMissRate / hw : 0.0, 2);
        }
        t.print(os);
        os << "\nBASE misses on every shared read by construction; "
              "TPI tracks HW within a small factor while SC pays for "
              "every marked read (paper's Figure 11 shape).\n";
    };
    auto claims = [g, n = names.size()] {
        // Scheme x's read miss rate over scheme y's, per benchmark.
        auto ratio = [&](int x, int y) {
            return over(n, [&](std::size_t b) {
                return g(b, x).readMissRate / g(b, y).readMissRate;
            });
        };
        return Claims{
            within("F11.base-100",
                   "BASE misses on every shared read: 100% on all six",
                   over(n, [&](std::size_t b) { return missPct(g(b, 0)); }),
                   99.995, 100.005),
            within("F11.sc-ge-tpi",
                   "SC misses at least as often as TPI on all six (SC/TPI)",
                   ratio(1, 3), 1.0, kInf),
            within("F11.tpi-hw",
                   "TPI/HW read miss ratio in [0.4, 1.5] on all six",
                   ratio(3, 4), 0.4, 1.5)};
    };
    return {render, claims};
}

// ---- F12: miss decomposition ----------------------------------------

double
unnecessaryPct(const sim::RunResult &r)
{
    return 100.0 * double(r.unnecessaryMisses()) /
           double(r.readMisses ? r.readMisses : 1);
}

RowRun
f12(Sweep &sweep, int scale)
{
    const Schemes ks = {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW};
    const Names names = workloads::benchmarkNames();
    const Grid g = addGrid(sweep, names, defaults(ks), scale);
    auto render = [g, names, ks](std::ostream &os) {
        TextTable t = table({"benchmark", "scheme", "misses", "cold%",
                             "repl%", "true%", "false%", "consv%", "tag%",
                             "unnecessary%"},
                            2);
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int s = 0; s < 3; ++s) {
                const sim::RunResult &r = g(b, s);
                t.row().cell(names[b]).cell(schemeName(ks[s]));
                t.cell(r.readMisses);
                for (Counter c : {r.missCold, r.missReplacement,
                                  r.missTrueShare, r.missFalseShare,
                                  r.missConservative, r.missTagReset})
                    t.cell(pct(c, r.readMisses), 1);
                t.cell(unnecessaryPct(r), 1);
            }
            t.rule();
        }
        t.print(os);
        os << "\nunnecessary = false sharing (HW) + conservative "
              "refetches (SC/TPI); the paper finds the two schemes "
              "pay comparable unnecessary-miss taxes.\n";
    };
    auto claims = [g, n = names.size()] {
        // Unnecessary shares of SC (0), TPI (1) and HW (2).
        auto un = [&](std::size_t b, int s) { return unnecessaryPct(g(b, s)); };
        std::size_t tpiLarger = 0;
        for (std::size_t b = 0; b < n; ++b)
            tpiLarger += un(b, 1) > un(b, 2) ? 1 : 0;
        return Claims{
            within("F12.sc-most",
                   "SC's unnecessary share exceeds both TPI's and HW's on "
                   "all six (SC / the larger)",
                   over(n,
                        [&](std::size_t b) {
                            return un(b, 0) / std::max(un(b, 1), un(b, 2));
                        }),
                   1.0, kInf),
            atLeast("F12.comparable",
                    "TPI's and HW's unnecessary shares are within 10x of "
                    "each other on at least 5 of 6",
                    n, 5,
                    [&](std::size_t b) {
                        return un(b, 1) <= 10 * un(b, 2) &&
                               un(b, 2) <= 10 * un(b, 1);
                    }),
            {"F12.flip",
             "which of TPI's and HW's unnecessary shares is larger depends "
             "on the benchmark",
             tpiLarger > 0 && tpiLarger < n,
             csprintf("TPI's larger on %d of %d", tpiLarger, n)}};
    };
    return {render, claims};
}

// ---- F13: traffic ---------------------------------------------------

double
writeReduction(const sim::RunResult &plain, const sim::RunResult &coal)
{
    return double(plain.writePackets) /
           double(coal.writePackets ? coal.writePackets : 1);
}

/** Network words per 100 references: read, write, wback, coherence. */
std::array<double, 4>
traffic(const sim::RunResult &r)
{
    const double refs = double(r.reads + r.writes) / 100.0;
    return {double(r.readWords) / refs, double(r.writeWords) / refs,
            double(r.writebackWords) / refs,
            double(r.coherencePackets) / refs};
}

double
total(const std::array<double, 4> &t)
{
    return t[0] + t[1] + t[2] + t[3];
}

/** TPI with the plain write buffer, then with it organized as a cache. */
std::vector<Variant>
writeBuffers()
{
    return {variant(SchemeKind::TPI, "/plain-wb", [](MachineConfig &) {}),
            variant(SchemeKind::TPI, "/coalescing-wb",
                    [](MachineConfig &c) { c.writeBufferAsCache = true; })};
}

RowRun
f13(Sweep &sweep, int scale)
{
    const Schemes ks = {SchemeKind::Base, SchemeKind::SC, SchemeKind::TPI,
                        SchemeKind::HW};
    const Names names = workloads::benchmarkNames();
    const Grid g = addGrid(sweep, names, defaults(ks), scale);
    // The TRFD write-buffer ablation rides along in the same sweep.
    const Grid wb = addGrid(sweep, {"TRFD"}, writeBuffers(), scale);
    auto render = [g, wb, names, ks](std::ostream &os) {
        TextTable t = table({"benchmark", "scheme", "read", "write", "wback",
                             "coher", "total"},
                            2);
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int s = 0; s < 4; ++s) {
                const std::array<double, 4> w = traffic(g(b, s));
                t.row().cell(names[b]).cell(schemeName(ks[s]));
                for (double x : w)
                    t.cell(x, 1);
                t.cell(total(w), 1);
            }
            t.rule();
        }
        t.print(os);

        os << "\nTRFD redundant-write elimination (cache-organized "
              "write buffer, [9][10]):\n";
        TextTable w = table({"TPI variant", "write packets", "reduction"});
        w.row().cell("plain write buffer").cell(wb(0, 0).writePackets);
        w.cell("-");
        w.row().cell("write buffer as cache").cell(wb(0, 1).writePackets);
        w.cell(csprintf("%.1fx", writeReduction(wb(0, 0), wb(0, 1))));
        w.print(os);
    };
    auto claims = [g, wb, trfd = indexOf(names, "TRFD")] {
        const double hwOverTpi =
            total(traffic(g(trfd, 3))) / total(traffic(g(trfd, 2)));
        return Claims{
            within("F13.trfd-coalesce",
                   "the cache-organized write buffer cuts TRFD's TPI write "
                   "packets at least 10x",
                   {writeReduction(wb(0, 0), wb(0, 1))}, 10, kInf),
            within("F13.trfd-hw-less",
                   "on TRFD, HW's write-back cache moves less traffic than "
                   "TPI's write-through (HW/TPI words)",
                   {hwOverTpi}, 0, 1)};
    };
    return {render, claims};
}

// ---- F14: execution time --------------------------------------------

RowRun
f14(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    const Grid g = addGrid(sweep, names, defaults(kFive), scale);
    auto norm = [g](std::size_t b, int s) {
        return cyclesOver(g(b, s), g(b, 4));
    };
    auto render = [g, names, norm](std::ostream &os) {
        TextTable t = table(
            {"benchmark", "BASE", "SC", "VC", "TPI", "HW", "HW cycles"});
        double worst = 0, sum = 0;
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int s = 0; s < 5; ++s)
                t.cell(norm(b, s), 2);
            t.cell(g(b, 4).cycles);
            worst = std::max(worst, norm(b, 3));
            sum += norm(b, 3);
        }
        t.print(os);
        os << csprintf(
            "\nTPI/HW arithmetic mean %.2f, worst %.2f - the HSCD "
            "scheme tracks the directory without directory storage.\n",
            sum / double(names.size()), worst);
    };
    auto claims = [names, norm] {
        const std::size_t n = names.size();
        const std::vector<double> tpiHw =
            over(n, [&](std::size_t b) { return norm(b, 3); });
        const std::size_t worst =
            std::max_element(tpiHw.begin(), tpiHw.end()) - tpiHw.begin();
        return Claims{
            within("F14.tpi-hw",
                   "TPI/HW execution time in [0.4, 1.5] on all six", tpiHw,
                   0.4, 1.5),
            {"F14.worst-adm", "TPI's worst case against HW is ADM",
             names[worst] == "ADM",
             csprintf("%s %.2f", names[worst], tpiHw[worst])},
            within("F14.base-sc-slower",
                   "BASE and SC are both slower than TPI on all six (the "
                   "faster of the two / TPI)",
                   over(n,
                        [&](std::size_t b) {
                            return std::min(norm(b, 0), norm(b, 1)) /
                                   norm(b, 3);
                        }),
                   1.0, kInf)};
    };
    return {render, claims};
}

// ---- T1: average miss latency ---------------------------------------

RowRun
t1(Sweep &sweep, int scale)
{
    // The paper's table lists these five benchmarks.
    const Names names = {"SPEC77", "OCEAN", "FLO52", "QCD2", "TRFD"};
    std::vector<Variant> vs;
    for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW})
        for (unsigned line : {16u, 64u})
            vs.push_back(variant(k, csprintf("/%dB", line),
                                 [&](auto &c) { c.lineBytes = line; }));
    const Grid g = addGrid(sweep, names, vs, scale);
    auto render = [g, names](std::ostream &os) {
        TextTable t =
            table({"benchmark", "TPI 16B", "TPI 64B", "HW 16B", "HW 64B"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int v = 0; v < 4; ++v)
                t.cell(g(b, v).avgMissLatency, 1);
        }
        t.print(os);
        os << "\nexpected shape: TPI roughly flat per line size; HW "
              "inflated on the write-shared codes (QCD2, TRFD) by "
              "3-hop dirty misses and invalidations.\n";
    };
    auto claims = [g, n = names.size()] {
        std::vector<double> tpi, hwOver;
        for (std::size_t b = 0; b < n; ++b) {
            tpi.push_back(g(b, 0).avgMissLatency); // 16B lines
            hwOver.push_back(g(b, 2).avgMissLatency / tpi.back());
        }
        const auto [mn, mx] = std::minmax_element(tpi.begin(), tpi.end());
        return Claims{
            {"T1.tpi-flat",
             "TPI's 16B miss latency varies at most 10% across the five",
             *mx <= 1.1 * *mn, csprintf("%.1f-%.1f", *mn, *mx)},
            within("T1.hw-hot",
                   "HW's 16B miss latency is at least TPI's on all five "
                   "(HW/TPI)",
                   hwOver, 1.0, kInf)};
    };
    return {render, claims};
}

// ---- S1: timetag width ----------------------------------------------

RowRun
s1(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (unsigned bits : {2u, 3u, 4u, 8u, 16u})
        vs.push_back(variant(SchemeKind::TPI, csprintf("/%db", bits),
                             [&](MachineConfig &c) { c.timetagBits = bits; }));
    // Widths 2, 3, 4, 8 and 16 are variants 0-4.
    const Grid g = addGrid(sweep, names, vs, scale);
    auto render = [g, names](std::ostream &os) {
        TextTable t = table({"benchmark", "2-bit %", "3-bit %", "4-bit %",
                             "8-bit %", "16-bit %", "resets@2b",
                             "cycles 2b/8b"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int v = 0; v < 5; ++v)
                t.cell(missPct(g(b, v)), 2);
            t.cell(g(b, 0).missTagReset);
            t.cell(cyclesOver(g(b, 0), g(b, 3)), 3);
        }
        t.print(os);
        os << "\nthe 4-bit and 8-bit columns should be essentially "
              "identical (the paper's claim); 2-bit tags pay for "
              "frequent two-phase resets.\n";
    };
    auto claims = [g, n = names.size()] {
        return Claims{
            atLeast("S1.4b-near-8b",
                    "4-bit tags stay within 5% of 8-bit's miss rate on at "
                    "least 5 of 6",
                    n, 5,
                    [&](std::size_t b) {
                        return g(b, 2).readMissRate <=
                               1.05 * g(b, 3).readMissRate;
                    }),
            within("S1.2b-cost",
                   "2-bit tags never run faster than 8-bit (cycles 2b/8b)",
                   over(n,
                        [&](std::size_t b) {
                            return cyclesOver(g(b, 0), g(b, 3));
                        }),
                   1.0, kInf)};
    };
    return {render, claims};
}

// ---- S2: line size --------------------------------------------------

RowRun
s2(Sweep &sweep, int scale)
{
    const unsigned lines[] = {4u, 16u, 64u};
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (unsigned line : lines)
        for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW})
            vs.push_back(variant(k, csprintf("/%dB", line),
                                 [&](auto &c) { c.lineBytes = line; }));
    // Line size l: TPI is variant 2l, HW 2l + 1.
    const Grid g = addGrid(sweep, names, vs, scale);
    auto hwFalse = [g](std::size_t b, int l) {
        const sim::RunResult &rh = g(b, 2 * l + 1);
        return pct(rh.missFalseShare, rh.readMisses);
    };
    auto render = [g, names, lines, hwFalse](std::ostream &os) {
        TextTable t = table({"benchmark", "line B", "TPI miss%", "HW miss%",
                             "HW false%", "TPI falseShare"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int l = 0; l < 3; ++l)
                t.row()
                    .cell(names[b])
                    .cell(lines[l])
                    .cell(missPct(g(b, 2 * l)), 2)
                    .cell(missPct(g(b, 2 * l + 1)), 2)
                    .cell(hwFalse(b, l), 1)
                    .cell(g(b, 2 * l).missFalseShare);
            t.rule();
        }
        t.print(os);
        os << "\nTPI's false-sharing column must be identically zero "
              "(coherence is per word).\n";
    };
    auto claims = [g, n = names.size(), hwFalse] {
        return Claims{
            atLeast("S2.tpi-no-false",
                    "TPI has no false-sharing misses at any line size",
                    3 * n, 3 * n,
                    [&](std::size_t i) {
                        return g(i / 3, i % 3 * 2).missFalseShare == 0;
                    }),
            atLeast("S2.hw-false-grows",
                    "HW's false-sharing share is 0 at 4B and larger at 64B "
                    "than at 16B on all six",
                    n, n, [&](std::size_t b) {
                        return hwFalse(b, 0) == 0 &&
                               hwFalse(b, 2) > hwFalse(b, 1);
                    })};
    };
    return {render, claims};
}

// ---- S3: cache size -------------------------------------------------

RowRun
s3(Sweep &sweep, int scale)
{
    const std::uint64_t sizes[] = {16u, 64u, 256u, 1024u};
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (std::uint64_t kb : sizes)
        for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW})
            vs.push_back(variant(k, csprintf("/%dKB", kb),
                                 [&](MachineConfig &c) {
                                     c.cacheBytes = kb * 1024;
                                 }));
    // Cache size s: TPI is variant 2s, HW 2s + 1.
    const Grid g = addGrid(sweep, names, vs, scale);
    auto render = [g, names, sizes](std::ostream &os) {
        TextTable t = table({"benchmark", "KB", "TPI miss%", "TPI repl%",
                             "HW miss%", "HW repl%"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int s = 0; s < 4; ++s) {
                t.row().cell(names[b]).cell(sizes[s]);
                for (int v = 2 * s; v < 2 * s + 2; ++v)
                    t.cell(missPct(g(b, v)), 2)
                        .cell(pct(g(b, v).missReplacement,
                                  g(b, v).readMisses),
                              1);
            }
            t.rule();
        }
        t.print(os);
    };
    auto claims = [g, n = names.size()] {
        auto rate = [&](std::size_t b, int v) { return g(b, v).readMissRate; };
        // Variant v (TPI 0, HW 1) misses alike at 64 KB, 256 KB and 1 MB.
        auto flat = [&](std::size_t b, int v) {
            return rate(b, v + 2) == rate(b, v + 4) &&
                   rate(b, v + 4) == rate(b, v + 6);
        };
        return Claims{
            within("S3.tpi-hw",
                   "TPI/HW read miss ratio in [0.4, 1.5] at every cache size",
                   over(4 * n,
                        [&](std::size_t i) {
                            return rate(i / 4, 2 * (i % 4)) /
                                   rate(i / 4, 2 * (i % 4) + 1);
                        }),
                   0.4, 1.5),
            atLeast("S3.flat-from-64k",
                    "both schemes' miss rates stop changing from 64 KB up on "
                    "all six",
                    n, n,
                    [&](std::size_t b) { return flat(b, 0) && flat(b, 1); })};
    };
    return {render, claims};
}

// ---- S4: write buffer -----------------------------------------------

RowRun
s4(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    const Grid g = addGrid(sweep, names, writeBuffers(), scale);
    auto render = [g, names](std::ostream &os) {
        TextTable t = table({"benchmark", "plain writes", "coalesced writes",
                             "reduction", "cycles plain", "cycles coalesced"});
        for (std::size_t b = 0; b < names.size(); ++b)
            t.row()
                .cell(names[b])
                .cell(g(b, 0).writePackets)
                .cell(g(b, 1).writePackets)
                .cell(csprintf("%.2fx", writeReduction(g(b, 0), g(b, 1))))
                .cell(g(b, 0).cycles)
                .cell(g(b, 1).cycles);
        t.print(os);
        os << "\nTRFD should show by far the largest reduction "
              "(repeated accumulation into the same words).\n";
    };
    auto claims = [g, names] {
        double trfd = 0, others = 0;
        for (std::size_t b = 0; b < names.size(); ++b) {
            const double x = writeReduction(g(b, 0), g(b, 1));
            if (names[b] == "TRFD")
                trfd = x;
            else
                others = std::max(others, x);
        }
        return Claims{
            {"S4.trfd-outlier",
             "TRFD's write-packet reduction is at least 10x, every other "
             "code's at most 1.25x",
             trfd >= 10 && others <= 1.25,
             csprintf("TRFD %.2fx, others <= %.2fx", trfd, others)}};
    };
    return {render, claims};
}

// ---- S5: scheduling and migration -----------------------------------

RowRun
s5(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (SchedPolicy s :
         {SchedPolicy::Block, SchedPolicy::Cyclic, SchedPolicy::Dynamic})
        vs.push_back(variant(SchemeKind::TPI, std::string("/") + schedName(s),
                             [&](MachineConfig &c) {
                                 c.sched = s; // only Dynamic reads the chunk
                                 if (s == SchedPolicy::Dynamic)
                                     c.dynamicChunk = 2;
                             }));
    const Grid g = addGrid(sweep, names, vs, scale);

    // (b) cells: the serial-reuse demo compiled with (cells 0, 1) and
    // without (2, 3) the affinity assumption, at migration rates 0 and 1.
    const std::size_t demo = sweep.size();
    for (bool affinity : {true, false}) {
        compiler::AnalysisOptions aopts;
        aopts.assumeSerialAffinity = affinity;
        const CompiledProgramPtr cp =
            std::make_shared<const compiler::CompiledProgram>(
                compiler::compileProgram(workloads::microSerialReuse(), aopts));
        for (double rate : {0.0, 1.0}) {
            MachineConfig c = makeConfig(SchemeKind::TPI);
            c.procs = 8;
            c.migrationRate = rate;
            sweep.add(csprintf("serial-reuse/%s/rate=%.1f",
                               affinity ? "affinity" : "migration-safe", rate),
                      cp, c);
        }
    }
    auto render = [&sweep, g, names, demo](std::ostream &os) {
        os << "(a) DOALL schedule vs TPI Time-Read hit rate:\n";
        TextTable t = table(
            {"benchmark", "block hit%", "cyclic hit%", "dynamic hit%"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int s = 0; s < 3; ++s)
                t.cell(hitPct(g(b, s)), 1);
        }
        t.print(os);

        os << "\n(b) serial-task migration vs the affinity "
              "assumption (serial-reuse demo, migration rates 0.0 and "
              "1.0):\n";
        TextTable m = table({"compilation", "migration", "stale reads",
                             "time-reads", "cycles"});
        for (std::size_t i = 0; i < 4; ++i) {
            const sim::RunResult &r = sweep[demo + i];
            m.row()
                .cell(i < 2 ? "affinity assumed" : "migration-safe")
                .cell(double(i % 2), 1)
                .cell(r.oracleViolations)
                .cell(r.timeReads)
                .cell(r.cycles);
        }
        m.print(os);
        os << "\nthe affinity-compiled row demonstrates WHY the "
              "assumption must be dropped when the runtime migrates "
              "serial tasks; the migration-safe row stays at zero "
              "stale reads.\n";
    };
    auto claims = [&sweep, g, n = names.size(), demo] {
        const Counter unsafe = sweep[demo + 1].oracleViolations;
        const Counter safe = sweep[demo + 2].oracleViolations +
                             sweep[demo + 3].oracleViolations;
        return Claims{
            {"S5.affinity-unsafe",
             "affinity-compiled code reads stale data once serial tasks "
             "migrate (rate 1.0)",
             unsafe > 0, csprintf("%d stale reads", unsafe)},
            {"S5.safe-coherent",
             "migration-safe compilation reads no stale data at either rate",
             safe == 0, csprintf("%d stale reads", safe)},
            within("S5.block-ge-cyclic",
                   "cyclic scheduling never beats block's Time-Read hit rate "
                   "(cyclic/block)",
                   over(n,
                        [&](std::size_t b) {
                            return hitPct(g(b, 1)) / hitPct(g(b, 0));
                        }),
                   0, 1.0)};
    };
    // The schedule cells must be sound, and so must every demo cell but
    // the one that shows the affinity assumption failing.
    auto gate = [&sweep, demo](std::size_t i) -> CellVerdict {
        if (i < demo)
            return soundness(sweep[i]);
        if (!sweep[i].oracleViolations || i == demo + 1)
            return {};
        if (i == demo)
            return {verify::ExitViolation,
                    "affinity compilation must be sound without migration"};
        return {verify::ExitViolation,
                "migration-safe compilation must be coherent"};
    };
    return {render, claims, gate};
}

// ---- S6: processor count --------------------------------------------

RowRun
s6(Sweep &sweep, int scale)
{
    const unsigned counts[] = {4u, 16u, 64u};
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (unsigned procs : counts)
        for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW})
            vs.push_back(variant(k, csprintf("/p%d", procs),
                                 [&](MachineConfig &c) { c.procs = procs; }));
    // Processor count p: TPI is variant 2p, HW 2p + 1.
    const Grid g = addGrid(sweep, names, vs, scale);
    auto render = [g, names, counts](std::ostream &os) {
        TextTable t = table({"benchmark", "procs", "TPI cycles", "HW cycles",
                             "TPI/HW", "TPI speedup", "net load"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int p = 0; p < 3; ++p) {
                const sim::RunResult &rt = g(b, 2 * p);
                t.row()
                    .cell(names[b])
                    .cell(counts[p])
                    .cell(rt.cycles)
                    .cell(g(b, 2 * p + 1).cycles)
                    .cell(cyclesOver(rt, g(b, 2 * p + 1)), 2)
                    .cell(cyclesOver(g(b, 0), rt) * 4.0, 1)
                    .cell(double(rt.trafficPackets) / double(rt.cycles), 3);
            }
            t.rule();
        }
        t.print(os);
        os << "\nspeedup is relative to 4 processors (ideal: equals "
              "the processor count). TPI/HW staying near 1.0 at 64 "
              "procs, with no directory DRAM, is the paper's "
              "large-scale argument.\n";
    };
    auto claims = [g, n = names.size()] {
        return Claims{
            within("S6.tpi-hw",
                   "TPI/HW cycles in [0.4, 1.5] at 4, 16 and 64 processors",
                   over(3 * n,
                        [&](std::size_t i) {
                            return cyclesOver(g(i / 3, 2 * (i % 3)),
                                              g(i / 3, 2 * (i % 3) + 1));
                        }),
                   0.4, 1.5),
            atLeast("S6.tpi-speeds-up",
                    "TPI runs faster at 64 processors than at 4 on all six",
                    n, n, [&](std::size_t b) {
                        return g(b, 4).cycles < g(b, 0).cycles;
                    })};
    };
    return {render, claims};
}

// ---- S7: consistency model ------------------------------------------

RowRun
s7(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (SchemeKind k :
         {SchemeKind::SC, SchemeKind::VC, SchemeKind::TPI, SchemeKind::HW})
        for (bool seq : {false, true})
            vs.push_back(variant(k, seq ? "/sc" : "/wc",
                                 [&](MachineConfig &c) {
                                     c.sequentialConsistency = seq;
                                 }));
    const Grid g = addGrid(sweep, names, vs, scale);
    // Sequential over weak cycles of scheme s (SC, VC, TPI, HW).
    auto slowdown = [g](std::size_t b, int s) {
        return cyclesOver(g(b, 2 * s + 1), g(b, 2 * s));
    };
    auto render = [names, slowdown](std::ostream &os) {
        TextTable t = table({"benchmark", "SC SC/WC", "VC SC/WC",
                             "TPI SC/WC", "HW SC/WC"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int s = 0; s < 4; ++s)
                t.cell(slowdown(b, s), 2);
        }
        t.print(os);
        os << "\nwrite-through schemes (SC/VC/TPI) stall on every "
              "store under sequential consistency; the write-back "
              "directory mostly hits in M and is the least affected - "
              "the paper's footnote, quantified.\n";
    };
    auto claims = [n = names.size(), slowdown] {
        // The less slowed of the write-through VC (1) and TPI (2).
        auto wt = [&](std::size_t b) {
            return std::min(slowdown(b, 1), slowdown(b, 2));
        };
        return Claims{
            within("S7.wt-stall",
                   "sequential consistency slows VC and TPI at least 1.5x "
                   "on all six",
                   over(n, wt), 1.5, kInf),
            atLeast("S7.hw-least",
                    "HW slows less than VC and TPI under sequential "
                    "consistency on all six",
                    n, n,
                    [&](std::size_t b) { return slowdown(b, 3) < wt(b); })};
    };
    return {render, claims};
}

// ---- S8: topology ---------------------------------------------------

RowRun
s8(Sweep &sweep, int scale)
{
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW})
        for (Topology topo : {Topology::MIN, Topology::Torus3D})
            vs.push_back(variant(k, topo == Topology::MIN ? "/min" : "/torus",
                                 [&](MachineConfig &c) {
                                     // Higher load: contention shows.
                                     c.procs = 64;
                                     c.topology = topo;
                                 }));
    // TPI MIN, TPI torus, HW MIN, HW torus.
    const Grid g = addGrid(sweep, names, vs, scale);
    auto ratio = [g](std::size_t b, int topo) {
        return cyclesOver(g(b, topo), g(b, 2 + topo));
    };
    auto render = [g, names, ratio](std::ostream &os) {
        TextTable t = table({"benchmark", "TPI min", "TPI torus", "HW min",
                             "HW torus", "TPI/HW min", "TPI/HW torus"});
        for (std::size_t b = 0; b < names.size(); ++b) {
            t.row().cell(names[b]);
            for (int v = 0; v < 4; ++v)
                t.cell(g(b, v).cycles);
            t.cell(ratio(b, 0), 2).cell(ratio(b, 1), 2);
        }
        t.print(os);
        os << "\nthe TPI/HW ratio is identical across topologies: the "
              "coherence comparison does not depend on the interconnect "
              "model. (At P = 64 the agreement is exact by algebra: a "
              "radix-2 MIN's 6 half-discounted stages contend like the "
              "4-ary torus's 3 full-rate hops - 6*rho*(1-1/2) = 3*rho.)\n";
    };
    auto claims = [n = names.size(), ratio] {
        return Claims{atLeast("S8.same-ratio",
                              "TPI/HW cycles are identical under the MIN "
                              "and the torus on all six",
                              n, n, [&](std::size_t b) {
                                  return ratio(b, 0) == ratio(b, 1);
                              })};
    };
    return {render, claims};
}

// ---- A1: TPI mechanism ablation -------------------------------------

RowRun
a1(Sweep &sweep, int scale)
{
    const char *variants[] = {"full", "no-promotion", "no-distance"};
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs;
    for (int v = 0; v < 3; ++v)
        vs.push_back(variant(SchemeKind::TPI, std::string("/") + variants[v],
                             [v](MachineConfig &c) {
                                 c.tpiPromoteOnHit = v != 1;
                                 c.tpiUseDistance = v != 2;
                             }));
    const Grid g = addGrid(sweep, names, vs, scale);
    auto render = [g, names, variants](std::ostream &os) {
        TextTable t = table({"benchmark", "variant", "miss %",
                             "time-read hit %", "cycles", "vs full"},
                            2);
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int v = 0; v < 3; ++v)
                t.row()
                    .cell(names[b])
                    .cell(variants[v])
                    .cell(missPct(g(b, v)), 2)
                    .cell(hitPct(g(b, v)), 1)
                    .cell(g(b, v).cycles)
                    .cell(cyclesOver(g(b, v), g(b, 0)), 2);
            t.rule();
        }
        t.print(os);
        os << "\nno-distance collapses Time-Read hits to spatial "
              "side-fills only: the compiler's epoch-distance operand "
              "is what makes the timetags useful. no-promotion decays "
              "once the reuse distance exceeds the marked d.\n";
    };
    auto claims = [g, n = names.size()] {
        auto vsFull = [&](int v) {
            return over(n, [&](std::size_t b) {
                return cyclesOver(g(b, v), g(b, 0));
            });
        };
        return Claims{
            within("A1.no-distance",
                   "without the distance operand TPI needs at least 1.5x "
                   "the full mechanism's cycles on all six",
                   vsFull(2), 1.5, kInf),
            within("A1.no-promotion",
                   "without promotion TPI needs 1.0-1.2x the full "
                   "mechanism's cycles on all six",
                   vsFull(1), 1.0, 1.2)};
    };
    return {render, claims};
}

// ---- A2: scheduling -------------------------------------------------

RowRun
a2(Sweep &sweep, int scale)
{
    const SchedPolicy policies[] = {SchedPolicy::Block, SchedPolicy::Cyclic,
                                    SchedPolicy::Dynamic};
    const unsigned chunks[] = {1u, 2u, 4u, 8u, 16u};
    const Names names = workloads::benchmarkNames();
    std::vector<Variant> vs, cs;
    for (SchedPolicy s : policies)
        vs.push_back(variant(SchemeKind::TPI, std::string("/") + schedName(s),
                             [&](MachineConfig &c) { c.sched = s; }));
    for (unsigned chunk : chunks)
        cs.push_back(variant(SchemeKind::TPI,
                             csprintf("/dynamic/chunk=%d", chunk),
                             [&](MachineConfig &c) {
                                 c.sched = SchedPolicy::Dynamic;
                                 c.dynamicChunk = chunk;
                             }));
    const Grid g = addGrid(sweep, names, vs, scale);
    const Grid trfd = addGrid(sweep, {"TRFD"}, cs, scale);
    auto cells = [](TextTable &t, const sim::RunResult &r) {
        t.cell(r.imbalance(), 2).cell(hitPct(r), 1).cell(r.cycles);
    };
    auto render = [g, trfd, names, policies, chunks, cells](std::ostream &os) {
        TextTable t = table({"benchmark", "schedule", "imbalance",
                             "time-read hit %", "cycles"},
                            2);
        for (std::size_t b = 0; b < names.size(); ++b) {
            for (int s = 0; s < 3; ++s)
                cells(t.row().cell(names[b]).cell(schedName(policies[s])),
                      g(b, s));
            t.rule();
        }
        t.print(os);

        os << "\ndynamic chunk size on TRFD (triangular loops):\n";
        TextTable d =
            table({"chunk", "imbalance", "time-read hit %", "cycles"}, 0);
        for (int c = 0; c < 5; ++c)
            cells(d.row().cell(chunks[c]), trfd(0, c));
        d.print(os);
    };
    auto claims = [g, trfd, block = indexOf(names, "TRFD")] {
        bool rising = true;
        for (int c = 1; c < 5; ++c)
            rising = rising &&
                     trfd(0, c).imbalance() >= trfd(0, c - 1).imbalance() &&
                     hitPct(trfd(0, c)) >= hitPct(trfd(0, c - 1));
        const sim::RunResult &blocked = g(block, 0), &chunk1 = trfd(0, 0),
                             &chunk16 = trfd(0, 4);
        return Claims{
            {"A2.chunk1-balances",
             "chunk-1 dynamic scheduling balances TRFD better than block",
             chunk1.imbalance() < blocked.imbalance(),
             csprintf("imbalance %.2f -> %.2f", blocked.imbalance(),
                      chunk1.imbalance())},
            {"A2.chunk-tradeoff",
             "on TRFD, larger dynamic chunks raise both the Time-Read hit "
             "rate and the imbalance",
             rising,
             csprintf("chunk 1 -> 16: hits %.1f -> %.1f%%, imbalance %.2f "
                      "-> %.2f",
                      hitPct(chunk1), hitPct(chunk16), chunk1.imbalance(),
                      chunk16.imbalance())}};
    };
    return {render, claims};
}

// ---- A3: interprocedural analysis -----------------------------------

RowRun
a3(Sweep &sweep, int)
{
    const Schemes ks = {SchemeKind::SC, SchemeKind::TPI};
    const CompiledProgramPtr cp =
        std::make_shared<const compiler::CompiledProgram>(
            compiler::compileProgram(workloads::microCallSolver(512, 6)));
    // Per scheme: interprocedural, then flushing at calls.
    const Grid g{&sweep, sweep.size(), 2};
    for (SchemeKind k : ks)
        for (bool flush : {false, true}) {
            MachineConfig c = makeConfig(k);
            c.procs = 8;
            c.flushAtCalls = flush;
            sweep.add(csprintf("callHeavySolver/%s/%s", schemeName(k),
                               flush ? "flush" : "interprocedural"),
                      cp, c);
        }
    auto render = [g, ks](std::ostream &os) {
        os << "workload: 512-point solver, 2 calls per task "
              "iteration + serial bookkeeping procedure\n\n";
        TextTable t =
            table({"scheme", "mode", "miss %", "cycles", "slowdown"}, 2);
        for (int s = 0; s < 2; ++s) {
            for (int flush = 0; flush < 2; ++flush)
                t.row()
                    .cell(schemeName(ks[s]))
                    .cell(flush ? "flush at calls (prior work)"
                                : "interprocedural (paper)")
                    .cell(missPct(g(s, flush)), 2)
                    .cell(g(s, flush).cycles)
                    .cell(cyclesOver(g(s, flush), g(s, 0)), 2);
            t.rule();
        }
        t.print(os);
        os << "\nthe interprocedural row keeps helper-procedure data "
              "cached across the two calls per iteration; flushing at "
              "every boundary forfeits all of it.\n";
    };
    auto claims = [g] {
        const double sc = cyclesOver(g(0, 1), g(0, 0));
        const double tpi = cyclesOver(g(1, 1), g(1, 0));
        return Claims{{"A3.flush-cost",
                       "flushing at calls slows both schemes, TPI more "
                       "than SC",
                       sc > 1 && tpi > sc,
                       csprintf("TPI %.2fx, SC %.2fx", tpi, sc)}};
    };
    return {render, claims};
}

// ---- W1: synthetic families -----------------------------------------

RowRun
w1(Sweep &sweep, int scale)
{
    const Names families = workloads::synthFamilies();
    Names names;
    for (const std::string &f : families)
        names.push_back("synth:" + f + ":1");
    const Grid g = addGrid(sweep, names, defaults(kFive), scale);
    auto render = [g, families](std::ostream &os) {
        TextTable t = table(
            {"family", "reads", "BASE%", "SC%", "VC%", "TPI%", "HW%"});
        t.col("ranking", TextTable::Align::Left);
        for (std::size_t f = 0; f < families.size(); ++f) {
            double pct[5];
            t.row().cell(families[f]).cell(g(f, 4).reads);
            for (int s = 0; s < 5; ++s)
                t.cell(pct[s] = missPct(g(f, s)), 2);
            // Rank best-to-worst by miss rate (stable: ties keep the
            // BASE, SC, VC, TPI, HW declaration order).
            int order[5] = {0, 1, 2, 3, 4};
            std::stable_sort(order, order + 5,
                             [&](int a, int b) { return pct[a] < pct[b]; });
            std::string rank;
            for (int s = 0; s < 5; ++s)
                rank += std::string(schemeName(kFive[order[s]])) +
                        (s == 4 ? "" : " < ");
            t.cell(rank);
        }
        t.print(os);
        os << "\nranking reads best-to-worst by read miss rate; see "
              "EXPERIMENTS.md (W1) for the pinned table and how the "
              "verdicts compare with the Figure 11 kernels.\n";
    };
    auto claims = [g, families] {
        auto miss = [&](const char *f, int s) {
            return missPct(g(indexOf(families, f), s));
        };
        double others = kInf;
        for (int s = 0; s < 4; ++s)
            others = std::min(others, miss("migratory", s));
        return Claims{
            {"W1.falseshare-tpi",
             "with only line-level false sharing, TPI misses less than HW",
             miss("falseshare", 3) < miss("falseshare", 4),
             csprintf("TPI %.2f%%, HW %.2f%%", miss("falseshare", 3),
                      miss("falseshare", 4))},
            {"W1.stencil-hw", "on stencil halos, HW misses less than TPI",
             miss("stencil", 4) < miss("stencil", 3),
             csprintf("HW %.2f%%, TPI %.2f%%", miss("stencil", 4),
                      miss("stencil", 3))},
            {"W1.migratory-hw", "on migratory chunks, HW misses least",
             miss("migratory", 4) < others,
             csprintf("HW %.2f%%, next %.2f%%", miss("migratory", 4),
                      others)}};
    };
    return {render, claims};
}

// ---- R1: fault injection --------------------------------------------

const double kR1Rates[] = {1e-4, 1e-3, 1e-2, 0.1, 0.4};
const SchemeKind kR1Schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                 SchemeKind::TPI, SchemeKind::HW,
                                 SchemeKind::VC};
constexpr std::size_t kR1Seeds = 100;
constexpr std::size_t kR1Rows = std::size(kR1Rates) * std::size(kR1Schemes);

/** An R1 table row: runs, 1 + FaultOutcome counts, injected, retries. */
using Tally = std::array<Counter, 8>;

/**
 * R1's cells: a fault-free reference per (scheme, workload) from index
 * refs, then rates x schemes x seeds 1..100 from index faulted, seed s
 * running workload (s - 1) mod 6.
 */
struct R1Cells
{
    const Sweep *sweep;
    std::size_t refs, faulted, workloads;

    /** Faulted cell @p i's reference. */
    const sim::RunResult &
    ref(std::size_t i) const
    {
        const std::size_t n = i - faulted;
        const std::size_t scheme = n / kR1Seeds % std::size(kR1Schemes);
        return (*sweep)[refs + scheme * workloads + n % kR1Seeds % workloads];
    }

    FaultOutcome
    outcome(std::size_t i) const
    {
        return classifyFaulted((*sweep)[i], ref(i));
    }

    /** The (rate, scheme) rows in table order, then the total. */
    std::vector<Tally>
    tally() const
    {
        std::vector<Tally> rows(kR1Rows + 1);
        for (std::size_t n = 0; n < kR1Rows * kR1Seeds; ++n) {
            const sim::RunResult &r = (*sweep)[faulted + n];
            for (Tally *t : {&rows[n / kR1Seeds], &rows.back()}) {
                ++(*t)[0];
                // A harness error has no outcome; finish() reports it.
                if (sweep->error(faulted + n).empty())
                    ++(*t)[1 + std::size_t(outcome(faulted + n))];
                (*t)[6] += r.faultsInjected;
                (*t)[7] += r.faultRetries;
            }
        }
        return rows;
    }
};

/**
 * The grid is fixed, at scale 1 with affinity on and every fault site
 * enabled, whatever the campaign's scale. Flagged and aborted cells are
 * the detections the table counts; the gate fails (exit 3) only on a
 * silent cell.
 */
RowRun
r1(Sweep &sweep, int)
{
    const Names names = workloads::benchmarkNames();
    auto config = [](SchemeKind k) {
        MachineConfig c = makeConfig(k);
        c.shadowEpochCheck = true;
        return c;
    };
    const std::size_t refs = sweep.size();
    for (SchemeKind k : kR1Schemes)
        for (const std::string &name : names)
            sweep.add("ref/" + name + "/" + schemeName(k), name, config(k),
                      /*scale=*/1);
    const R1Cells cells{&sweep, refs, sweep.size(), names.size()};
    for (double rate : kR1Rates)
        for (SchemeKind k : kR1Schemes)
            for (std::uint64_t seed = 1; seed <= kR1Seeds; ++seed) {
                const std::string &name = names[(seed - 1) % names.size()];
                MachineConfig c = config(k);
                c.fault = {rate, seed, fault::kSitesAll};
                sweep.add(csprintf("rate=%g/%s/seed=%d/%s", rate,
                                   schemeName(k), seed, name),
                          name, c, /*scale=*/1);
            }

    auto render = [cells](std::ostream &os) {
        const std::vector<Tally> rows = cells.tally();
        TextTable t =
            table({"rate", "scheme", "runs", "clean", "recovered", "aborted",
                   "flagged", "silent", "injected", "retries"},
                  2);
        for (std::size_t i = 0; i <= kR1Rows; ++i) {
            const std::size_t k = std::size(kR1Schemes);
            t.row()
                .cell(i < kR1Rows ? csprintf("%g", kR1Rates[i / k])
                                  : std::string("total"))
                .cell(i < kR1Rows ? schemeName(kR1Schemes[i % k]) : "-");
            for (Counter n : rows[i])
                t.cell(n);
        }
        t.print(os);
        os << "\nevery faulted run must be recovered, aborted or "
              "flagged; a silent run fails the campaign (exit 3).\n";
    };
    auto claims = [cells] {
        const std::vector<Tally> rows = cells.tally();
        auto count = [](const Tally &t, FaultOutcome o) {
            return t[1 + std::size_t(o)];
        };
        // The rows of the rates below 0.1 come first, one per scheme.
        Counter early = 0;
        for (std::size_t i = 0; i < 3 * std::size(kR1Schemes); ++i)
            early += count(rows[i], FaultOutcome::Aborted);
        const Counter silent = count(rows.back(), FaultOutcome::Silent);
        return Claims{
            {"R1.silent", "no faulted run is silently wrong", silent == 0,
             csprintf("%d silent of %d", silent, rows.back()[0])},
            {"R1.no-abort-below-0.1",
             "no faulted run aborts below rate 0.1", early == 0,
             csprintf("%d aborted", early)}};
    };
    auto gate = [cells](std::size_t i) -> CellVerdict {
        if (i < cells.faulted || cells.outcome(i) != FaultOutcome::Silent)
            return {};
        const sim::RunResult &r = (*cells.sweep)[i], &ref = cells.ref(i);
        return {verify::ExitViolation,
                csprintf("silent corruption: completed unflagged, but "
                         "tasks/epochs/parallel/reads/writes "
                         "%d/%d/%d/%d/%d differ from the reference's "
                         "%d/%d/%d/%d/%d",
                         r.tasks, r.epochs, r.parallelEpochs, r.reads,
                         r.writes, ref.tasks, ref.epochs,
                         ref.parallelEpochs, ref.reads, ref.writes)};
    };
    return {render, claims, gate};
}

} // namespace

const std::vector<Row> &
paperRows()
{
    static const std::vector<Row> rows = {
        {"F5", "coherence storage overhead (paper Figure 5)",
         "P procs, L words/block, C cache blocks/node, M memory "
         "blocks/node, i = 10 LimitLess pointers, 8-bit tags",
         f5},
        {"F9", "static reference marking per benchmark", nullptr, f9},
        {"F11", "read miss rates per scheme (paper Figure 11)", nullptr,
         f11},
        {"F12", "read miss decomposition (percent of read misses)", nullptr,
         f12},
        {"F13", "network traffic breakdown (words per 100 references)",
         nullptr, f13},
        {"F14", "normalized parallel execution time (HW = 1.0)", nullptr,
         f14},
        {"T1", "average read miss latency (cycles), TPI vs HW", nullptr, t1},
        {"S1", "TPI miss rate vs timetag width (Section 4 sensitivity)",
         nullptr, s1},
        {"S2", "line-size sweep: miss rate and false sharing", nullptr, s2},
        {"S3", "cache-size sweep (16KB - 1MB)", nullptr, s3},
        {"S4", "write buffer ablation: plain vs cache-organized", nullptr,
         s4},
        {"S5", "scheduling and task migration (paper Section 5)", nullptr,
         s5},
        {"S6", "processor-count scaling", nullptr, s6},
        {"S7", "sequential/weak consistency execution-time ratio", nullptr,
         s7},
        {"S8", "MIN vs 3-D torus interconnect (64 processors)", nullptr, s8},
        {"A1", "TPI mechanism ablation (design-choice study)", nullptr, a1},
        {"A2", "scheduling: load balance vs processor affinity", nullptr,
         a2},
        {"A3",
         "interprocedural analysis vs flush-at-procedure-boundaries (prior "
         "HSCD schemes)",
         nullptr, a3},
        {"W1",
         "synthetic families, read miss rate (percent), seed 1, scale 2",
         nullptr, w1},
        {"R1",
         "fault injection: recovered / aborted / flagged, never silent",
         nullptr, r1},
    };
    return rows;
}

const Row *
findRow(const std::string &id)
{
    for (const Row &row : paperRows())
        if (id == row.id)
            return &row;
    return nullptr;
}

void
printRow(std::ostream &os, const Row &row, const RowRun &run)
{
    os << "== " << row.id << ": " << row.banner << " ==\n";
    const MachineConfig cfg; // the Figure 8 defaults
    if (row.legend)
        os << row.legend << "\n";
    else
        os << csprintf(
            "config (Figure 8): %d procs | %dKB %s cache, %dB lines | "
            "hit %d cy | base miss %d cy | %d-bit timetags | two-phase "
            "reset %d cy | Kruskal-Snir MIN radix %d\n",
            cfg.procs, cfg.cacheBytes / 1024,
            cfg.assoc == 1 ? "direct-mapped"
                           : csprintf("%d-way", cfg.assoc).c_str(),
            cfg.lineBytes, cfg.hitCycles, cfg.baseMissCycles,
            cfg.timetagBits, cfg.twoPhaseResetCycles, cfg.networkRadix);
    run.render(os);
}

std::string
claimLine(const Claim &c)
{
    return csprintf("[claim] %-22s %-5s %s (observed %s)\n", c.id,
                    c.holds ? "holds" : "FAILS", c.text, c.observed);
}

std::vector<RowRun>
runRows(Sweep &sweep, const std::vector<const Row *> &rows, int scale)
{
    std::vector<RowRun> runs;
    for (const Row *row : rows) {
        sweep.beginGroup(row->id);
        const std::size_t first = sweep.size();
        runs.push_back(row->build(sweep, scale));
        runs.back().first = first;
    }
    sweep.run();
    return runs;
}

} // namespace bench
} // namespace hscd
