#include "paper.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <iomanip>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string_view>

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
using Align = TextTable::Align;

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
        t.col(c, i++ < left ? Align::Left : Align::Right);
    return t;
}

std::size_t
indexOf(const Names &names, const char *name)
{
    return std::find(names.begin(), names.end(), name) - names.begin();
}

// ---- Grid rows: benchmark x variant tables as data -------------------

/** One machine of a table: "benchmark/scheme" + suffix labels its cells. */
struct Variant
{
    std::string suffix;
    MachineConfig cfg;
};

/** Each scheme of @p ks at the Figure 8 defaults. */
std::vector<Variant>
defaults(const Schemes &ks)
{
    std::vector<Variant> vs;
    for (SchemeKind k : ks)
        vs.push_back({"", makeConfig(k)});
    return vs;
}

/**
 * Schemes @p ks crossed with one MachineConfig axis: value x of @p xs
 * applies set(cfg, x) to a scheme's Figure 8 defaults and suffixes the
 * cells' labels with name(x). The schemes vary slowest, or the axis
 * does when @p axisMajor.
 */
template <typename T, typename Name, typename Set>
std::vector<Variant>
vary(const Schemes &ks, std::initializer_list<T> xs, Name name, Set set,
     bool axisMajor = false)
{
    std::vector<Variant> vs;
    for (std::size_t i = 0; i < ks.size() * xs.size(); ++i) {
        const std::size_t k = axisMajor ? i % ks.size() : i / xs.size();
        const T &x = xs.begin()[axisMajor ? i / ks.size() : i % xs.size()];
        MachineConfig c = makeConfig(ks[k]);
        set(c, x);
        vs.push_back({name(x), c});
    }
    return vs;
}

/** A namer printing its value through the format @p f. */
auto
fmt(const char *f)
{
    return [f](auto x) { return csprintf(f, x); };
}

struct Grid;
struct Line;

/** Adjacent columns of a table: column k of heads shows text(line, k). */
struct Cols
{
    Names heads;
    std::function<std::string(const Line &, std::size_t k)> text;
    Align align = Align::Right;
};

/**
 * A benchmark x variant table: one line per benchmark, or with perLine
 * set one per perLine variants and a rule after each group of lines (a
 * benchmark's, unless group says how many).
 */
struct Table
{
    const char *intro = ""; ///< printed before the table
    Names benchmarks = workloads::benchmarkNames();
    CompiledProgramPtr program = nullptr; ///< run in place of a benchmark
    std::vector<Variant> variants;
    std::size_t perLine = 0, group = 0;
    std::vector<Cols> cols;
    const char *note = nullptr; ///< the paragraph under the table
    /** A paragraph computed from the cells, after the note. */
    std::function<std::string(const Grid &)> figures = {};
};

/** A table's cells, benchmark-major, from sweep index first. */
struct Grid : Table
{
    const Sweep *sweep = nullptr;
    std::size_t first = 0;
    const Grid *next = nullptr; ///< the row's following table

    const sim::RunResult &
    operator()(std::size_t b, std::size_t v) const
    {
        return (*sweep)[first + b * variants.size() + v];
    }

    std::size_t size() const { return benchmarks.size(); }
};

/** A table line: benchmark b's variants from v on. */
struct Line
{
    const Grid &g;
    std::size_t b, v;

    /** The line's variant @p k. */
    const sim::RunResult &
    operator[](std::size_t k) const
    {
        return g(b, v + k);
    }

    /** The benchmark's variant @p w. */
    const sim::RunResult &at(std::size_t w) const { return g(b, w); }

    const Variant &variant() const { return g.variants[v]; }
};

/** @p x as TextTable::cell(x, digits) prints it. */
std::string
fix(double x, int digits)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << x;
    return os.str();
}

/** Columns @p heads: column k shows f(the line's variant k). */
template <typename F>
Cols
each(Names heads, int digits, F f)
{
    return {std::move(heads), [=](const Line &l, std::size_t k) {
                return fix(std::invoke(f, l[k]), digits);
            }};
}

/** A column showing the number f(line). */
template <typename F>
Cols
num(std::string head, int digits, F f)
{
    return {{std::move(head)},
            [=](const Line &l, std::size_t) { return fix(f(l), digits); }};
}

/** A column showing the text f(line). */
Cols
text(std::string head, std::function<std::string(const Line &)> f,
     Align align = Align::Left)
{
    return {{std::move(head)},
            [=](const Line &l, std::size_t) { return f(l); }, align};
}

const Cols kBenchmark =
    text("benchmark", [](const Line &l) { return l.g.benchmarks[l.b]; });
const Cols kScheme = text("scheme", [](const Line &l) {
    return schemeName(l.variant().cfg.scheme);
});

/** Enqueue @p t's cells at workload scale @p scale. */
Grid
addGrid(Sweep &sweep, const Table &t, int scale)
{
    const Grid g{t, &sweep, sweep.size()};
    for (const std::string &name : t.benchmarks)
        for (const Variant &v : t.variants) {
            std::string label =
                name + "/" + schemeName(v.cfg.scheme) + v.suffix;
            if (t.program)
                sweep.add(std::move(label), t.program, v.cfg);
            else
                sweep.add(std::move(label), name, v.cfg, scale);
        }
    return g;
}

/** Print @p g's table with its intro, note and figures. */
void
draw(std::ostream &os, const Grid &g)
{
    TextTable t;
    for (const Cols &c : g.cols)
        for (const std::string &h : c.heads)
            t.col(h, c.align);
    const std::size_t per = g.perLine ? g.perLine : g.variants.size();
    const std::size_t lines = g.variants.size() / per;
    for (std::size_t i = 0; i < g.size() * lines; ++i) {
        t.row();
        for (const Cols &c : g.cols)
            for (std::size_t k = 0; k < c.heads.size(); ++k)
                t.cell(c.text({g, i / lines, i % lines * per}, k));
        if (lines > 1 && (i + 1) % (g.group ? g.group : lines) == 0)
            t.rule();
    }
    os << g.intro;
    t.print(os);
    if (g.note)
        os << "\n" << g.note << "\n";
    if (g.figures)
        os << "\n" << g.figures(g) << "\n";
}

/** One claim of a grid row, judged on its first table's grid. */
using Check = std::function<Claim(const Grid &)>;

/** Holds when f(benchmark b's line) lies in [lo, hi] for every b. */
template <typename F>
Check
allIn(const char *id, const char *text, double lo, double hi, F f)
{
    return [=](const Grid &g) {
        return within(id, text, over(g.size(), [&](std::size_t b) {
                          return f(Line{g, b, 0});
                      }),
                      lo, hi);
    };
}

constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

/** Holds when pred(benchmark b's line) for @p least b (kAll: every b). */
template <typename Pred>
Check
atLeastOn(const char *id, const char *text, std::size_t least, Pred pred)
{
    return [=](const Grid &g) {
        return atLeast(id, text, g.size(), std::min(least, g.size()),
                       [&](std::size_t b) { return pred(Line{g, b, 0}); });
    };
}

/** A row of tables alone: enqueue each, draw each, judge @p checks. */
std::function<RowRun(Sweep &, int)>
tables(std::vector<Table> ts, std::vector<Check> checks)
{
    return [=](Sweep &sweep, int scale) {
        auto gs = std::make_shared<std::vector<Grid>>();
        for (const Table &t : ts)
            gs->push_back(addGrid(sweep, t, scale));
        for (std::size_t i = 1; i < gs->size(); ++i)
            (*gs)[i - 1].next = &(*gs)[i];
        auto render = [gs](std::ostream &os) {
            for (const Grid &g : *gs)
                draw(os, g);
        };
        return RowRun{render, [gs, checks] {
                          Claims cs;
                          for (const Check &c : checks)
                              cs.push_back(c(gs->front()));
                          return cs;
                      }};
    };
}

Row
grid(const char *id, const char *banner, std::vector<Table> ts,
     std::vector<Check> checks)
{
    return {id, banner, nullptr, tables(std::move(ts), std::move(checks))};
}

// ---- F5: storage overhead (analytic) --------------------------------

Row
f5()
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
    return {"F5", "coherence storage overhead (paper Figure 5)",
            "P procs, L words/block, C cache blocks/node, M memory "
            "blocks/node, i = 10 LimitLess pointers, 8-bit tags",
            [=](Sweep &, int) { return RowRun{render, claims}; }};
}

// ---- F9: static marking (compile time only) -------------------------

Row
f9()
{
    auto build = [](Sweep &, int scale) {
        auto render = [scale](std::ostream &os) {
            TextTable t = table({"benchmark", "epochs", "reads", "writes",
                                 "read-only", "covered", "affinity",
                                 "time-read", "bypass", "%marked"});
            TextTable h = table({"benchmark", "d=0", "d=1", "d=2", "d=3",
                                 "d=4", "d=5", "d=6", "d>6"});
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
                h.cell(std::accumulate(hist.begin() + 7, hist.end(),
                                       Counter(0)));
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
        return RowRun{render, claims};
    };
    return {"F9", "static reference marking per benchmark", nullptr, build};
}

// ---- F11: read miss rates -------------------------------------------

Row
f11()
{
    // Scheme x's read miss rate over scheme y's.
    auto ratio = [](int x, int y) {
        return [=](const Line &l) {
            return l[x].readMissRate / l[y].readMissRate;
        };
    };
    return grid(
        "F11", "read miss rates per scheme (paper Figure 11)",
        {{.variants = defaults(kFive),
          .cols = {kBenchmark,
                   each({"BASE %", "SC %", "VC %", "TPI %", "HW %"}, 2,
                        missPct),
                   num("TPI/HW", 2,
                       [](const Line &l) {
                           const double hw = l[4].readMissRate;
                           return hw > 0 ? l[3].readMissRate / hw : 0.0;
                       })},
          .note = "BASE misses on every shared read by construction; TPI "
                  "tracks HW within a small factor while SC pays for every "
                  "marked read (paper's Figure 11 shape)."}},
        {allIn("F11.base-100",
               "BASE misses on every shared read: 100% on all six", 99.995,
               100.005, [](const Line &l) { return missPct(l[0]); }),
         allIn("F11.sc-ge-tpi",
               "SC misses at least as often as TPI on all six (SC/TPI)", 1.0,
               kInf, ratio(1, 3)),
         allIn("F11.tpi-hw", "TPI/HW read miss ratio in [0.4, 1.5] on all six",
               0.4, 1.5, ratio(3, 4))});
}

// ---- F12: miss decomposition ----------------------------------------

double
unnecessaryPct(const sim::RunResult &r)
{
    return 100.0 * double(r.unnecessaryMisses()) /
           double(r.readMisses ? r.readMisses : 1);
}

Row
f12()
{
    // Unnecessary shares of SC (0), TPI (1) and HW (2).
    auto un = [](const Line &l, int s) { return unnecessaryPct(l[s]); };
    return grid(
        "F12", "read miss decomposition (percent of read misses)",
        {{.variants =
              defaults({SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW}),
          .perLine = 1,
          .cols = {kBenchmark, kScheme,
                   each({"misses"}, 0, &sim::RunResult::readMisses),
                   {{"cold%", "repl%", "true%", "false%", "consv%", "tag%"},
                    [](const Line &l, std::size_t k) {
                        const sim::RunResult &r = l[0];
                        const Counter c[] = {
                            r.missCold,       r.missReplacement,
                            r.missTrueShare,  r.missFalseShare,
                            r.missConservative, r.missTagReset};
                        return fix(pct(c[k], r.readMisses), 1);
                    }},
                   each({"unnecessary%"}, 1, unnecessaryPct)},
          .note = "unnecessary = false sharing (HW) + conservative "
                  "refetches (SC/TPI); the paper finds the two schemes pay "
                  "comparable unnecessary-miss taxes."}},
        {allIn("F12.sc-most",
               "SC's unnecessary share exceeds both TPI's and HW's on all "
               "six (SC / the larger)",
               1.0, kInf,
               [=](const Line &l) {
                   return un(l, 0) / std::max(un(l, 1), un(l, 2));
               }),
         atLeastOn("F12.comparable",
                   "TPI's and HW's unnecessary shares are within 10x of each "
                   "other on at least 5 of 6",
                   5,
                   [=](const Line &l) {
                       return un(l, 1) <= 10 * un(l, 2) &&
                              un(l, 2) <= 10 * un(l, 1);
                   }),
         [=](const Grid &g) -> Claim {
             std::size_t tpiLarger = 0;
             for (std::size_t b = 0; b < g.size(); ++b)
                 tpiLarger += un({g, b, 0}, 1) > un({g, b, 0}, 2) ? 1 : 0;
             return {"F12.flip",
                     "which of TPI's and HW's unnecessary shares is larger "
                     "depends on the benchmark",
                     tpiLarger > 0 && tpiLarger < g.size(),
                     csprintf("TPI's larger on %d of %d", tpiLarger,
                              g.size())};
         }});
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
    return vary(
        {SchemeKind::TPI}, {false, true},
        [](bool wbc) { return wbc ? "/coalescing-wb" : "/plain-wb"; },
        [](MachineConfig &c, bool wbc) { c.writeBufferAsCache = wbc; });
}

Row
f13()
{
    return grid(
        "F13", "network traffic breakdown (words per 100 references)",
        {{.variants = defaults({SchemeKind::Base, SchemeKind::SC,
                                SchemeKind::TPI, SchemeKind::HW}),
          .perLine = 1,
          .cols = {kBenchmark, kScheme,
                   {{"read", "write", "wback", "coher"},
                    [](const Line &l, std::size_t k) {
                        return fix(traffic(l[0])[k], 1);
                    }},
                   num("total", 1,
                       [](const Line &l) { return total(traffic(l[0])); })}},
         // The TRFD write-buffer ablation rides along in the same sweep.
         {.intro = "\nTRFD redundant-write elimination (cache-organized "
                   "write buffer, [9][10]):\n",
          .benchmarks = {"TRFD"},
          .variants = writeBuffers(),
          .perLine = 1,
          .cols = {text("TPI variant",
                        [](const Line &l) {
                            return l.variant().cfg.writeBufferAsCache
                                       ? "write buffer as cache"
                                       : "plain write buffer";
                        }),
                   each({"write packets"}, 0, &sim::RunResult::writePackets),
                   text(
                       "reduction",
                       [](const Line &l) {
                           return l.v ? csprintf("%.1fx", writeReduction(
                                                              l.at(0), l[0]))
                                      : "-";
                       },
                       Align::Right)}}},
        {[](const Grid &g) {
             const Grid &wb = *g.next;
             return within("F13.trfd-coalesce",
                           "the cache-organized write buffer cuts TRFD's TPI "
                           "write packets at least 10x",
                           {writeReduction(wb(0, 0), wb(0, 1))}, 10, kInf);
         },
         [](const Grid &g) {
             const std::size_t trfd = indexOf(g.benchmarks, "TRFD");
             return within("F13.trfd-hw-less",
                           "on TRFD, HW's write-back cache moves less traffic "
                           "than TPI's write-through (HW/TPI words)",
                           {total(traffic(g(trfd, 3))) /
                            total(traffic(g(trfd, 2)))},
                           0, 1);
         }});
}

// ---- F14: execution time --------------------------------------------

/** The line's cycles on variant s over HW's (variant 4). */
double
overHw(const Line &l, std::size_t s)
{
    return cyclesOver(l[s], l[4]);
}

Row
f14()
{
    return grid(
        "F14", "normalized parallel execution time (HW = 1.0)",
        {{.variants = defaults(kFive),
          .cols = {kBenchmark,
                   {{"BASE", "SC", "VC", "TPI", "HW"},
                    [](const Line &l, std::size_t k) {
                        return fix(overHw(l, k), 2);
                    }},
                   num("HW cycles", 0,
                       [](const Line &l) { return l[4].cycles; })},
          .figures =
              [](const Grid &g) {
                  double worst = 0, sum = 0;
                  for (std::size_t b = 0; b < g.size(); ++b) {
                      worst = std::max(worst, overHw({g, b, 0}, 3));
                      sum += overHw({g, b, 0}, 3);
                  }
                  return csprintf("TPI/HW arithmetic mean %.2f, worst %.2f "
                                  "- the HSCD scheme tracks the directory "
                                  "without directory storage.",
                                  sum / double(g.size()), worst);
              }}},
        {allIn("F14.tpi-hw", "TPI/HW execution time in [0.4, 1.5] on all six",
               0.4, 1.5, [](const Line &l) { return overHw(l, 3); }),
         [](const Grid &g) -> Claim {
             const std::vector<double> tpiHw = over(
                 g.size(), [&](std::size_t b) { return overHw({g, b, 0}, 3); });
             const std::size_t worst =
                 std::max_element(tpiHw.begin(), tpiHw.end()) - tpiHw.begin();
             const std::string &name = g.benchmarks[worst];
             return {"F14.worst-adm", "TPI's worst case against HW is ADM",
                     name == "ADM", csprintf("%s %.2f", name, tpiHw[worst])};
         },
         allIn("F14.base-sc-slower",
               "BASE and SC are both slower than TPI on all six (the faster "
               "of the two / TPI)",
               1.0, kInf, [](const Line &l) {
                   return std::min(overHw(l, 0), overHw(l, 1)) / overHw(l, 3);
               })});
}

// ---- T1: average miss latency ---------------------------------------

/**
 * The paper's table of average read miss latency in cycles, for the
 * five benchmarks it lists: TPI 16B, TPI 64B, HW 16B, HW 64B.
 */
const std::vector<std::pair<std::string, std::array<double, 4>>> kT1Paper = {
    {"SPEC77", {136.2, 356.3, 136.4, 355.5}},
    {"OCEAN", {136.2, 354.3, 136.4, 353.6}},
    {"FLO52", {136.2, 355.1, 136.6, 361.2}},
    {"QCD2", {136.0, 354.7, 145.5, 405.4}},
    {"TRFD", {136.0, 352.4, 149.1, 418.6}},
};

/**
 * How many pairs of codes each column orders as the paper does: which
 * of the two has the higher latency, or a tie, as printed to 0.1 cycle.
 */
std::string
t1Agreement(const Grid &g)
{
    auto sign = [](double a, double b) {
        const long d = std::lround(10 * a) - std::lround(10 * b);
        return (d > 0) - (d < 0);
    };
    const char *heads[] = {"TPI 16B", "TPI 64B", "HW 16B", "HW 64B"};
    std::string cols;
    int all = 0, pairs = 0;
    for (std::size_t k = 0; k < 4; ++k) {
        int agree = 0;
        for (std::size_t i = 0; i < g.size(); ++i)
            for (std::size_t j = i + 1; j < g.size(); ++j, ++pairs)
                agree += sign(kT1Paper[i].second[k], kT1Paper[j].second[k]) ==
                         sign(g(i, k).avgMissLatency, g(j, k).avgMissLatency);
        all += agree;
        cols += csprintf("%s%s %d", k ? ", " : "", heads[k], agree);
    }
    return csprintf("the order of two codes within a column matches the "
                    "paper's on %d of %d pairs (%s of %d each).",
                    all, pairs, cols, pairs / 4);
}

Row
t1()
{
    Names names;
    for (const auto &row : kT1Paper)
        names.push_back(row.first);
    return grid(
        "T1", "average read miss latency (cycles), TPI vs HW",
        {{.benchmarks = names,
          .variants = vary({SchemeKind::TPI, SchemeKind::HW}, {16u, 64u},
                           fmt("/%dB"),
                           [](MachineConfig &c, unsigned line) {
                               c.lineBytes = line;
                           }),
          .cols = {kBenchmark,
                   {{"TPI 16B", "paper", "TPI 64B", "paper", "HW 16B",
                     "paper", "HW 64B", "paper"},
                    [](const Line &l, std::size_t k) {
                        return fix(k % 2 ? kT1Paper[l.b].second[k / 2]
                                         : l[k / 2].avgMissLatency,
                                   1);
                    }}},
          .note = "the paper's shape: TPI flat per line size; HW inflated "
                  "on the write-shared codes (QCD2, TRFD) by 3-hop dirty "
                  "misses and invalidations.",
          .figures = t1Agreement}},
        {[](const Grid &g) -> Claim {
             const std::vector<double> tpi = over(g.size(), [&](std::size_t b) {
                 return g(b, 0).avgMissLatency; // 16B lines
             });
             const auto [mn, mx] = std::minmax_element(tpi.begin(), tpi.end());
             return {"T1.tpi-flat",
                     "TPI's 16B miss latency varies at most 10% across the "
                     "five",
                     *mx <= 1.1 * *mn, csprintf("%.1f-%.1f", *mn, *mx)};
         },
         allIn("T1.hw-hot",
               "HW's 16B miss latency is at least TPI's on all five (HW/TPI)",
               1.0, kInf, [](const Line &l) {
                   return l[2].avgMissLatency / l[0].avgMissLatency;
               })});
}

// ---- S1: timetag width ----------------------------------------------

Row
s1()
{
    // Widths 2, 3, 4, 8 and 16 are variants 0-4.
    return grid(
        "S1", "TPI miss rate vs timetag width (Section 4 sensitivity)",
        {{.variants = vary({SchemeKind::TPI}, {2u, 3u, 4u, 8u, 16u},
                           fmt("/%db"),
                           [](MachineConfig &c, unsigned bits) {
                               c.timetagBits = bits;
                           }),
          .cols = {kBenchmark,
                   each({"2-bit %", "3-bit %", "4-bit %", "8-bit %",
                         "16-bit %"},
                        2, missPct),
                   each({"resets@2b"}, 0, &sim::RunResult::missTagReset),
                   num("cycles 2b/8b", 3,
                       [](const Line &l) { return cyclesOver(l[0], l[3]); })},
          .note = "the 4-bit and 8-bit columns should be essentially "
                  "identical (the paper's claim); 2-bit tags pay for "
                  "frequent two-phase resets."}},
        {atLeastOn("S1.4b-near-8b",
                   "4-bit tags stay within 5% of 8-bit's miss rate on at "
                   "least 5 of 6",
                   5,
                   [](const Line &l) {
                       return l[2].readMissRate <= 1.05 * l[3].readMissRate;
                   }),
         allIn("S1.2b-cost",
               "2-bit tags never run faster than 8-bit (cycles 2b/8b)", 1.0,
               kInf, [](const Line &l) { return cyclesOver(l[0], l[3]); })});
}

// ---- S2: line size --------------------------------------------------

double
falsePct(const sim::RunResult &r)
{
    return pct(r.missFalseShare, r.readMisses);
}

Row
s2()
{
    // Line size l: TPI is variant 2l, HW 2l + 1.
    return grid(
        "S2", "line-size sweep: miss rate and false sharing",
        {{.variants = vary(
              {SchemeKind::TPI, SchemeKind::HW}, {4u, 16u, 64u}, fmt("/%dB"),
              [](MachineConfig &c, unsigned line) { c.lineBytes = line; },
              /*axisMajor=*/true),
          .perLine = 2,
          .cols = {kBenchmark,
                   num("line B", 0,
                       [](const Line &l) { return l.variant().cfg.lineBytes; }),
                   each({"TPI miss%", "HW miss%"}, 2, missPct),
                   num("HW false%", 1,
                       [](const Line &l) { return falsePct(l[1]); }),
                   each({"TPI falseShare"}, 0, &sim::RunResult::missFalseShare)},
          .note = "TPI's false-sharing column must be identically zero "
                  "(coherence is per word)."}},
        {[](const Grid &g) {
             return atLeast("S2.tpi-no-false",
                            "TPI has no false-sharing misses at any line size",
                            3 * g.size(), 3 * g.size(), [&](std::size_t i) {
                                return g(i / 3, i % 3 * 2).missFalseShare == 0;
                            });
         },
         atLeastOn("S2.hw-false-grows",
                   "HW's false-sharing share is 0 at 4B and larger at 64B "
                   "than at 16B on all six",
                   kAll, [](const Line &l) {
                       return falsePct(l[1]) == 0 &&
                              falsePct(l[5]) > falsePct(l[3]);
                   })});
}

// ---- S3: cache size -------------------------------------------------

Row
s3()
{
    // Cache size s: TPI is variant 2s, HW 2s + 1.
    return grid(
        "S3", "cache-size sweep (16KB - 1MB)",
        {{.variants = vary(
              {SchemeKind::TPI, SchemeKind::HW}, {16u, 64u, 256u, 1024u},
              fmt("/%dKB"),
              [](MachineConfig &c, unsigned kb) { c.cacheBytes = kb * 1024; },
              /*axisMajor=*/true),
          .perLine = 2,
          .cols = {kBenchmark,
                   num("KB", 0,
                       [](const Line &l) {
                           return l.variant().cfg.cacheBytes / 1024;
                       }),
                   {{"TPI miss%", "TPI repl%", "HW miss%", "HW repl%"},
                    [](const Line &l, std::size_t k) {
                        const sim::RunResult &r = l[k / 2];
                        return k % 2 ? fix(pct(r.missReplacement,
                                               r.readMisses),
                                           1)
                                     : fix(missPct(r), 2);
                    }}}}},
        {[](const Grid &g) {
             return within(
                 "S3.tpi-hw",
                 "TPI/HW read miss ratio in [0.4, 1.5] at every cache size",
                 over(4 * g.size(),
                      [&](std::size_t i) {
                          return g(i / 4, 2 * (i % 4)).readMissRate /
                                 g(i / 4, 2 * (i % 4) + 1).readMissRate;
                      }),
                 0.4, 1.5);
         },
         // Both schemes miss alike at 64 KB, 256 KB and 1 MB.
         atLeastOn("S3.flat-from-64k",
                   "both schemes' miss rates stop changing from 64 KB up on "
                   "all six",
                   kAll, [](const Line &l) {
                       for (int v = 2; v < 6; ++v)
                           if (l[v].readMissRate != l[v + 2].readMissRate)
                               return false;
                       return true;
                   })});
}

// ---- S4: write buffer -----------------------------------------------

Row
s4()
{
    return grid(
        "S4", "write buffer ablation: plain vs cache-organized",
        {{.variants = writeBuffers(),
          .cols = {kBenchmark,
                   each({"plain writes", "coalesced writes"}, 0,
                        &sim::RunResult::writePackets),
                   text(
                       "reduction",
                       [](const Line &l) {
                           return csprintf("%.2fx",
                                           writeReduction(l[0], l[1]));
                       },
                       Align::Right),
                   each({"cycles plain", "cycles coalesced"}, 0,
                        &sim::RunResult::cycles)},
          .note = "TRFD should show by far the largest reduction (repeated "
                  "accumulation into the same words)."}},
        {[](const Grid &g) -> Claim {
             double trfd = 0, others = 0;
             for (std::size_t b = 0; b < g.size(); ++b) {
                 const double x = writeReduction(g(b, 0), g(b, 1));
                 if (g.benchmarks[b] == "TRFD")
                     trfd = x;
                 else
                     others = std::max(others, x);
             }
             return {"S4.trfd-outlier",
                     "TRFD's write-packet reduction is at least 10x, every "
                     "other code's at most 1.25x",
                     trfd >= 10 && others <= 1.25,
                     csprintf("TRFD %.2fx, others <= %.2fx", trfd, others)};
         }});
}

// ---- S5: scheduling and migration -----------------------------------

/** TPI under each DOALL schedule, Dynamic with @p chunk (0: default). */
std::vector<Variant>
schedules(unsigned chunk)
{
    return vary(
        {SchemeKind::TPI},
        {SchedPolicy::Block, SchedPolicy::Cyclic, SchedPolicy::Dynamic},
        [](SchedPolicy s) { return std::string("/") + schedName(s); },
        [chunk](MachineConfig &c, SchedPolicy s) {
            c.sched = s;
            if (chunk && s == SchedPolicy::Dynamic)
                c.dynamicChunk = chunk;
        });
}

Row
s5()
{
    auto build = [](Sweep &sweep, int scale) {
        const Grid g = addGrid(
            sweep,
            {.intro = "(a) DOALL schedule vs TPI Time-Read hit rate:\n",
             .variants = schedules(2),
             .cols = {kBenchmark,
                      each({"block hit%", "cyclic hit%", "dynamic hit%"}, 1,
                           hitPct)}},
            scale);

        // (b) cells: the serial-reuse demo compiled with (cells 0, 1) and
        // without (2, 3) the affinity assumption, at migration rates 0
        // and 1.
        const std::size_t demo = sweep.size();
        for (bool affinity : {true, false}) {
            compiler::AnalysisOptions aopts;
            aopts.assumeSerialAffinity = affinity;
            const CompiledProgramPtr cp =
                std::make_shared<const compiler::CompiledProgram>(
                    compiler::compileProgram(workloads::microSerialReuse(),
                                             aopts));
            for (double rate : {0.0, 1.0}) {
                MachineConfig c = makeConfig(SchemeKind::TPI);
                c.procs = 8;
                c.migrationRate = rate;
                sweep.add(csprintf("serial-reuse/%s/rate=%.1f",
                                   affinity ? "affinity" : "migration-safe",
                                   rate),
                          cp, c);
            }
        }
        auto render = [&sweep, g, demo](std::ostream &os) {
            draw(os, g);
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
        auto claims = [&sweep, g, demo] {
            const Counter unsafe = sweep[demo + 1].oracleViolations;
            const Counter safe = sweep[demo + 2].oracleViolations +
                                 sweep[demo + 3].oracleViolations;
            return Claims{
                {"S5.affinity-unsafe",
                 "affinity-compiled code reads stale data once serial tasks "
                 "migrate (rate 1.0)",
                 unsafe > 0, csprintf("%d stale reads", unsafe)},
                {"S5.safe-coherent",
                 "migration-safe compilation reads no stale data at either "
                 "rate",
                 safe == 0, csprintf("%d stale reads", safe)},
                allIn("S5.block-ge-cyclic",
                      "cyclic scheduling never beats block's Time-Read hit "
                      "rate (cyclic/block)",
                      0, 1.0,
                      [](const Line &l) {
                          return hitPct(l[1]) / hitPct(l[0]);
                      })(g)};
        };
        // The schedule cells must be sound, and so must every demo cell
        // but the one that shows the affinity assumption failing.
        auto gate = [&sweep, demo](std::size_t i) -> CellVerdict {
            if (i < demo)
                return soundness(sweep[i]);
            if (!sweep[i].oracleViolations || i == demo + 1)
                return {};
            if (i == demo)
                return {verify::ExitViolation,
                        "affinity compilation must be sound without "
                        "migration"};
            return {verify::ExitViolation,
                    "migration-safe compilation must be coherent"};
        };
        return RowRun{render, claims, gate};
    };
    return {"S5", "scheduling and task migration (paper Section 5)", nullptr,
            build};
}

// ---- S6: processor count --------------------------------------------

Row
s6()
{
    // Processor count p: TPI is variant 2p, HW 2p + 1.
    return grid(
        "S6", "processor-count scaling",
        {{.variants = vary(
              {SchemeKind::TPI, SchemeKind::HW}, {4u, 16u, 64u}, fmt("/p%d"),
              [](MachineConfig &c, unsigned procs) { c.procs = procs; },
              /*axisMajor=*/true),
          .perLine = 2,
          .cols = {kBenchmark,
                   num("procs", 0,
                       [](const Line &l) { return l.variant().cfg.procs; }),
                   each({"TPI cycles", "HW cycles"}, 0, &sim::RunResult::cycles),
                   num("TPI/HW", 2,
                       [](const Line &l) { return cyclesOver(l[0], l[1]); }),
                   num("TPI speedup", 1,
                       [](const Line &l) {
                           return cyclesOver(l.at(0), l[0]) * 4.0;
                       }),
                   num("net load", 3,
                       [](const Line &l) {
                           return double(l[0].trafficPackets) /
                                  double(l[0].cycles);
                       })},
          .note = "speedup is relative to 4 processors (ideal: equals the "
                  "processor count). TPI/HW staying near 1.0 at 64 procs, "
                  "with no directory DRAM, is the paper's large-scale "
                  "argument."}},
        {[](const Grid &g) {
             return within(
                 "S6.tpi-hw",
                 "TPI/HW cycles in [0.4, 1.5] at 4, 16 and 64 processors",
                 over(3 * g.size(),
                      [&](std::size_t i) {
                          return cyclesOver(g(i / 3, 2 * (i % 3)),
                                            g(i / 3, 2 * (i % 3) + 1));
                      }),
                 0.4, 1.5);
         },
         atLeastOn("S6.tpi-speeds-up",
                   "TPI runs faster at 64 processors than at 4 on all six",
                   kAll,
                   [](const Line &l) { return l[4].cycles < l[0].cycles; })});
}

// ---- S7: consistency model ------------------------------------------

/** Sequential over weak cycles of scheme s (SC, VC, TPI, HW). */
double
slowdown(const Line &l, std::size_t s)
{
    return cyclesOver(l[2 * s + 1], l[2 * s]);
}

/** The less slowed of the write-through VC (1) and TPI (2). */
double
wtSlowdown(const Line &l)
{
    return std::min(slowdown(l, 1), slowdown(l, 2));
}

Row
s7()
{
    return grid(
        "S7", "sequential/weak consistency execution-time ratio",
        {{.variants = vary(
              {SchemeKind::SC, SchemeKind::VC, SchemeKind::TPI,
               SchemeKind::HW},
              {false, true}, [](bool seq) { return seq ? "/sc" : "/wc"; },
              [](MachineConfig &c, bool seq) {
                  c.sequentialConsistency = seq;
              }),
          .cols = {kBenchmark,
                   {{"SC SC/WC", "VC SC/WC", "TPI SC/WC", "HW SC/WC"},
                    [](const Line &l, std::size_t k) {
                        return fix(slowdown(l, k), 2);
                    }}},
          .note = "write-through schemes (SC/VC/TPI) stall on every store "
                  "under sequential consistency; the write-back directory "
                  "mostly hits in M and is the least affected - the "
                  "paper's footnote, quantified."}},
        {allIn("S7.wt-stall",
               "sequential consistency slows VC and TPI at least 1.5x on "
               "all six",
               1.5, kInf, wtSlowdown),
         atLeastOn("S7.hw-least",
                   "HW slows less than VC and TPI under sequential "
                   "consistency on all six",
                   kAll, [](const Line &l) {
                       return slowdown(l, 3) < wtSlowdown(l);
                   })});
}

// ---- S8: topology ---------------------------------------------------

Row
s8()
{
    // TPI MIN, TPI torus, HW MIN, HW torus.
    auto ratio = [](const Line &l, std::size_t topo) {
        return cyclesOver(l[topo], l[2 + topo]);
    };
    return grid(
        "S8", "MIN vs 3-D torus interconnect (64 processors)",
        {{.variants = vary(
              {SchemeKind::TPI, SchemeKind::HW},
              {Topology::MIN, Topology::Torus3D},
              [](Topology topo) {
                  return topo == Topology::MIN ? "/min" : "/torus";
              },
              [](MachineConfig &c, Topology topo) {
                  c.procs = 64; // higher load: contention shows
                  c.topology = topo;
              }),
          .cols = {kBenchmark,
                   each({"TPI min", "TPI torus", "HW min", "HW torus"}, 0,
                        &sim::RunResult::cycles),
                   {{"TPI/HW min", "TPI/HW torus"},
                    [=](const Line &l, std::size_t k) {
                        return fix(ratio(l, k), 2);
                    }}},
          .note = "the TPI/HW ratio is identical across topologies: the "
                  "coherence comparison does not depend on the "
                  "interconnect model. (At P = 64 the agreement is exact by "
                  "algebra: a radix-2 MIN's 6 half-discounted stages "
                  "contend like the 4-ary torus's 3 full-rate hops - "
                  "6*rho*(1-1/2) = 3*rho.)"}},
        {atLeastOn("S8.same-ratio",
                   "TPI/HW cycles are identical under the MIN and the torus "
                   "on all six",
                   kAll,
                   [=](const Line &l) { return ratio(l, 0) == ratio(l, 1); })});
}

// ---- A1: TPI mechanism ablation -------------------------------------

Row
a1()
{
    auto vsFull = [](std::size_t v) {
        return [=](const Line &l) { return cyclesOver(l[v], l[0]); };
    };
    return grid(
        "A1", "TPI mechanism ablation (design-choice study)",
        {{.variants = vary({SchemeKind::TPI},
                           {"full", "no-promotion", "no-distance"},
                           fmt("/%s"),
                           [](MachineConfig &c, std::string_view v) {
                               c.tpiPromoteOnHit = v != "no-promotion";
                               c.tpiUseDistance = v != "no-distance";
                           }),
          .perLine = 1,
          .cols = {kBenchmark,
                   text("variant",
                        [](const Line &l) {
                            return l.variant().suffix.substr(1);
                        }),
                   each({"miss %"}, 2, missPct),
                   each({"time-read hit %"}, 1, hitPct),
                   each({"cycles"}, 0, &sim::RunResult::cycles),
                   num("vs full", 2,
                       [](const Line &l) { return cyclesOver(l[0], l.at(0)); })},
          .note = "no-distance collapses Time-Read hits to spatial "
                  "side-fills only: the compiler's epoch-distance operand "
                  "is what makes the timetags useful. no-promotion decays "
                  "once the reuse distance exceeds the marked d."}},
        {allIn("A1.no-distance",
               "without the distance operand TPI needs at least 1.5x the "
               "full mechanism's cycles on all six",
               1.5, kInf, vsFull(2)),
         allIn("A1.no-promotion",
               "without promotion TPI needs 1.0-1.2x the full mechanism's "
               "cycles on all six",
               1.0, 1.2, vsFull(1))});
}

// ---- A2: scheduling -------------------------------------------------

Row
a2()
{
    const Cols balance = {{"imbalance", "time-read hit %", "cycles"},
                          [](const Line &l, std::size_t k) {
                              const sim::RunResult &r = l[0];
                              return k == 0   ? fix(r.imbalance(), 2)
                                     : k == 1 ? fix(hitPct(r), 1)
                                              : fix(double(r.cycles), 0);
                          }};
    return grid(
        "A2", "scheduling: load balance vs processor affinity",
        {{.variants = schedules(0),
          .perLine = 1,
          .cols = {kBenchmark,
                   text("schedule",
                        [](const Line &l) {
                            return schedName(l.variant().cfg.sched);
                        }),
                   balance}},
         {.intro = "\ndynamic chunk size on TRFD (triangular loops):\n",
          .benchmarks = {"TRFD"},
          .variants = vary({SchemeKind::TPI}, {1u, 2u, 4u, 8u, 16u},
                           fmt("/dynamic/chunk=%d"),
                           [](MachineConfig &c, unsigned chunk) {
                               c.sched = SchedPolicy::Dynamic;
                               c.dynamicChunk = chunk;
                           }),
          .perLine = 1,
          .cols = {num("chunk", 0,
                       [](const Line &l) {
                           return l.variant().cfg.dynamicChunk;
                       }),
                   balance}}},
        {[](const Grid &g) -> Claim {
             const sim::RunResult &blocked =
                 g(indexOf(g.benchmarks, "TRFD"), 0);
             const sim::RunResult &chunk1 = (*g.next)(0, 0);
             return {"A2.chunk1-balances",
                     "chunk-1 dynamic scheduling balances TRFD better than "
                     "block",
                     chunk1.imbalance() < blocked.imbalance(),
                     csprintf("imbalance %.2f -> %.2f", blocked.imbalance(),
                              chunk1.imbalance())};
         },
         [](const Grid &g) -> Claim {
             const Grid &trfd = *g.next;
             bool rising = true;
             for (int c = 1; c < 5; ++c)
                 rising = rising &&
                          trfd(0, c).imbalance() >=
                              trfd(0, c - 1).imbalance() &&
                          hitPct(trfd(0, c)) >= hitPct(trfd(0, c - 1));
             const sim::RunResult &chunk1 = trfd(0, 0), &chunk16 = trfd(0, 4);
             return {"A2.chunk-tradeoff",
                     "on TRFD, larger dynamic chunks raise both the "
                     "Time-Read hit rate and the imbalance",
                     rising,
                     csprintf("chunk 1 -> 16: hits %.1f -> %.1f%%, imbalance "
                              "%.2f -> %.2f",
                              hitPct(chunk1), hitPct(chunk16),
                              chunk1.imbalance(), chunk16.imbalance())};
         }});
}

// ---- A3: interprocedural analysis -----------------------------------

Row
a3()
{
    // Per scheme: interprocedural, then flushing at calls.
    auto build = [](Sweep &sweep, int scale) {
        const Table t{
            .intro = "workload: 512-point solver, 2 calls per task "
                     "iteration + serial bookkeeping procedure\n\n",
            .benchmarks = {"callHeavySolver"},
            .program = std::make_shared<const compiler::CompiledProgram>(
                compiler::compileProgram(workloads::microCallSolver(512, 6))),
            .variants = vary(
                {SchemeKind::SC, SchemeKind::TPI}, {false, true},
                [](bool f) { return f ? "/flush" : "/interprocedural"; },
                [](MachineConfig &c, bool f) {
                    c.procs = 8;
                    c.flushAtCalls = f;
                }),
            .perLine = 1,
            .group = 2,
            .cols = {kScheme,
                     text("mode",
                          [](const Line &l) {
                              return l.variant().cfg.flushAtCalls
                                         ? "flush at calls (prior work)"
                                         : "interprocedural (paper)";
                          }),
                     each({"miss %"}, 2, missPct),
                     each({"cycles"}, 0, &sim::RunResult::cycles),
                     num("slowdown", 2,
                         [](const Line &l) {
                             return cyclesOver(l[0], l.at(l.v / 2 * 2));
                         })},
            .note = "the interprocedural row keeps helper-procedure data "
                    "cached across the two calls per iteration; flushing at "
                    "every boundary forfeits all of it."};
        auto claim = [](const Grid &g) -> Claim {
            const double sc = cyclesOver(g(0, 1), g(0, 0));
            const double tpi = cyclesOver(g(0, 3), g(0, 2));
            return {"A3.flush-cost",
                    "flushing at calls slows both schemes, TPI more than SC",
                    sc > 1 && tpi > sc,
                    csprintf("TPI %.2fx, SC %.2fx", tpi, sc)};
        };
        return tables({t}, {claim})(sweep, scale);
    };
    return {"A3",
            "interprocedural analysis vs flush-at-procedure-boundaries (prior "
            "HSCD schemes)",
            nullptr, build};
}

// ---- W1: synthetic families -----------------------------------------

/** The five schemes of @p l best-to-worst by read miss rate. */
std::string
ranking(const Line &l)
{
    double rate[5];
    int order[5] = {0, 1, 2, 3, 4};
    for (int s = 0; s < 5; ++s)
        rate[s] = missPct(l[s]);
    // Stable: ties keep the BASE, SC, VC, TPI, HW declaration order.
    std::stable_sort(order, order + 5,
                     [&](int a, int b) { return rate[a] < rate[b]; });
    std::string rank;
    for (int s = 0; s < 5; ++s)
        rank += std::string(schemeName(kFive[order[s]])) +
                (s == 4 ? "" : " < ");
    return rank;
}

Row
w1()
{
    Names names;
    for (const std::string &f : workloads::synthFamilies())
        names.push_back("synth:" + f + ":1");
    // Family f's miss rate on scheme s.
    auto miss = [](const Grid &g, const char *f, int s) {
        return missPct(g(indexOf(workloads::synthFamilies(), f), s));
    };
    return grid(
        "W1", "synthetic families, read miss rate (percent), seed 1, scale 2",
        {{.benchmarks = names,
          .variants = defaults(kFive),
          .cols = {text("family",
                        [](const Line &l) {
                            return workloads::synthFamilies()[l.b];
                        }),
                   num("reads", 0, [](const Line &l) { return l[4].reads; }),
                   each({"BASE%", "SC%", "VC%", "TPI%", "HW%"}, 2, missPct),
                   text("ranking", ranking)},
          .note = "ranking reads best-to-worst by read miss rate; "
                  "EXPERIMENTS.md (W1) compares these verdicts with the "
                  "Figure 11 kernels."}},
        {[=](const Grid &g) -> Claim {
             const double tpi = miss(g, "falseshare", 3),
                          hw = miss(g, "falseshare", 4);
             return {"W1.falseshare-tpi",
                     "with only line-level false sharing, TPI misses less "
                     "than HW",
                     tpi < hw, csprintf("TPI %.2f%%, HW %.2f%%", tpi, hw)};
         },
         [=](const Grid &g) -> Claim {
             const double hw = miss(g, "stencil", 4),
                          tpi = miss(g, "stencil", 3);
             return {"W1.stencil-hw", "on stencil halos, HW misses less than TPI",
                     hw < tpi, csprintf("HW %.2f%%, TPI %.2f%%", hw, tpi)};
         },
         [=](const Grid &g) -> Claim {
             double others = kInf;
             for (int s = 0; s < 4; ++s)
                 others = std::min(others, miss(g, "migratory", s));
             const double hw = miss(g, "migratory", 4);
             return {"W1.migratory-hw", "on migratory chunks, HW misses least",
                     hw < others,
                     csprintf("HW %.2f%%, next %.2f%%", hw, others)};
         }});
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
Row
r1()
{
    auto build = [](Sweep &sweep, int) {
        const Names names = workloads::benchmarkNames();
        auto config = [](SchemeKind k) {
            MachineConfig c = makeConfig(k);
            c.shadowEpochCheck = true;
            return c;
        };
        const std::size_t refs = sweep.size();
        for (SchemeKind k : kR1Schemes)
            for (const std::string &name : names)
                sweep.add("ref/" + name + "/" + schemeName(k), name,
                          config(k), /*scale=*/1);
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
            TextTable t = table({"rate", "scheme", "runs", "clean",
                                 "recovered", "aborted", "flagged", "silent",
                                 "injected", "retries"},
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
        return RowRun{render, claims, gate};
    };
    return {"R1", "fault injection: recovered / aborted / flagged, never silent",
            nullptr, build};
}

} // namespace

const std::vector<Row> &
paperRows()
{
    static const std::vector<Row> rows = {
        f5(), f9(), f11(), f12(), f13(), f14(), t1(), s1(), s2(), s3(),
        s4(), s5(), s6(), s7(), s8(), a1(), a2(), a3(), w1(), r1()};
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
    else if (run.end > run.first)
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
        runs.back().end = sweep.size();
    }
    sweep.run();
    return runs;
}

} // namespace bench
} // namespace hscd
