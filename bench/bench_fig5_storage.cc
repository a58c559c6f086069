/**
 * @file
 * Figure 5: storage overhead of a full-map directory, a LimitLess
 * (DirNB-i) directory, and the TPI timetags, as functions of P, L, C, M.
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "mem/storage_model.hh"

using namespace hscd;
using namespace hscd::mem;

int
benchMain(int, char **)
{
    std::cout << "== F5: coherence storage overhead (paper Figure 5) ==\n";
    std::cout << "P procs, L words/block, C cache blocks/node, M memory "
                 "blocks/node, i = 10 LimitLess pointers, 8-bit tags\n\n";

    {
        StorageParams p; // the paper's P = 1024 design point
        TextTable t;
        t.col("scheme", TextTable::Align::Left)
            .col("cache SRAM formula", TextTable::Align::Left)
            .col("memory DRAM formula", TextTable::Align::Left)
            .col("SRAM")
            .col("DRAM");
        auto full = fullMapOverhead(p);
        auto lim = limitlessOverhead(p);
        auto tpi = tpiOverhead(p);
        t.row()
            .cell("full-map directory")
            .cell("2*C*P")
            .cell("(P+2)*M*P")
            .cell(formatBits(full.cacheSramBits))
            .cell(formatBits(full.memoryDramBits));
        t.row()
            .cell("LimitLess DirNB-10")
            .cell("2*C*P")
            .cell("(i+2)*M*P")
            .cell(formatBits(lim.cacheSramBits))
            .cell(formatBits(lim.memoryDramBits));
        t.row()
            .cell("TPI (this paper)")
            .cell("8*L*C*P")
            .cell("none")
            .cell(formatBits(tpi.cacheSramBits))
            .cell("0.0 B");
        std::cout << "P = 1024, L = 4, C = 16K blocks, M = 512K blocks\n";
        t.print(std::cout);
    }

    {
        // Scaling with the processor count: the directory DRAM overhead
        // grows as P^2 while TPI stays proportional to total cache.
        TextTable t;
        t.col("P").col("full-map total").col("LimitLess total")
            .col("TPI total");
        for (std::uint64_t procs : {64u, 256u, 1024u, 4096u}) {
            StorageParams p;
            p.procs = procs;
            t.row()
                .cell(procs)
                .cell(formatBits(fullMapOverhead(p).totalBits()))
                .cell(formatBits(limitlessOverhead(p).totalBits()))
                .cell(formatBits(tpiOverhead(p).totalBits()));
        }
        std::cout << "\nscaling with P (L=4, C=16K, M=512K per node):\n";
        t.print(std::cout);
    }

    {
        // Timetag width knob (TPI's only cost lever).
        TextTable t;
        t.col("timetag bits").col("TPI SRAM");
        for (unsigned bits : {2u, 4u, 8u, 16u}) {
            StorageParams p;
            p.timetagBits = bits;
            t.row().cell(bits).cell(
                formatBits(tpiOverhead(p).cacheSramBits));
        }
        std::cout << "\nTPI overhead vs timetag width (P = 1024):\n";
        t.print(std::cout);
    }
    return 0;
}
