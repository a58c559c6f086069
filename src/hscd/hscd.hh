/**
 * @file
 * Umbrella header: everything a downstream user needs to describe a
 * parallel program, run the HSCD coherence compiler, and simulate it.
 *
 * @code
 *   #include "hscd/hscd.hh"
 *
 *   hscd::hir::ProgramBuilder b;
 *   ... build a program ...
 *   auto cp  = hscd::compiler::compileProgram(b.build());
 *   hscd::MachineConfig cfg;           // paper Figure 8 defaults
 *   cfg.scheme = hscd::SchemeKind::TPI;
 *   auto res = hscd::sim::simulate(cp, cfg);
 * @endcode
 */

#ifndef HSCD_HSCD_HH
#define HSCD_HSCD_HH

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "compiler/analysis.hh"
#include "hir/builder.hh"
#include "hir/printer.hh"
#include "mem/coherence.hh"
#include "mem/machine_config.hh"
#include "mem/storage_model.hh"
#include "network/kruskal_snir.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "verify/verify.hh"
#include "workloads/workloads.hh"

#endif // HSCD_HSCD_HH
