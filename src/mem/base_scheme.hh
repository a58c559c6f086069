/**
 * @file
 * BASE scheme: shared data is never cached; every shared reference is a
 * remote memory access. This is how Cray T3D-class machines behave when
 * the user does not manage coherence explicitly.
 */

#ifndef HSCD_MEM_BASE_SCHEME_HH
#define HSCD_MEM_BASE_SCHEME_HH

#include <vector>

#include "mem/coherence.hh"
#include "mem/write_buffer.hh"

namespace hscd {
namespace mem {

class BaseScheme final : public CoherenceScheme
{
  public:
    BaseScheme(const MachineConfig &cfg, MainMemory &memory,
               net::Network &network);

    AccessResult access(const MemOp &op) override;
    Cycles epochBoundary(EpochId new_epoch) override;
    void migrationDrain(ProcId p) override;

  private:
    std::vector<WriteBuffer> _wbuf;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_BASE_SCHEME_HH
