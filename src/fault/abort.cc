#include "fault/abort.hh"

#include "common/log.hh"

namespace hscd {
namespace fault {

const char *
abortKindName(AbortKind k)
{
    switch (k) {
      case AbortKind::None:
        return "none";
      case AbortKind::Protocol:
        return "protocol";
      case AbortKind::Watchdog:
        return "watchdog";
      case AbortKind::Deadlock:
        return "deadlock";
      case AbortKind::ClockLimit:
        return "clock";
    }
    panic("bad AbortKind %d", static_cast<int>(k));
}

} // namespace fault
} // namespace hscd
