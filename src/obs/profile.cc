#include "obs/profile.hh"

#include <chrono>

#include <sys/resource.h>

namespace hscd {
namespace obs {

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
        steady_clock::now().time_since_epoch()).count();
}

std::uint64_t
currentRssPeakKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // ru_maxrss is KiB on Linux, bytes on some BSDs; we only build on
    // Linux so report it as-is.
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

} // namespace obs
} // namespace hscd
