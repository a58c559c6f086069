/**
 * @file
 * The shared main() of the experiment binaries. A fatal() user error -
 * a bad flag value, a --resume from a file that is not a sweep journal,
 * an unwritable --json path - exits verify::ExitUsage (2) instead of
 * escaping main() as an uncaught exception (SIGABRT, exit 134).
 */

#include "common/log.hh"
#include "harness.hh"
#include "verify/diagnostic.hh"

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const hscd::FatalError &) {
        // fatal() has already printed the message.
        return hscd::verify::ExitUsage;
    }
}
