/**
 * @file
 * microlib_sweepd: the deduplicating sweep service daemon.
 *
 * Thin CLI wrapper around SweepService (src/service/sweepd.hh):
 * parse flags, install SIGINT/SIGTERM handlers that request a clean
 * stop, start the listener, run the event loop. The daemon owns one
 * global result store; every sweep any client ever submits dedups
 * against it — identical sweeps collapse to one job, and individual
 * tasks whose fingerprinted records already exist are never queued.
 * Workers attach with `microlib_sweep --worker ADDR`. See
 * docs/SWEEP_SERVICE.md for a walkthrough, the protocol and the
 * failure semantics.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "core/exit_codes.hh"
#include "service/sweepd.hh"
#include "sim/options.hh"

using namespace microlib;

namespace
{

SweepService *g_service = nullptr;

void
onSignal(int)
{
    // requestStop only flips an atomic: async-signal-safe. The poll
    // loop notices within its 200ms timeout.
    if (g_service)
        g_service->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    SweepServiceOptions opts;
    OptionTable table("microlib_sweepd",
                      "--listen ADDR --store PATH [options]",
                      "Exit status: 0 clean shutdown, 2 usage error, 4 "
                      "cannot start\n(bad address, unopenable store)");
    table.section("Options:")
        .add("--listen", "ADDR",
             "unix:/path or host:port (host:0 picks a free port and "
             "prints it)",
             opts.listen)
        .add(shared_flags::store, opts.store_path)
        .add(shared_flags::progress, opts.progress_path)
        .add("--lease", "N", "tasks per worker lease", opts.lease_size, 1)
        .add(shared_flags::heartbeat_timeout, opts.heartbeat_timeout)
        .add(shared_flags::strikes, opts.quarantine_strikes)
        .add("--read-only", "",
             "serve cached results only: refuse workers and submits "
             "that need execution",
             opts.read_only)
        .add("--max-jobs", "N",
             "completed jobs kept before oldest-first eviction",
             opts.max_done_jobs);
    if (const auto status = table.parse(argc, argv))
        return *status;

    if (opts.listen.empty() || opts.store_path.empty()) {
        std::fprintf(stderr, "--listen and --store are required\n");
        return exit_usage;
    }

    SweepService service(opts);
    std::string error;
    if (!service.start(&error)) {
        std::fprintf(stderr, "microlib_sweepd: %s\n", error.c_str());
        return exit_infrastructure;
    }

    g_service = &service;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // The resolved address on stdout: with host:0 this line is how a
    // launcher learns the real port.
    std::printf("microlib_sweepd listening on %s (store %s)\n",
                service.address().c_str(), opts.store_path.c_str());
    std::fflush(stdout);

    const int code = service.run();
    g_service = nullptr;
    return code;
}
