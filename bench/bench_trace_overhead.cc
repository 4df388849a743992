/**
 * @file
 * Span-layer overhead guard.
 *
 * The flight recorder is designed to stay on in production runs, so
 * its cost has a budget: the host wall-clock of the simulator driving
 * a PUT-heavy workload with span mode `flight` must stay within 5% of
 * mode `off`. This bench times all three modes (off / flight / full)
 * as interleaved runs — each repeat runs every mode once, alternating
 * which of off and flight goes first, so host drift hits both sides
 * of a pair alike — and reports the median of the per-repeat
 * flight/off and full/off ratios. Each timed run is a PUT burst of
 * about 10 ms or more, long enough that scheduling noise stays well
 * under the budget. It checks that the *simulated* result is
 * bit-identical across modes (recording must never perturb the
 * machine), prints a comparison table, and emits
 * BENCH_trace_overhead.json via --json-out.
 *
 *   bench_trace_overhead [--repeats=N] [--puts=N] [--bytes=N]
 *                        [--check] [--json-out[=FILE]]
 *
 * --check turns the 5% flight-vs-off budget on the median paired
 * ratio into the exit status (CI mode); without it the ratios are
 * informational.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "obs/span.hh"

using namespace ap;
using namespace ap::core;

namespace
{

/** One timed run of the PUT burst. */
struct Run
{
    double wallMs = 0;           ///< host time of run_spmd
    Tick finish = 0;             ///< simulated finish tick
    std::uint64_t recorded = 0;  ///< span events recorded
};

struct Workload
{
    int puts = 8192;
    std::uint32_t bytes = 4096;
    int repeats = 15;
};

Run
run_once(obs::SpanMode mode, const Workload &w)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 8 << 20;
    cfg.spanMode = mode;
    hw::Machine m(cfg);

    auto t0 = std::chrono::steady_clock::now();
    SpmdResult res = run_spmd(m, [&](Context &ctx) {
        Addr buf = ctx.alloc(w.bytes);
        Addr rf = ctx.alloc_flag();
        ctx.barrier();
        if (ctx.id() == 0)
            for (int i = 0; i < w.puts; ++i)
                ctx.put(1, buf, buf, w.bytes, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, static_cast<std::uint64_t>(w.puts));
        ctx.barrier();
    });
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (res.failed())
        fatal("trace-overhead workload failed in mode %s",
              to_string(mode));
    return {ms, res.finishTick, m.spans().recorded()};
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Workload w;
    bool check = false;
    obs::BenchReport report("trace_overhead");
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--repeats=", 10) == 0)
            w.repeats = std::atoi(a + 10);
        else if (std::strncmp(a, "--puts=", 7) == 0)
            w.puts = std::atoi(a + 7);
        else if (std::strncmp(a, "--bytes=", 8) == 0)
            w.bytes =
                static_cast<std::uint32_t>(std::atoi(a + 8));
        else if (std::strcmp(a, "--check") == 0)
            check = true;
        else if (report.consume_arg(a))
            ;
        else {
            std::fprintf(
                stderr,
                "usage: bench_trace_overhead [--repeats=N] "
                "[--puts=N] [--bytes=N] [--check] "
                "[--json-out[=FILE]]\n");
            return 2;
        }
    }

    if (w.repeats < 1 || w.puts < 1)
        fatal("bench_trace_overhead needs --repeats and --puts >= 1");

    std::vector<double> offMs, flightMs, fullMs, flightRatios,
        fullRatios;
    Run off, flight, full;
    Tick finish = 0;
    for (int r = 0; r < w.repeats; ++r) {
        // Interleave: odd repeats run the modes in reverse order, so
        // neither side of the off/flight pair always goes first.
        if (r % 2 == 0) {
            off = run_once(obs::SpanMode::off, w);
            flight = run_once(obs::SpanMode::flight, w);
            full = run_once(obs::SpanMode::full, w);
        } else {
            full = run_once(obs::SpanMode::full, w);
            flight = run_once(obs::SpanMode::flight, w);
            off = run_once(obs::SpanMode::off, w);
        }

        // Recording must be pure observation: same simulated history.
        if (flight.finish != off.finish || full.finish != off.finish)
            fatal("span recording perturbed the simulation: finish "
                  "ticks off=%llu flight=%llu full=%llu",
                  static_cast<unsigned long long>(off.finish),
                  static_cast<unsigned long long>(flight.finish),
                  static_cast<unsigned long long>(full.finish));
        if (r > 0 && off.finish != finish)
            fatal("repeat %d finished at tick %llu, expected %llu "
                  "(nondeterministic run?)",
                  r, static_cast<unsigned long long>(off.finish),
                  static_cast<unsigned long long>(finish));
        finish = off.finish;

        offMs.push_back(off.wallMs);
        flightMs.push_back(flight.wallMs);
        fullMs.push_back(full.wallMs);
        flightRatios.push_back(flight.wallMs / off.wallMs);
        fullRatios.push_back(full.wallMs / off.wallMs);
    }

    double offWall = median(offMs);
    double flightWall = median(flightMs);
    double fullWall = median(fullMs);
    double flightRatio = median(flightRatios);
    double fullRatio = median(fullRatios);
    double simUs = ticks_to_us(finish);
    std::printf(
        "trace overhead: %d x %u B PUT, median of %d interleaved "
        "repeats, sim time %.1f us\n"
        "  mode     wall(ms)   vs off   events\n"
        "  off      %8.2f       --   %8llu\n"
        "  flight   %8.2f   %+5.1f%%   %8llu\n"
        "  full     %8.2f   %+5.1f%%   %8llu\n",
        w.puts, w.bytes, w.repeats, simUs, offWall,
        static_cast<unsigned long long>(off.recorded), flightWall,
        (flightRatio - 1.0) * 100.0,
        static_cast<unsigned long long>(flight.recorded), fullWall,
        (fullRatio - 1.0) * 100.0,
        static_cast<unsigned long long>(full.recorded));

    report.set("workload.puts", static_cast<std::uint64_t>(w.puts));
    report.set("workload.bytes",
               static_cast<std::uint64_t>(w.bytes));
    report.set("workload.sim_us", simUs);
    report.set("off.wall_ms", offWall);
    report.set("flight.wall_ms", flightWall);
    report.set("flight.ratio", flightRatio);
    report.set("flight.events", flight.recorded);
    report.set("full.wall_ms", fullWall);
    report.set("full.ratio", fullRatio);
    report.set("full.events", full.recorded);
    report.write();

    if (check && flightRatio > 1.05) {
        std::fprintf(stderr,
                     "FAIL: flight-recorder overhead %.1f%% (median "
                     "paired ratio) exceeds the 5%% budget\n",
                     (flightRatio - 1.0) * 100.0);
        return 1;
    }
    return 0;
}
