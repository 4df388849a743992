#include "probes.hh"

#include <chrono>

#include "sim/eventq.hh"
#include "sim/process.hh"

namespace perfbench
{

namespace sim = ap::sim;

namespace
{

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

double
probe_event_ns(int events)
{
    sim::Simulator s;
    int fired = 0;
    double t0 = now_s();
    // Batches keep the pending set small, as in a running machine.
    constexpr int batch = 256;
    for (int done = 0; done < events; done += batch) {
        for (int i = 0; i < batch; ++i)
            s.schedule_after(static_cast<ap::Tick>(i % 16),
                             [&fired] { ++fired; });
        s.run();
    }
    double t1 = now_s();
    return (t1 - t0) * 1e9 / static_cast<double>(fired);
}

double
probe_switch_ns(int rounds)
{
    sim::Simulator s;
    sim::Condition ping, pong;
    int turn = 0;
    sim::Process a(s, "ping", [&](sim::Process &p) {
        for (int i = 0; i < rounds; ++i) {
            turn = 1;
            pong.notify_all();
            while (turn != 0)
                p.wait(ping);
        }
    });
    sim::Process b(s, "pong", [&](sim::Process &p) {
        for (int i = 0; i < rounds; ++i) {
            while (turn != 1)
                p.wait(pong);
            turn = 0;
            ping.notify_all();
        }
    });
    double t0 = now_s();
    a.start();
    b.start();
    s.run();
    double t1 = now_s();
    // Each round parks and resumes each process once.
    return (t1 - t0) * 1e9 / (2.0 * rounds);
}

} // namespace perfbench
