/**
 * @file
 * Host-cost probes of the two lowest layers, through their public
 * API only: the event kernel (sim::Simulator) and the fibers
 * (sim::Process / sim::Condition).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

namespace perfbench
{

/** Host ns to schedule and execute one empty event. */
double probe_event_ns(int events);

/** Host ns per park + resume of a sim::Process: two processes
 *  ping-pong on a pair of sim::Conditions for @p rounds rounds. */
double probe_switch_ns(int rounds);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
