/**
 * @file
 * Self-tests of the benchmark: input generation is a pure function of
 * the seed, the output checks reject bad data, and failures reach the
 * error count. Runs the workloads at reduced sizes.
 *
 *   ctest --test-dir .bench_build --output-on-failure
 */

#include <cstdio>
#include <vector>

#include "mlsim/replay.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

const HaloSpec small_halo{4, 6, 4, 2};
const TransposeSpec small_transpose{4, 4, 8, 8, 2};

struct Run
{
    Outcome out;
    std::string digest;
};

Run
halo(std::uint64_t seed, int threads = 1, bool deterministic = false,
     ap::sim::FaultPlan faults = ap::sim::FaultPlan{})
{
    HaloInput in = make_halo(small_halo, seed);
    hw::MachineConfig cfg = machine_config(in.cells(), threads,
                                           deterministic);
    cfg.faults = faults;
    hw::Machine m(cfg);
    ap::sim::TickHistory hist;
    if (threads == 1)
        m.sim().set_history(&hist);
    Run r{run_halo(m, in), hist.digest()};
    return r;
}

Outcome
transpose(std::uint64_t seed, ap::sim::FaultPlan faults)
{
    TransposeInput in = make_transpose(small_transpose, seed);
    hw::MachineConfig cfg = machine_config(in.cells(), 1);
    cfg.faults = faults;
    hw::Machine m(cfg);
    return run_transpose(m, in);
}

void
test_seed_determines_inputs()
{
    HaloInput a = make_halo(small_halo, 7), b = make_halo(small_halo, 7),
              c = make_halo(small_halo, 8);
    CHECK(a.order == b.order);
    CHECK(a.reduceSums == b.reduceSums);
    CHECK(a.value(3, 1, 2, 2) == b.value(3, 1, 2, 2));
    CHECK(a.order != c.order);
    CHECK(a.reduceSums != c.reduceSums);
    CHECK(a.value(3, 1, 2, 2) != c.value(3, 1, 2, 2));

    TransposeInput t = make_transpose(small_transpose, 7),
                   u = make_transpose(small_transpose, 7),
                   v = make_transpose(small_transpose, 8);
    CHECK(t.order == u.order && t.vecSums == u.vecSums);
    CHECK(t.order != v.order && t.vecSums != v.vecSums);

    ReplayInput p = make_replay({"CG"}, 7), q = make_replay({"CG"}, 7),
                r = make_replay({"CG"}, 8);
    CHECK(p.placement == q.placement);
    CHECK(p.placement != r.placement);
}

void
test_same_seed_same_run()
{
    Run a = halo(7), b = halo(7), c = halo(8);
    CHECK(a.out.failed == 0 && c.out.failed == 0);
    CHECK(a.out.ops == halo_ops(small_halo));
    CHECK(a.out.simUs == b.out.simUs);
    CHECK(a.out.events == b.out.events);
    CHECK(a.out.dataHash == b.out.dataHash);
    CHECK(a.digest == b.digest);
    CHECK(a.out.dataHash != c.out.dataHash);
}

void
test_sharded_matches_sequential()
{
    // Deterministic mode reproduces the sequential run exactly.
    Run seq = halo(7), det = halo(7, 2, true);
    CHECK(det.out.failed == 0);
    CHECK(det.out.simUs == seq.out.simUs);
    CHECK(det.out.events == seq.out.events);
    CHECK(det.out.dataHash == seq.out.dataHash);
    // Relaxed mode, which halo_put_sharded measures, reproduces the
    // events and data; its simulated time is not promised.
    Run par = halo(7, 2);
    CHECK(par.out.failed == 0);
    CHECK(par.out.events == seq.out.events);
    CHECK(par.out.dataHash == seq.out.dataHash);
}

void
test_check_rejects_corrupted_block()
{
    TransposeInput in = make_transpose(small_transpose, 7);
    std::vector<double> block(static_cast<std::size_t>(in.spec.block));
    for (int k = 0; k < in.spec.block; ++k)
        block[static_cast<std::size_t>(k)] = in.block_value(2, 5, 1, k);
    CHECK(block_ok(in, 2, 5, 1, block.data()));
    block[1] += 1.0;
    CHECK(!block_ok(in, 2, 5, 1, block.data()));

    // End to end: a clean run passes, payload corruption on the wire
    // is caught by the data checks.
    Outcome clean = transpose(7, ap::sim::FaultPlan{});
    CHECK(clean.failed == 0);
    Outcome bad = transpose(7, ap::sim::FaultPlan::corrupts(7, 1.0));
    CHECK(bad.failed > 0);
}

void
test_dropped_messages_count_as_failures()
{
    // Every T-net message lost and no retry policy: cells never see
    // their flags, and the run must report failures, not hang.
    Run r = halo(7, 1, false, ap::sim::FaultPlan::drops(7, 1.0));
    CHECK(r.out.failed > 0);
    CHECK(static_cast<double>(r.out.failed) / static_cast<double>(r.out.ops) >
          0.0);
    // A failed cell fails all of its ops.
    const std::uint64_t perCell =
        r.out.ops / static_cast<std::uint64_t>(small_halo.side *
                                               small_halo.side);
    CHECK(r.out.failed % perCell == 0 && r.out.failed <= r.out.ops);
}

void
test_replay_keeps_message_count()
{
    ReplayInput in = make_replay({"CG"}, 7);
    core::Trace t = place(apps::make_app("CG")->generate(), in.placement[0]);
    ap::mlsim::Replay replay(t, ap::mlsim::Params::ap1000_plus());
    ap::mlsim::ReplayReport rep = replay.run();
    CHECK(!rep.deadlock);
    CHECK(rep.messages == trace_messages(t));
}

} // namespace

int
main()
{
    test_seed_determines_inputs();
    test_same_seed_same_run();
    test_sharded_matches_sequential();
    test_check_rejects_corrupted_block();
    test_dropped_messages_count_as_failures();
    test_replay_keeps_message_count();
    if (failures) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("all perfbench self-tests passed\n");
    return 0;
}
