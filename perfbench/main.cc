/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--spans-out PATH]
 *
 * Generates workload W's input from seed N, runs one unmeasured
 * reference repetition (whose outputs every later repetition must
 * reproduce), then repeats set-up + run for S seconds. With --trace 0 it prints the end-to-end
 * metrics; with --trace 1 it interleaves untraced and traced
 * repetitions and prints the per-layer metrics. The last line of
 * stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "base/types.hh"
#include "mlsim/replay.hh"
#include "obs/critpath.hh"
#include "probes.hh"
#include "sim/event.hh"
#include "sim/eventq.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;
namespace mlsim = ap::mlsim;
namespace obs = ap::obs;
namespace sim = ap::sim;

namespace
{

// -- host clocks ----------------------------------------------------------

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct CpuTimes
{
    double user = 0.0;
    double sys = 0.0;
};

CpuTimes
cpu_now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

/** Start a fresh peak-RSS window (Linux; elsewhere the window is
 *  the whole process). */
void
reset_peak_rss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
}

/** Peak RSS in MB since the last reset_peak_rss(). */
double
peak_rss_mb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Pin the process to the last @p n CPUs it may run on, before any
 * kernel thread exists (worker threads inherit the mask). Unpinned,
 * the scheduler moves the simulator between CPUs whose caches and
 * co-tenants differ; on a shared 4-core host that moved the median
 * repetition time by 12% between runs, and by 2% pinned.
 */
void
pin_cpus(int n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &pinned);
            --n;
        }
    }
    if (sched_setaffinity(0, sizeof pinned, &pinned) != 0)
        std::printf("# cannot pin CPUs; running unpinned\n");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Run and CPU times report the fastest repetition. Co-tenant memory
 * traffic on a shared host stretches a repetition's wall and CPU time
 * alike by up to 40% (a pointer chase over 8 MB varies 3x while an ALU
 * loop varies 3%), and the contention level drifts over minutes, so
 * medians of one run move with the neighbours. The fastest of many
 * short repetitions tracks the program's own cost.
 */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// -- workloads --------------------------------------------------------------

/** One workload behind a uniform set-up / run / tear-down interface. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Operations one repetition issues, counted from the input. */
    virtual std::uint64_t ops() const = 0;
    /** Build what a repetition runs on (timed as setup_s). */
    virtual void setup(SpanLog *spans, int parent) = 0;
    /** One repetition (timed as the measured phase). */
    virtual Outcome run(SpanLog *spans, int parent,
                        sim::TickHistory *history) = 0;
    virtual void teardown() = 0;
    /** Whether a run has a reproducible tick digest (the sequential
     *  emulator kernel). */
    virtual bool has_digest() const = 0;
    /** Layer counters of the repetition just run (traced runs). */
    virtual void layers(const Outcome &o, std::map<std::string, double> &m,
                        SpanLog *spans) = 0;
    /** One more repetition with full causal spans for the critical-path
     *  shares; false when the workload has no machine. */
    virtual bool critpath(obs::CritPathReport &, Outcome &) { return false; }
};

class EmulatorWorkload final : public Workload
{
  public:
    using Runner =
        std::function<Outcome(hw::Machine &, SpanLog *, int)>;

    EmulatorWorkload(hw::MachineConfig cfg, std::uint64_t ops, Runner run)
        : cfg(std::move(cfg)), numOps(ops), runner(std::move(run))
    {
    }

    std::uint64_t ops() const override { return numOps; }
    bool has_digest() const override { return cfg.threads == 1; }

    void
    setup(SpanLog *spans, int parent) override
    {
        Scope s(spans, "hw.machine_ctor", parent);
        machine = std::make_unique<hw::Machine>(cfg);
    }

    Outcome
    run(SpanLog *spans, int parent, sim::TickHistory *history) override
    {
        if (history)
            machine->sim().set_history(history);
        fnHeap0 = sim::eventfn_heap_allocs();
        if (spans)
            spans->set_cells(cfg.cells);
        Scope s(spans, "core.run_spmd", parent);
        return runner(*machine, spans, s.id());
    }

    void teardown() override { machine.reset(); }

    void
    layers(const Outcome &o, std::map<std::string, double> &m,
           SpanLog *spans) override
    {
        const obs::StatsRegistry &reg = machine->stats_registry();
        auto sum = [&](const char *pattern) {
            return static_cast<double>(reg.sum(pattern));
        };
        auto val = [&](const char *path) {
            return static_cast<double>(reg.value(path));
        };
        auto hist_mean = [&](const std::string &pattern) {
            double total = 0.0, count = 0.0;
            for (const std::string &p : reg.paths()) {
                if (!obs::StatsRegistry::matches(pattern, p))
                    continue;
                const obs::StatEntry *e = reg.find(p);
                if (e && e->hist) {
                    total += e->hist->scalar().sum();
                    count += static_cast<double>(e->hist->scalar().count());
                }
            }
            return count > 0 ? total / count : 0.0;
        };

        m["sim.events"] = static_cast<double>(o.events);
        m["sim.events_per_op"] =
            static_cast<double>(o.events) / static_cast<double>(o.ops);
        m["sim.alloc.pool_miss"] = val("sim.alloc.pool_miss");
        m["sim.alloc.fn_heap"] =
            static_cast<double>(sim::eventfn_heap_allocs() - fnHeap0);
        m["sim.alloc.payload_miss"] = val("sim.alloc.payload_miss");

        double windows = val("sim.window.count");
        m["shardq.windows"] = windows;
        m["shardq.events_per_window"] =
            windows > 0 ? val("sim.window.events") / windows : 0.0;
        m["shardq.barrier_wait_ms"] = val("sim.window.barrier_wait_ns") / 1e6;
        m["shardq.imbalance"] = val("sim.window.imbalance_avg_x1000") / 1000.0;

        m["core.blocked_frac"] = o.blockedFrac;

        double commands = 0.0, spills = 0.0;
        for (const char *q : {"user_queue", "system_queue", "remote_queue",
                              "get_reply_queue", "load_reply_queue"}) {
            std::string base = std::string("*.msc.") + q + ".";
            commands += sum((base + "pushes").c_str());
            spills += sum((base + "spills").c_str());
        }
        m["msc.commands"] = commands;
        m["msc.spills"] = spills;
        m["msc.get_replies"] = sum("*.msc.get_replies_sent");
        m["msc.cmd_latency_us_mean"] = hist_mean("*.msc.cmd_latency_us");
        m["mc.flag_increments"] = sum("*.mc.flag_increments");
        m["mmu.tlb_misses"] = sum("*.mmu.tlb_misses");
        m["ring.deposits"] = sum("*.ring.deposits");
        m["ring.in_place_reads"] = sum("*.ring.in_place_reads");
        m["ring.copies"] = sum("*.ring.copies");

        m["tnet.messages"] = val("tnet.messages");
        m["tnet.mean_hops"] = hist_mean("tnet.distance");
        m["tnet.latency_us_mean"] = hist_mean("tnet.latency_us");
        m["snet.episodes"] = val("snet.episodes");

        m["obs.spans_recorded"] = val("spans.recorded");
        Scope s(spans, "obs.stats_json");
        (void)machine->stats_json(false);
    }

    bool
    critpath(obs::CritPathReport &report, Outcome &out) override
    {
        setup(nullptr, -1);
        machine->set_span_mode(obs::SpanMode::full);
        out = runner(*machine, nullptr, -1);
        report = obs::analyze_spans(machine->spans().events());
        teardown();
        return true;
    }

  private:
    hw::MachineConfig cfg;
    std::uint64_t numOps;
    Runner runner;
    std::unique_ptr<hw::Machine> machine;
    std::uint64_t fnHeap0 = 0;
};

class ReplayWorkload final : public Workload
{
  public:
    explicit ReplayWorkload(ReplayInput in) : input(std::move(in))
    {
        // The operation and message counts come from the input traces,
        // never from the replay.
        setup(nullptr, -1);
        for (const core::Trace &t : traces) {
            numOps += t.total_events();
            expected.push_back(trace_messages(t));
        }
        teardown();
    }

    std::uint64_t ops() const override { return numOps; }
    bool has_digest() const override { return false; }

    void
    setup(SpanLog *spans, int parent) override
    {
        traces.clear();
        for (std::size_t i = 0; i < input.apps.size(); ++i) {
            core::Trace t;
            {
                Scope s(spans, "apps.generate", parent, input.apps[i]);
                t = apps::make_app(input.apps[i])->generate();
            }
            traces.push_back(place(t, input.placement[i]));
        }
    }

    Outcome
    run(SpanLog *spans, int parent, sim::TickHistory *) override
    {
        Outcome o;
        o.ops = numOps;
        fnHeap0 = sim::eventfn_heap_allocs();
        messages.assign(traces.size(), 0);
        for (std::size_t i = 0; i < traces.size(); ++i) {
            Scope s(spans, "mlsim.replay", parent, input.apps[i]);
            mlsim::Replay replay(traces[i], mlsim::Params::ap1000_plus());
            mlsim::ReplayReport r = replay.run();
            o.simUs += r.totalUs;
            messages[i] = r.messages;
            if (r.deadlock || r.messages != expected[i]) {
                std::printf("# %s: deadlock=%d messages=%" PRIu64
                            " expected=%" PRIu64 "\n",
                            input.apps[i].c_str(), r.deadlock ? 1 : 0,
                            r.messages, expected[i]);
                o.failed += traces[i].total_events();
            }
            o.dataHash = o.dataHash * 31 + r.messages;
        }
        return o;
    }

    void teardown() override { traces.clear(); }

    void
    layers(const Outcome &, std::map<std::string, double> &m,
           SpanLog *) override
    {
        m["sim.alloc.fn_heap"] =
            static_cast<double>(sim::eventfn_heap_allocs() - fnHeap0);
        for (std::size_t i = 0; i < input.apps.size(); ++i)
            m["mlsim." + metric_name(input.apps[i]) + ".messages"] =
                static_cast<double>(messages[i]);
    }

  private:
    ReplayInput input;
    std::vector<core::Trace> traces;
    std::vector<std::uint64_t> expected;
    std::vector<std::uint64_t> messages;
    std::uint64_t numOps = 0;
    std::uint64_t fnHeap0 = 0;
};

/** Worker threads of halo_put_sharded: one per core of a 4-core host
 *  (2 and 3 threads spread more between runs there). */
constexpr int sharded_threads = 4;
/** Iterations of halo_put_sharded. Each window hands work between
 *  threads, and short sharded repetitions time that noisily: the
 *  fastest 2-iteration repetition of 25 s windows varied 14% in wall
 *  and 25% in CPU time across windows, 8-iteration ones 9%. */
constexpr int sharded_iters = 8;

std::unique_ptr<Workload>
make_halo_workload(std::uint64_t seed, int threads, bool deterministic,
                   int iters)
{
    HaloSpec spec;
    spec.iters = iters;
    auto in = std::make_shared<HaloInput>(make_halo(spec, seed));
    return std::make_unique<EmulatorWorkload>(
        machine_config(in->cells(), threads, deterministic),
        halo_ops(in->spec),
        [in](hw::Machine &m, SpanLog *spans, int parent) {
            return run_halo(m, *in, spans, parent);
        });
}

std::unique_ptr<Workload>
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "halo_put")
        return make_halo_workload(seed, 1, false, HaloSpec{}.iters);
    if (name == "halo_put_sharded")
        return make_halo_workload(seed, sharded_threads, false,
                                  sharded_iters);
    if (name == "transpose_get") {
        auto in = std::make_shared<TransposeInput>(
            make_transpose(TransposeSpec{}, seed));
        return std::make_unique<EmulatorWorkload>(
            machine_config(in->cells(), 1), transpose_ops(in->spec),
            [in](hw::Machine &m, SpanLog *spans, int parent) {
                return run_transpose(m, *in, spans, parent);
            });
    }
    if (name == "mlsim_replay")
        return std::make_unique<ReplayWorkload>(
            make_replay(replay_apps(), seed));
    return nullptr;
}

// -- one repetition ---------------------------------------------------------

struct Rep
{
    double setupS = 0.0;
    double runS = 0.0;
    double cpuS = 0.0;
    double sysS = 0.0;
    Outcome out;
};

Rep
run_rep(Workload &w, SpanLog *spans, sim::TickHistory *history = nullptr)
{
    Rep r;
    Scope rep(spans, "bench.rep");
    double t0 = now_s();
    w.setup(spans, rep.id());
    double t1 = now_s();
    CpuTimes c0 = cpu_now();
    r.out = w.run(spans, rep.id(), history);
    double t2 = now_s();
    CpuTimes c1 = cpu_now();
    r.setupS = t1 - t0;
    r.runS = t2 - t1;
    r.cpuS = (c1.user - c0.user) + (c1.sys - c0.sys);
    r.sysS = c1.sys - c0.sys;
    return r;
}

/** One untimed repetition, torn down. */
Outcome
run_once(Workload &w)
{
    Outcome o = run_rep(w, nullptr).out;
    w.teardown();
    return o;
}

// -- output -----------------------------------------------------------------

struct Metric
{
    double value;
    const char *unit;
};

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<std::pair<std::string, Metric>> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                  ", \"metrics\": {",
                  attempted, failed);
    s += buf;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].first.c_str(),
                      metrics[i].second.value, metrics[i].second.unit);
        s += buf;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

bool
parse(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans-out")
            a.spansOut = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/** Minimum measured repetitions per run, however long each takes. */
constexpr int min_reps = 3;

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parse(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--spans-out PATH]\n");
        return 2;
    }
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    pin_cpus(args.workload == "halo_put_sharded" ? sharded_threads : 1);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::printf("# workload %s seed %" PRIu64 ": %" PRIu64
                " ops per repetition\n",
                args.workload.c_str(), args.seed, w->ops());

    std::uint64_t attempted = 0, failed = 0;
    auto account = [&](const Outcome &o) {
        attempted += o.ops;
        failed += o.failed;
    };

    // Reference repetition: untimed; warms lazy set-up (image cache,
    // pools) and fixes the outputs every later repetition must match.
    sim::TickHistory history;
    Rep ref = run_rep(*w, nullptr, w->has_digest() ? &history : nullptr);
    w->teardown();
    std::printf("# reference: sim_us %.4f events %" PRIu64
                " data %016" PRIx64 " failed %" PRIu64 "\n",
                ref.out.simUs, ref.out.events, ref.out.dataHash,
                ref.out.failed);
    if (w->has_digest())
        std::printf("# tick digest %s\n", history.digest().c_str());

    Outcome expect = ref.out;
    bool exactTime = true;
    if (args.workload == "halo_put_sharded") {
        // The deterministic sharded kernel must reproduce the
        // sequential run exactly. The relaxed one, which is measured,
        // must reproduce its events and data but not its simulated
        // time: order-sensitive state shared by all cells (bus and
        // FIFO clamps) sees the cross-shard calls of one window in
        // thread order, and byte identity needs deterministic mode
        // (DESIGN.md §10).
        Outcome seq = run_once(
            *make_halo_workload(args.seed, 1, false, sharded_iters));
        Outcome det = run_once(*make_halo_workload(
            args.seed, sharded_threads, true, sharded_iters));
        account(seq);
        account(det);
        bool same = det.simUs == seq.simUs && det.events == seq.events &&
                    det.dataHash == seq.dataHash;
        std::printf("# sequential: sim_us %.4f events %" PRIu64
                    " data %016" PRIx64 "; deterministic sharded: "
                    "sim_us %.4f events %" PRIu64 " data %016" PRIx64
                    " -> %s\n",
                    seq.simUs, seq.events, seq.dataHash, det.simUs,
                    det.events, det.dataHash, same ? "match" : "MISMATCH");
        if (!same)
            failed += det.ops - det.failed;
        expect = seq;
        exactTime = false;
    }

    // Every repetition must reproduce the expected outputs; one that
    // does not fails all of its ops.
    auto check = [&](const Outcome &o) {
        account(o);
        if (o.events != expect.events || o.dataHash != expect.dataHash ||
            (exactTime && o.simUs != expect.simUs)) {
            std::printf("# repetition differs: sim_us %.4f events %" PRIu64
                        " data %016" PRIx64 "\n",
                        o.simUs, o.events, o.dataHash);
            failed += o.ops - o.failed;
        }
    };
    check(ref.out);

    const double ops = static_cast<double>(w->ops());
    std::vector<std::pair<std::string, Metric>> out;

    if (!args.trace) {
        // Peak RSS of the first measured repetition: resident memory
        // grows with each Machine a process builds, so a peak over a
        // time-bounded number of repetitions would move with speed.
        double rss = 0.0;
        std::vector<double> run, cpu, setup;
        double start = now_s();
        while (now_s() - start < args.seconds ||
               static_cast<int>(run.size()) < min_reps) {
            bool first = run.empty();
            if (first)
                reset_peak_rss();
            Rep r = run_rep(*w, nullptr);
            if (first)
                rss = peak_rss_mb();
            w->teardown();
            check(r.out);
            run.push_back(r.runS);
            cpu.push_back(r.cpuS);
            setup.push_back(r.setupS);
        }
        std::printf("# %zu repetitions: run_s min %.6f median %.6f, "
                    "cpu_s min %.6f median %.6f\n",
                    run.size(), fastest(run), median(run), fastest(cpu),
                    median(cpu));
        double success = 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted);
        out = {{"ops_per_s", {ops / fastest(run), "1/s"}},
               {"cpu_s", {fastest(cpu), "s"}},
               {"setup_s", {median(setup), "s"}},
               {"rss_mb", {rss, "MB"}},
               {"sim_us", {expect.simUs, "us"}},
               {"success_rate", {success, "ratio"}}};
        print_result(failed == 0, attempted, failed, out);
        return 0;
    }

    // Traced run: alternate untraced and traced repetitions so host
    // drift hits both alike; the traced ones record spans and read the
    // layer counters.
    SpanLog spans;
    std::map<std::string, double> layer;
    std::vector<double> plain, traced, sys;
    std::vector<double> callCount(call_count, 0.0), callUs(call_count, 0.0);
    double start = now_s();
    while (now_s() - start < args.seconds ||
           static_cast<int>(traced.size()) < min_reps) {
        Rep r = run_rep(*w, nullptr);
        w->teardown();
        check(r.out);
        plain.push_back(r.runS);
        sys.push_back(r.sysS);

        spans.clear_sims();
        Rep t = run_rep(*w, &spans);
        check(t.out);
        traced.push_back(t.runS);
        layer.clear();
        w->layers(t.out, layer, &spans);
        w->teardown();
    }
    // Per-call simulated time from the last traced repetition's spans.
    for (const std::vector<SimSpan> &cell : spans.sims()) {
        for (const SimSpan &s : cell) {
            for (int c = 0; c < call_count; ++c) {
                if (std::strcmp(s.name, call_name(static_cast<Call>(c))))
                    continue;
                callCount[static_cast<std::size_t>(c)] += 1.0;
                callUs[static_cast<std::size_t>(c)] += s.endUs - s.startUs;
            }
        }
    }

    obs::CritPathReport cp;
    Outcome cpOut;
    bool haveCp = w->critpath(cp, cpOut);
    if (haveCp)
        check(cpOut);

    std::vector<double> eventNs, switchNs;
    {
        Scope s(&spans, "probe.sim_event");
        for (int i = 0; i < 5; ++i)
            eventNs.push_back(probe_event_ns(200000));
    }
    {
        Scope s(&spans, "probe.fiber_switch");
        for (int i = 0; i < 5; ++i)
            switchNs.push_back(probe_switch_ns(50000));
    }

    auto add = [&](const std::string &name, double v, const char *unit) {
        out.push_back({name, {v, unit}});
    };
    auto get = [&](const std::string &name) {
        auto it = layer.find(name);
        return it == layer.end() ? 0.0 : it->second;
    };
    // sim
    add("sim.events", get("sim.events"), "count");
    add("sim.events_per_op", get("sim.events_per_op"), "ratio");
    add("sim.event_ns", median(eventNs), "ns");
    add("sim.alloc.pool_miss", get("sim.alloc.pool_miss"), "count");
    add("sim.alloc.fn_heap", get("sim.alloc.fn_heap"), "count");
    add("sim.alloc.payload_miss", get("sim.alloc.payload_miss"), "count");
    // fiber
    add("fiber.switch_ns", median(switchNs), "ns");
    add("host.sys_s", median(sys), "s");
    // shardq
    add("shardq.windows", get("shardq.windows"), "count");
    add("shardq.events_per_window", get("shardq.events_per_window"),
        "ratio");
    add("shardq.barrier_wait_ms", get("shardq.barrier_wait_ms"), "ms");
    add("shardq.imbalance", get("shardq.imbalance"), "ratio");
    // core
    for (int c = 0; c < call_count; ++c) {
        std::string base = std::string("core.") +
                           call_name(static_cast<Call>(c));
        double n = callCount[static_cast<std::size_t>(c)];
        add(base + ".calls", n, "count");
        add(base + ".sim_us_mean",
            n > 0 ? callUs[static_cast<std::size_t>(c)] / n : 0.0, "us");
    }
    add("core.blocked_frac", get("core.blocked_frac"), "ratio");
    add("core.run_spmd_s", median(spans.durations("core.run_spmd")), "s");
    // hw
    for (const char *name :
         {"msc.commands", "msc.spills", "msc.get_replies"})
        add(name, get(name), "count");
    add("msc.cmd_latency_us_mean", get("msc.cmd_latency_us_mean"), "us");
    for (const char *name :
         {"mc.flag_increments", "mmu.tlb_misses", "ring.deposits",
          "ring.in_place_reads", "ring.copies"})
        add(name, get(name), "count");
    add("hw.machine_ctor_s", median(spans.durations("hw.machine_ctor")),
        "s");
    // net
    add("tnet.messages", get("tnet.messages"), "count");
    add("tnet.mean_hops", get("tnet.mean_hops"), "hops");
    add("tnet.latency_us_mean", get("tnet.latency_us_mean"), "us");
    add("snet.episodes", get("snet.episodes"), "count");
    // obs
    add("obs.spans_recorded", get("obs.spans_recorded"), "count");
    add("obs.stats_json_ms",
        1e3 * median(spans.durations("obs.stats_json")), "ms");
    for (int st = 0; st < ap::obs::span_stage_count; ++st) {
        double share = 0.0;
        if (haveCp && cp.attributedTicks > 0)
            share = static_cast<double>(
                        cp.stages[static_cast<std::size_t>(st)].busyTicks) /
                    static_cast<double>(cp.attributedTicks);
        add(std::string("critpath.") +
                obs::to_string(static_cast<obs::SpanStage>(st)) + ".share",
            share, "ratio");
    }
    // mlsim + apps
    double replayS = 0.0, msgs = 0.0;
    for (const std::string &app : replay_apps()) {
        std::vector<double> rs, gs;
        for (const HostSpan &s : spans.host()) {
            if (s.detail != app)
                continue;
            if (!std::strcmp(s.name, "mlsim.replay"))
                rs.push_back(s.end - s.start);
            else if (!std::strcmp(s.name, "apps.generate"))
                gs.push_back(s.end - s.start);
        }
        std::string key = metric_name(app);
        double m = get("mlsim." + key + ".messages");
        replayS += median(rs);
        msgs += m;
        add("mlsim." + key + ".replay_s", median(rs), "s");
        add("mlsim." + key + ".messages", m, "count");
        add("apps." + key + ".generate_s", median(gs), "s");
    }
    add("mlsim.ns_per_msg", msgs > 0 ? replayS * 1e9 / msgs : 0.0, "ns");
    // Traced over untraced time of the fastest repetitions, i.e. the
    // untraced over the traced ops_per_s.
    add("bench.trace_overhead", fastest(traced) / fastest(plain), "ratio");

    if (!args.spansOut.empty() && !spans.write_json(args.spansOut)) {
        std::fprintf(stderr, "cannot write %s\n", args.spansOut.c_str());
        return 1;
    }
    std::printf("# %zu untraced + %zu traced repetitions\n", plain.size(),
                traced.size());
    print_result(failed == 0, attempted, failed, out);
    return 0;
}
