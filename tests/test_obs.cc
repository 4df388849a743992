/**
 * @file
 * Telemetry-layer tests: JSON emitter/validator, the stats registry
 * (paths, pattern queries, subtree removal, dumps), --debug-flags
 * narration over the span stream, and the end-to-end span stream of
 * a two-cell PUT program.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "base/logging.hh"
#include "core/ap1000p.hh"
#include "obs/cli.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"
#include "obs/span.hh"
#include "runtime/rts.hh"

using namespace ap;
using namespace ap::obs;

// ------------------------------------------------------------------- json

TEST(Json, DottedPathsNest)
{
    JsonTree t;
    t.set("a.b.x", std::uint64_t{1});
    t.set("a.b.y", 2.5);
    t.set_string("a.name", "hi \"there\"\n");
    std::string out = t.render(false);
    std::string err;
    EXPECT_TRUE(json_valid(out, &err)) << err;
    EXPECT_NE(out.find("\"x\": 1"), std::string::npos);
    EXPECT_NE(out.find("\\\"there\\\"\\n"), std::string::npos);
}

TEST(Json, ValidatorAcceptsAndRejects)
{
    EXPECT_TRUE(json_valid("{\"a\": [1, 2.5, -3e2, true, null]}"));
    EXPECT_TRUE(json_valid("[]"));
    std::string err;
    EXPECT_FALSE(json_valid("{\"a\": }", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(json_valid("{\"a\": 1} trailing"));
    EXPECT_FALSE(json_valid("{'a': 1}"));
    EXPECT_FALSE(json_valid(""));
}

// --------------------------------------------------------------- registry

TEST(StatsRegistry, PatternQueriesAndRemoval)
{
    StatsRegistry r;
    std::uint64_t a = 3, b = 7, other = 100;
    r.add_counter("cell0.msc.puts_sent", &a);
    r.add_counter("cell1.msc.puts_sent", &b);
    r.add_counter("cell1.mc.loads", &other);
    Histogram h;
    h.sample(4);
    r.add_histogram("cell0.msc.latency", &h);
    r.add_gauge("machine.level", [] { return std::uint64_t{9}; });

    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r.value("cell0.msc.puts_sent"), 3u);
    EXPECT_EQ(r.value("cell0.msc.latency"), 1u); // histogram count
    EXPECT_EQ(r.value("no.such.path"), 0u);
    EXPECT_EQ(r.sum("*.msc.puts_sent"), 10u);
    EXPECT_EQ(r.sum("*.*.puts_sent"), 10u);
    EXPECT_EQ(r.sum("*.puts_sent"), 0u); // '*' is one segment

    std::string who;
    EXPECT_EQ(r.max_over("*.msc.puts_sent", &who), 7u);
    EXPECT_EQ(who, "cell1.msc.puts_sent");

    b = 11; // entries read live values
    EXPECT_EQ(r.value("cell1.msc.puts_sent"), 11u);

    r.remove_prefix("cell1.");
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.find("cell1.msc.puts_sent"), nullptr);
    EXPECT_NE(r.find("cell0.msc.puts_sent"), nullptr);
}

TEST(StatsRegistry, SnapshotDiffReportsOnlyChange)
{
    StatsRegistry r;
    std::uint64_t puts = 3, gets = 5;
    r.add_counter("cell0.msc.puts_sent", &puts);
    r.add_counter("cell0.msc.gets_sent", &gets);

    StatsRegistry::Snapshot before = r.snapshot();
    EXPECT_EQ(before.at("cell0.msc.puts_sent"), 3u);

    puts = 10; // +7
    std::uint64_t late = 2;
    r.add_counter("cell0.msc.late", &late); // born after the snapshot

    std::map<std::string, std::int64_t> d = r.delta_since(before);
    EXPECT_EQ(d.at("cell0.msc.puts_sent"), 7);
    EXPECT_EQ(d.at("cell0.msc.gets_sent"), 0);
    EXPECT_EQ(d.at("cell0.msc.late"), 2); // counts from zero

    std::string text = StatsRegistry::delta_text(d);
    EXPECT_NE(text.find("puts_sent"), std::string::npos);
    EXPECT_NE(text.find("+7"), std::string::npos);
    // Zero rows are dropped from the table.
    EXPECT_EQ(text.find("gets_sent"), std::string::npos);
    // Largest magnitude first, and maxRows cuts with a marker.
    std::string one = StatsRegistry::delta_text(d, 1);
    EXPECT_NE(one.find("puts_sent"), std::string::npos);
    EXPECT_NE(one.find("more)"), std::string::npos);
    EXPECT_EQ(StatsRegistry::delta_text({}).find("(no change)"), 0u);
}

TEST(StatsRegistry, DumpsAreWellFormed)
{
    StatsRegistry r;
    std::uint64_t v = 42;
    r.add_counter("cell0.msc.puts_sent", &v);
    Histogram h;
    h.sample(3);
    h.sample(100);
    r.add_histogram("cell0.msc.sizes", &h);

    std::string err;
    EXPECT_TRUE(json_valid(r.dump_json(true), &err)) << err;
    EXPECT_TRUE(json_valid(r.dump_json(false), &err)) << err;
    EXPECT_NE(r.dump_json().find("\"puts_sent\""),
              std::string::npos);

    std::string text = r.dump_text();
    EXPECT_NE(text.find("cell0.msc.puts_sent"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(StatsRegistry, RuntimeRegistersAndUnregistersItsSubtree)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    hw::Machine m(cfg);

    bool seenWhileAlive = false;
    core::run_spmd(m, [&](core::Context &ctx) {
        {
            rt::Runtime rts(ctx);
            if (ctx.id() == 0)
                seenWhileAlive =
                    ctx.owner().stats_registry().find(
                        "cell0.rts.puts_issued") != nullptr;
            ctx.barrier();
        }
        ctx.barrier();
    });
    EXPECT_TRUE(seenWhileAlive);
    EXPECT_EQ(m.stats_registry().find("cell0.rts.puts_issued"),
              nullptr);
    EXPECT_EQ(m.stats_registry().find("cell1.rts.puts_issued"),
              nullptr);
}

// -------------------------------------------------------------- narration

namespace
{

/** Restore a clean narration mask around every --debug-flags test. */
struct MaskReset
{
    ~MaskReset() { set_narration_mask(0); }
};

/** The narration lines (flight_line format) of captured stderr. */
std::vector<std::string>
narrated_lines(const std::string &err)
{
    std::vector<std::string> out;
    std::istringstream in(err);
    for (std::string line; std::getline(in, line);)
        if (line.rfind("t=[", 0) == 0)
            out.push_back(line);
    return out;
}

/** Narration lines naming event @p name for cell @p cell. */
std::size_t
count_lines(const std::vector<std::string> &lines, int cell,
            const char *name)
{
    std::string key = strprintf("cell %-3d %-12s ", cell, name);
    std::size_t n = 0;
    for (const std::string &l : lines)
        n += l.find(key) != std::string::npos;
    return n;
}

} // namespace

TEST(Narration, EveryEventNameParsesToItsOwnBit)
{
    std::set<std::string> seen;
    std::uint64_t all = 0;
    auto check = [&](const char *name, std::uint64_t bit) {
        EXPECT_STRNE(name, "?");
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
        EXPECT_EQ(all & bit, 0u) << "shared bit: " << name;
        all |= bit;
        std::uint64_t mask = 0;
        EXPECT_TRUE(parse_event_names(name, mask)) << name;
        EXPECT_EQ(mask, bit) << name;
    };
    for (int i = 0; i < span_stage_count; ++i) {
        auto st = static_cast<SpanStage>(i);
        check(to_string(st), narration_bit(st));
    }
    for (int i = 1; i < span_mark_count; ++i) {
        auto mk = static_cast<SpanMark>(i);
        check(to_string(mk), narration_bit(mk));
    }

    std::uint64_t mask = 0;
    EXPECT_TRUE(parse_event_names("All", mask));
    EXPECT_EQ(mask, all);
    mask = 0;
    EXPECT_TRUE(parse_event_names("SPILL,Refill,", mask));
    EXPECT_EQ(mask, narration_bit(SpanMark::spill) |
                        narration_bit(SpanMark::refill));

    std::string err;
    EXPECT_FALSE(parse_event_names("spill,bogus", mask, &err));
    EXPECT_NE(err.find("'bogus'"), std::string::npos) << err;
    EXPECT_NE(err.find("flag_fault"), std::string::npos) << err;
    EXPECT_FALSE(parse_event_names("none", mask));
    EXPECT_FALSE(parse_event_names("MSC", mask));
}

TEST(Narration, OverflowRunNarratesExactlyTheSelectedMarks)
{
    MaskReset reset;
    std::uint64_t mask = 0;
    ASSERT_TRUE(parse_event_names("spill,refill", mask));
    set_narration_mask(mask);

    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    cfg.faults = sim::FaultPlan::overflows(11, 1.0);
    hw::Machine m(cfg);
    testing::internal::CaptureStderr();
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(64);
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, flag);
        else
            ctx.wait_flag(flag, 1);
    });
    std::vector<std::string> lines =
        narrated_lines(testing::internal::GetCapturedStderr());
    set_narration_mask(0);
    ASSERT_FALSE(r.failed());

    // Exactly the spill and refill events of the flight rings, line
    // for line: same cell, trace id and ticks, nothing else.
    std::uint64_t putTrace = 0;
    std::vector<std::string> want;
    for (const SpanEvent &e : m.spans().flight_events()) {
        if (e.op == SpanOp::put)
            putTrace = e.traceId;
        if (e.mark == SpanMark::spill || e.mark == SpanMark::refill)
            want.push_back(flight_line(e));
    }
    std::sort(want.begin(), want.end());
    std::vector<std::string> got = lines;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);

    EXPECT_GE(count_lines(lines, 0, "spill"), 1u);
    EXPECT_GE(count_lines(lines, 0, "refill"), 1u);
    EXPECT_EQ(count_lines(lines, 0, "forced_spill"), 0u);
    ASSERT_NE(putTrace, 0u);
    std::string putSpill =
        strprintf("cell 0   %-12s trace %llu", "spill",
                  static_cast<unsigned long long>(putTrace));
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                            [&](const std::string &l) {
                                return l.find(putSpill) !=
                                       std::string::npos;
                            }))
        << putSpill;
}

TEST(Narration, ReliableDropMarksMatchTheRnetCounters)
{
    MaskReset reset;
    std::uint64_t mask = 0;
    ASSERT_TRUE(parse_event_names("checksum_drop,dup_drop", mask));
    set_narration_mask(mask);

    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(4);
    cfg.memBytesPerCell = 1 << 20;
    cfg.reliableNet = true;
    cfg.faults.seed = 7;
    cfg.faults.corruptProb = 0.1;
    cfg.faults.dupProb = 0.1;
    hw::Machine m(cfg);
    testing::internal::CaptureStderr();
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr flag = ctx.alloc_flag();
        Addr buf = ctx.alloc(256);
        int next = (ctx.id() + 1) % 4;
        for (int i = 0; i < 32; ++i)
            ctx.put(next, buf, buf, 256, no_flag, flag);
        ctx.wait_flag(flag, 32);
    });
    std::vector<std::string> lines =
        narrated_lines(testing::internal::GetCapturedStderr());
    set_narration_mask(0);
    ASSERT_FALSE(r.failed());

    std::uint64_t checksum = 0, dup = 0;
    for (int c = 0; c < 4; ++c) {
        std::string p = strprintf("cell%d.rnet.", c);
        EXPECT_EQ(count_lines(lines, c, "checksum_drop"),
                  m.stats_registry().value(p + "checksum_drops"))
            << "cell " << c;
        EXPECT_EQ(count_lines(lines, c, "dup_drop"),
                  m.stats_registry().value(p + "dup_drops"))
            << "cell " << c;
        checksum += m.stats_registry().value(p + "checksum_drops");
        dup += m.stats_registry().value(p + "dup_drops");
    }
    EXPECT_GT(checksum, 0u);
    EXPECT_GT(dup, 0u);
    EXPECT_EQ(lines.size(), checksum + dup);
}

TEST(Narration, FlagFaultIsAMarkUnderThePutsTraceId)
{
    MaskReset reset;
    std::uint64_t mask = 0;
    ASSERT_TRUE(parse_event_names("flag_fault", mask));
    set_narration_mask(mask);

    // The PUT's data lands, but its receive flag sits on a page cell 1
    // unmapped: the MC flag update faults.
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    hw::Machine m(cfg);
    testing::internal::CaptureStderr();
    core::SpmdResult r = core::run_spmd(m, [&](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        if (ctx.id() == 1)
            ctx.cell().mc().mmu().unmap(0x80000);
        ctx.barrier();
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, 0x80000);
        ctx.barrier();
    });
    std::vector<std::string> lines =
        narrated_lines(testing::internal::GetCapturedStderr());
    set_narration_mask(0);
    ASSERT_FALSE(r.failed());
    ASSERT_EQ(m.stats_registry().value("cell1.mc.flag_faults"), 1u);

    std::uint64_t putTrace = 0;
    for (const SpanEvent &e : m.spans().flight(0).snapshot())
        if (e.op == SpanOp::put)
            putTrace = e.traceId;
    ASSERT_NE(putTrace, 0u);
    std::size_t marks = 0;
    for (const SpanEvent &e : m.spans().flight(1).snapshot())
        marks += e.mark == SpanMark::flag_fault && e.traceId == putTrace;
    EXPECT_EQ(marks, 1u);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find(strprintf(
                  "cell 1   %-12s trace %llu", "flag_fault",
                  static_cast<unsigned long long>(putTrace))),
              std::string::npos)
        << lines[0];
}

TEST(DebugFlags, ObsArgConsumption)
{
    MaskReset reset;
    ObsOptions opt;
    EXPECT_TRUE(consume_obs_arg("--stats-out=s.json", opt));
    EXPECT_TRUE(consume_obs_arg("--trace-out=t.json", opt));
    EXPECT_EQ(opt.statsOut, "s.json");
    EXPECT_EQ(opt.traceOut, "t.json");
    EXPECT_TRUE(opt.any());

    set_narration_mask(0);
    EXPECT_TRUE(consume_obs_arg("--debug-flags=Spill", opt));
    EXPECT_TRUE(consume_obs_arg("--debug-flags=net", opt));
    EXPECT_EQ(narration_mask(), narration_bit(SpanMark::spill) |
                                    narration_bit(SpanStage::net));

    EXPECT_FALSE(consume_obs_arg("--cells=4", opt));
    EXPECT_FALSE(consume_obs_arg("stray", opt));
}

// ------------------------------------------ end-to-end PUT span stream

TEST(SpanStream, TwoCellPutProducesThePipelineSpansInOrder)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(2);
    cfg.memBytesPerCell = 1 << 20;
    cfg.spanMode = SpanMode::full;
    hw::Machine m(cfg);

    auto r = core::run_spmd(m, [](core::Context &ctx) {
        Addr buf = ctx.alloc(64);
        Addr rf = ctx.alloc_flag();
        if (ctx.id() == 0)
            ctx.put(1, buf, buf, 64, no_flag, rf);
        if (ctx.id() == 1)
            ctx.wait_flag(rf, 1);
    });
    ASSERT_FALSE(r.deadlock);

    // Golden recording order of one flagged PUT: the issuing
    // processor stores the command, the MSC+ pops it and finishes
    // its gather DMA, the T-net flight is stamped at injection, then
    // the receiving MSC+ scatters it and raises the flag, and the
    // waiting processor's wait_flag mark closes last.
    std::vector<std::string> names;
    for (const SpanEvent &e : m.spans().events())
        names.push_back(event_name(e));
    std::vector<std::string> expect = {
        "issue",    "queue", "dma_send", "net",
        "dma_recv", "flag",  "wait_flag",
    };
    EXPECT_EQ(names, expect);
    EXPECT_EQ(m.spans().events().back().mark, SpanMark::wait_flag);
    EXPECT_EQ(m.spans().events().back().cell, 1);

    std::string path = testing::TempDir() + "ap_span_trace.json";
    ASSERT_TRUE(m.write_trace(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    EXPECT_TRUE(json_valid(ss.str(), &err)) << err;
    EXPECT_NE(ss.str().find("\"wait_flag\", \"cat\": \"mark\""),
              std::string::npos);
    std::remove(path.c_str());
}
