#include "obs/span.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::obs
{

const char *
to_string(SpanMode mode)
{
    switch (mode) {
      case SpanMode::off:
        return "off";
      case SpanMode::flight:
        return "flight";
      case SpanMode::full:
        return "full";
    }
    return "?";
}

const char *
to_string(SpanStage stage)
{
    switch (stage) {
      case SpanStage::issue:
        return "issue";
      case SpanStage::queue:
        return "queue";
      case SpanStage::dma_send:
        return "dma_send";
      case SpanStage::net:
        return "net";
      case SpanStage::dma_recv:
        return "dma_recv";
      case SpanStage::flag:
        return "flag";
      case SpanStage::ring_deposit:
        return "ring_deposit";
      case SpanStage::ring_receive:
        return "ring_receive";
      case SpanStage::retransmit:
        return "retransmit";
      case SpanStage::barrier:
        return "barrier";
      case SpanStage::barrier_wait:
        return "barrier_wait";
    }
    return "?";
}

const char *
to_string(SpanOp op)
{
    switch (op) {
      case SpanOp::none:
        return "none";
      case SpanOp::put:
        return "put";
      case SpanOp::get:
        return "get";
      case SpanOp::send:
        return "send";
      case SpanOp::ack:
        return "ack";
      case SpanOp::remote_store:
        return "remote_store";
      case SpanOp::remote_load:
        return "remote_load";
      case SpanOp::bcast:
        return "bcast";
      case SpanOp::barrier:
        return "barrier";
    }
    return "?";
}

const char *
to_string(SpanMark mark)
{
    switch (mark) {
      case SpanMark::none:
        return "none";
      case SpanMark::drop:
        return "drop";
      case SpanMark::duplicate:
        return "duplicate";
      case SpanMark::reorder:
        return "reorder";
      case SpanMark::corrupt:
        return "corrupt";
      case SpanMark::page_fault:
        return "page_fault";
      case SpanMark::forced_spill:
        return "forced_spill";
      case SpanMark::spill:
        return "spill";
      case SpanMark::refill:
        return "refill";
      case SpanMark::local_fault:
        return "local_fault";
      case SpanMark::remote_fault:
        return "remote_fault";
      case SpanMark::cell_kill:
        return "cell_kill";
      case SpanMark::ring_grow:
        return "ring_grow";
      case SpanMark::wait_flag:
        return "wait_flag";
      case SpanMark::wait_acks:
        return "wait_acks";
      case SpanMark::coll_barrier:
        return "coll_barrier";
      case SpanMark::coll_allreduce:
        return "coll_allreduce";
      case SpanMark::coll_barrier_group:
        return "coll_barrier_group";
      case SpanMark::coll_allreduce_group:
        return "coll_allreduce_group";
      case SpanMark::coll_allreduce_vector:
        return "coll_allreduce_vector";
      case SpanMark::movewait:
        return "movewait";
      case SpanMark::job:
        return "job";
      case SpanMark::window:
        return "window";
      case SpanMark::checksum_drop:
        return "checksum_drop";
      case SpanMark::dup_drop:
        return "dup_drop";
      case SpanMark::flag_fault:
        return "flag_fault";
    }
    return "?";
}

const char *
event_name(const SpanEvent &ev)
{
    return ev.mark != SpanMark::none ? to_string(ev.mark)
                                     : to_string(ev.stage);
}

namespace
{

std::string
lower(std::string s)
{
    for (char &c : s)
        if (c >= 'A' && c <= 'Z')
            c += 'a' - 'A';
    return s;
}

} // namespace

std::atomic<std::uint64_t> narrationMask{0};

void
set_narration_mask(std::uint64_t mask)
{
    narrationMask.store(mask, std::memory_order_relaxed);
}

bool
parse_event_names(const std::string &csv, std::uint64_t &mask,
                  std::string *err)
{
    // Every stage and mark name with its bit; "none" is not an event.
    std::vector<std::pair<const char *, std::uint64_t>> names;
    for (int s = 0; s < span_stage_count; ++s)
        names.emplace_back(to_string(static_cast<SpanStage>(s)),
                           narration_bit(static_cast<SpanStage>(s)));
    for (int m = 1; m < span_mark_count; ++m)
        names.emplace_back(to_string(static_cast<SpanMark>(m)),
                           narration_bit(static_cast<SpanMark>(m)));

    std::size_t at = 0;
    while (at <= csv.size()) {
        std::size_t comma = csv.find(',', at);
        std::string name = csv.substr(
            at, comma == std::string::npos ? comma : comma - at);
        at = comma == std::string::npos ? csv.size() + 1 : comma + 1;
        if (name.empty())
            continue;
        std::string want = lower(name);
        std::uint64_t bits = 0;
        for (const auto &[n, bit] : names)
            if (want == "all" || want == n)
                bits |= bit;
        if (bits == 0) {
            if (err) {
                *err = strprintf("unknown debug flag '%s' (valid:",
                                 name.c_str());
                for (const auto &[n, bit] : names)
                    *err += strprintf(" %s", n);
                *err += " All)";
            }
            return false;
        }
        mask |= bits;
    }
    return true;
}

SpanLayer::SpanLayer(int cells, std::size_t flightCapacity,
                     bool shared)
    : shared(shared)
{
    rings.reserve(static_cast<std::size_t>(cells) + 1);
    for (int i = 0; i < cells + 1; ++i)
        rings.emplace_back(flightCapacity);
    ringLocks =
        std::make_unique<std::mutex[]>(rings.size());
}

void
SpanLayer::mark(std::int32_t cell, SpanMark m, Tick begin, Tick end,
                std::uint64_t traceId, std::uint32_t aux)
{
    if (mode_ != SpanMode::off)
        push(cell, traceId != 0 ? traceId : new_trace(),
             SpanStage::issue, m, SpanOp::none, begin, end, aux);
}

void
SpanLayer::push_slow(const SpanEvent &ev)
{
    std::uint64_t mask = narration_mask();
    if (mask & (ev.mark != SpanMark::none ? narration_bit(ev.mark)
                                          : narration_bit(ev.stage))) {
        // One fputs per line: lines from concurrent shards never
        // interleave.
        std::string line = flight_line(ev) + "\n";
        std::fputs(line.c_str(), stderr);
    }

    std::size_t idx = ring_index(ev.cell);
    if (shared) {
        std::lock_guard<std::mutex> lock(ringLocks[idx]);
        rings[idx].push(ev);
    } else {
        rings[idx].push(ev);
    }

    if (mode_ == SpanMode::full) {
        std::lock_guard<std::mutex> lock(fullMutex);
        if (fullLog.size() < fullCapacity)
            fullLog.push_back(ev);
        else
            ++fullDropped;
    }
}

std::uint64_t
SpanLayer::recorded() const
{
    // Every event lands in exactly one ring, in every mode.
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::lock_guard<std::mutex> lock(ringLocks[i]);
        n += rings[i].total();
    }
    return n;
}

const FlightRecorder &
SpanLayer::flight(std::int32_t cell) const
{
    std::size_t idx = static_cast<std::size_t>(cell + 1);
    if (idx >= rings.size())
        panic("flight ring for cell %d outside machine of %zu cells",
              cell, rings.size() - 1);
    return rings[idx];
}

std::vector<SpanEvent>
SpanLayer::flight_events(std::size_t maxPerCell) const
{
    std::vector<SpanEvent> out;
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::lock_guard<std::mutex> lock(ringLocks[i]);
        std::vector<SpanEvent> part = rings[i].snapshot(maxPerCell);
        out.insert(out.end(), part.begin(), part.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         if (a.begin != b.begin)
                             return a.begin < b.begin;
                         return a.traceId < b.traceId;
                     });
    return out;
}

std::string
span_chrome_json(const std::vector<SpanEvent> &events)
{
    // One thread per cell, microsecond timestamps.
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;

    std::vector<std::int32_t> cells;
    for (const SpanEvent &ev : events)
        if (std::find(cells.begin(), cells.end(), ev.cell) ==
            cells.end())
            cells.push_back(ev.cell);
    std::sort(cells.begin(), cells.end());
    for (std::int32_t c : cells) {
        std::string name =
            c < 0 ? "machine" : strprintf("cell %d", c);
        if (!first)
            out += ",\n";
        first = false;
        out += strprintf(
            "  {\"name\": \"thread_name\", \"ph\": \"M\", "
            "\"pid\": 1, \"tid\": %d, \"args\": {\"name\": "
            "\"%s\"}}",
            c + 1, json_escape(name).c_str());
    }

    for (const SpanEvent &ev : events) {
        if (!first)
            out += ",\n";
        first = false;
        std::string args = strprintf(
            "{\"trace\": %llu",
            static_cast<unsigned long long>(ev.traceId));
        if (ev.op != SpanOp::none)
            args += strprintf(", \"op\": \"%s\"", to_string(ev.op));
        if (ev.aux != 0)
            args += strprintf(", \"aux\": %u", ev.aux);
        args += "}";
        bool isMark = ev.mark != SpanMark::none;
        std::string ts = json_number(ticks_to_us(ev.begin));
        if (isMark && ev.begin == ev.end)
            out += strprintf(
                "  {\"name\": \"%s\", \"cat\": \"mark\", "
                "\"ph\": \"i\", \"s\": \"t\", \"ts\": %s, "
                "\"pid\": 1, \"tid\": %d, \"args\": %s}",
                event_name(ev), ts.c_str(), ev.cell + 1, args.c_str());
        else
            out += strprintf(
                "  {\"name\": \"%s\", \"cat\": \"%s\", "
                "\"ph\": \"X\", \"ts\": %s, \"dur\": %s, "
                "\"pid\": 1, \"tid\": %d, \"args\": %s}",
                event_name(ev), isMark ? "mark" : "span", ts.c_str(),
                json_number(ticks_to_us(ev.end - ev.begin)).c_str(),
                ev.cell + 1, args.c_str());
    }
    out += "\n]}\n";
    return out;
}

} // namespace ap::obs
