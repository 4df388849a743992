#include "obs/flight.hh"

#include "base/logging.hh"
#include "obs/span.hh"

namespace ap::obs
{

FlightRecorder::FlightRecorder(std::size_t capacity)
    : cap(capacity == 0 ? 1 : capacity)
{
    ring.reserve(cap);
}

void
FlightRecorder::push(const SpanEvent &ev)
{
    next_slot() = ev;
}

std::size_t
FlightRecorder::size() const
{
    return ring.size();
}

std::uint64_t
FlightRecorder::dropped() const
{
    return count - ring.size();
}

std::vector<SpanEvent>
FlightRecorder::snapshot(std::size_t maxEvents) const
{
    std::vector<SpanEvent> out;
    out.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    if (maxEvents != 0 && out.size() > maxEvents)
        out.erase(out.begin(),
                  out.end() - static_cast<std::ptrdiff_t>(maxEvents));
    return out;
}

std::string
flight_line(const SpanEvent &ev)
{
    std::string out = strprintf(
        "t=[%.2f, %.2f] us  cell %-3d %-12s trace %llu",
        ticks_to_us(ev.begin), ticks_to_us(ev.end), ev.cell,
        event_name(ev), static_cast<unsigned long long>(ev.traceId));
    if (ev.op != SpanOp::none)
        out += strprintf(" op=%s", to_string(ev.op));
    if (ev.aux != 0)
        out += strprintf(" aux=%u", ev.aux);
    return out;
}

std::string
flight_text(const std::vector<SpanEvent> &events)
{
    if (events.empty())
        return "  (no span events recorded)\n";
    std::string out;
    for (const SpanEvent &ev : events)
        out += "  " + flight_line(ev) + "\n";
    return out;
}

} // namespace ap::obs
