#include "spans.hh"

#include <cstdio>
#include <fstream>

namespace perfbench
{

namespace
{

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

SpanLog::SpanLog() : origin(std::chrono::steady_clock::now()) {}

void
SpanLog::set_cells(int cells)
{
    if (static_cast<int>(simSpans.size()) < cells)
        simSpans.resize(static_cast<std::size_t>(cells));
}

int
SpanLog::open(const char *name, int parent, std::string detail)
{
    double t = seconds_since(origin);
    hostSpans.push_back({name, std::move(detail), t, t, parent});
    return static_cast<int>(hostSpans.size()) - 1;
}

void
SpanLog::close(int id)
{
    hostSpans[static_cast<std::size_t>(id)].end = seconds_since(origin);
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const HostSpan &s : hostSpans)
        if (name == s.name)
            out.push_back(s.end - s.start);
    return out;
}

bool
SpanLog::write_json(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    char buf[256];
    os << "{\"host\":[";
    for (std::size_t i = 0; i < hostSpans.size(); ++i) {
        const HostSpan &s = hostSpans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"id\":%zu,\"name\":\"%s\",\"detail\":\"%s\","
                      "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}",
                      i ? "," : "", i, s.name, s.detail.c_str(), s.start,
                      s.end, s.parent);
        os << buf;
    }
    os << "],\n\"sim\":[";
    bool first = true;
    for (std::size_t c = 0; c < simSpans.size(); ++c) {
        for (const SimSpan &s : simSpans[c]) {
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"cell\":%zu,\"name\":\"%s\","
                          "\"start_us\":%.4f,\"end_us\":%.4f,"
                          "\"parent\":%d}",
                          first ? "" : ",", c, s.name, s.startUs,
                          s.endUs, s.parent);
            os << buf;
            first = false;
        }
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
