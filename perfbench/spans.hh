/**
 * @file
 * The benchmark's own span recorder (traced runs only).
 *
 * Spans are recorded from the benchmark's files around its calls into
 * each layer's public functions; nothing is recorded inside the
 * program. Two clocks:
 *
 *  - host spans (seconds on std::chrono::steady_clock since the log
 *    was created) wrap calls made outside any fiber: Machine
 *    construction, run_spmd, App::generate, Replay::run, stats_json
 *    and the probes. Opened and closed on the main thread only.
 *  - sim spans (microseconds of simulated time) wrap each Context
 *    call a cell makes. A Context call parks its fiber, so a host
 *    clock around it would include other cells' work. Each cell
 *    appends to its own vector, so cells on different shard threads
 *    never share one.
 *
 * Spans stay in memory and are written out as JSON when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

/** One host-clock span. */
struct HostSpan
{
    const char *name = "";
    std::string detail;  ///< e.g. the app a replay span covers
    double start = 0.0;  ///< seconds since the log was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing host span
};

/** One simulated-clock span of a Context call. */
struct SimSpan
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1; ///< index of the host span (run_spmd) it ran under
};

class SpanLog
{
  public:
    SpanLog();

    /** Open a host span; @return its index. */
    int open(const char *name, int parent = -1, std::string detail = {});
    /** Close the host span @p id. */
    void close(int id);

    /** Record one Context call of @p cell (called from its fiber). */
    void
    sim(int cell, const char *name, double startUs, double endUs,
        int parent)
    {
        simSpans[static_cast<std::size_t>(cell)].push_back(
            {name, startUs, endUs, parent});
    }

    /** Size the per-cell sim vectors for a machine of @p cells. */
    void set_cells(int cells);

    /** Drop the sim spans (kept for the last traced repetition only,
     *  so the written log stays a few MB). */
    void
    clear_sims()
    {
        for (std::vector<SimSpan> &v : simSpans)
            v.clear();
    }

    const std::vector<HostSpan> &host() const { return hostSpans; }
    const std::vector<std::vector<SimSpan>> &sims() const
    {
        return simSpans;
    }

    /** Duration in seconds of every closed host span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as JSON. @return false on I/O error. */
    bool write_json(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin;
    std::vector<HostSpan> hostSpans;
    std::vector<std::vector<SimSpan>> simSpans;
};

/** RAII host span; a null log records nothing. */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, int parent = -1,
          std::string detail = {})
        : log(log), idx(log ? log->open(name, parent, std::move(detail))
                            : -1)
    {
    }
    ~Scope()
    {
        if (log)
            log->close(idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return idx; }

  private:
    SpanLog *log;
    int idx;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
