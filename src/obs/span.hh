/**
 * @file
 * Causal message-lifecycle spans.
 *
 * The paper's central claim is a latency breakdown (Figs. 7-8): a PUT
 * is 8 user-level stores, then MSC+ queueing, DMA send, T-net
 * transit, receive DMA and the flag update. The stats registry
 * (obs/stats_registry.hh) aggregates those stages machine-wide but
 * cannot say which stage dominated *one* transfer. This layer can:
 * every PUT/GET/SEND/broadcast gets a
 * machine-unique trace id stamped at command issue and propagated
 * through the MSC+ queues, the DMA engines, the network envelopes
 * (retransmits become child spans) and the GET reply, producing a
 * span set per operation with begin/end ticks per stage.
 *
 * The same stream carries *marks* (SpanMark): events outside the
 * pipeline — injected faults, queue spills and refills, waits,
 * collectives, job attempts, kernel windows — recorded by the same
 * probes, into the same rings and log. It is the machine's one trace
 * pipeline; `--trace-out` is the full log rendered as Chrome JSON and
 * `--debug-flags` narrates selected events to stderr as they land.
 *
 * Three modes:
 *  - off:    no ids, no events, probes cost one predictable branch;
 *  - flight: the default. Events land only in per-cell bounded rings
 *            (the flight recorder, obs/flight.hh) — a POD store into
 *            a preallocated array, cheap enough to leave on always;
 *  - full:   events are additionally appended to an in-order log the
 *            critical-path profiler (obs/critpath.hh) consumes.
 *
 * SpanEvent is deliberately POD (no strings, no allocation) so the
 * always-on flight path stays near-zero overhead; bench_trace_overhead
 * guards that budget in CI.
 */

#ifndef AP_OBS_SPAN_HH
#define AP_OBS_SPAN_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/flight.hh"

namespace ap::obs
{

/** Recording mode of the span layer. */
enum class SpanMode : std::uint8_t
{
    off,    ///< no ids allocated, no events recorded
    flight, ///< per-cell flight-recorder rings only (default)
    full,   ///< rings plus the full in-order event log
};

const char *to_string(SpanMode mode);

/** Pipeline stage one span event describes. */
enum class SpanStage : std::uint8_t
{
    issue,        ///< processor stores the 8 command words
    queue,        ///< command parked in an MSC+ queue
    dma_send,     ///< send DMA setup + payload gather/stream
    net,          ///< T-net/B-net flight (inject to arrive)
    dma_recv,     ///< receive DMA (incl. waiting for the engine)
    flag,         ///< MC flag update completing the transfer
    ring_deposit, ///< SEND landed in the receive ring buffer
    ring_receive, ///< buffered SEND waited for its RECEIVE
    retransmit,   ///< reliable-layer go-back-N resend (child span)
    barrier,      ///< S-net episode: first arrival to release
    barrier_wait, ///< parallel-kernel shard idle at a window barrier
};

constexpr int span_stage_count = 11;

const char *to_string(SpanStage stage);

/** Operation kind, stamped on the issue-stage event of a trace. */
enum class SpanOp : std::uint8_t
{
    none, ///< interior event; the trace's op comes from its issue
    put,
    get,
    send,
    ack, ///< PUT-acknowledge probe (GET to address 0)
    remote_store,
    remote_load,
    bcast,
    barrier,
};

constexpr int span_op_count = 9;

const char *to_string(SpanOp op);

/**
 * Non-pipeline event a SpanEvent may carry instead of a stage. Marks
 * are shown by the flight recorder and the Chrome export (an instant
 * when begin == end) but never enter critical-path attribution.
 */
enum class SpanMark : std::uint8_t
{
    none,         ///< a pipeline stage event (the common case)
    drop,         ///< fault injector dropped a T-net message
    duplicate,    ///< ... delivered it twice
    reorder,      ///< ... held it back past later traffic
    corrupt,      ///< ... flipped a payload byte
    page_fault,   ///< injected page fault during transfer DMA
    forced_spill, ///< injected queue overflow
    spill,        ///< command queue spilled to DRAM
    refill,       ///< refill interrupt reloaded a queue
    local_fault,  ///< send-side fault: command dropped
    remote_fault, ///< receive-side fault: message flushed
    cell_kill,    ///< fault plan killed the cell
    ring_grow,    ///< receive ring buffer doubled
    wait_flag,    ///< processor blocked in wait_flag
    wait_acks,    ///< processor blocked in wait_all_acks
    coll_barrier, ///< collective calls, entry to return
    coll_allreduce,
    coll_barrier_group,
    coll_allreduce_group,
    coll_allreduce_vector,
    movewait,     ///< runtime MOVEWAIT, entry to return
    job,          ///< serve job attempt (aux = job id)
    window,       ///< kernel window, one shard's busy part (aux = shard)
    checksum_drop, ///< reliable layer dropped a corrupted message
    dup_drop,     ///< reliable layer dropped a duplicate message
    flag_fault,   ///< MC flag update hit an unmapped page
};

constexpr int span_mark_count =
    static_cast<int>(SpanMark::flag_fault) + 1;

const char *to_string(SpanMark mark);

/**
 * One recorded lifecycle event. POD on purpose: the flight recorder
 * stores these by value in a preallocated ring and the record path
 * must not allocate.
 */
struct SpanEvent
{
    std::uint64_t traceId = 0; ///< machine-unique operation id
    Tick begin = 0;
    Tick end = 0;
    std::int32_t cell = -1; ///< owning cell; -1 = machine-wide
    SpanStage stage = SpanStage::issue; ///< meaningless on marks
    SpanOp op = SpanOp::none; ///< set on issue-stage events only
    SpanMark mark = SpanMark::none; ///< none = a stage event
    /** Stage- or mark-specific detail: retransmit try count, 1 for a
     *  net span whose message was dropped in flight, barrier_wait
     *  events, job id, window shard. */
    std::uint32_t aux = 0;
};

// The mark rides in the padding after `op`: the flight rings keep
// their size.
static_assert(sizeof(SpanEvent) == 40);

inline SpanEvent &
FlightRecorder::next_slot()
{
    ++count;
    if (ring.size() < cap)
        return ring.emplace_back();
    SpanEvent &slot = ring[head];
    head = head + 1 == cap ? 0 : head + 1;
    return slot;
}

/** Display name of @p ev: its mark, or its stage for stage events. */
const char *event_name(const SpanEvent &ev);

/** Render @p events as Chrome trace_event JSON (one thread per
 *  cell; complete "X" events, marks with begin == end as instant "i"
 *  events; trace id and op in args). */
std::string span_chrome_json(const std::vector<SpanEvent> &events);

/**
 * Live narration (`--debug-flags=spill,refill`): a process-wide mask
 * of event names. SpanLayer writes every recorded event whose name is
 * selected to stderr as one flight_line(). Stage s is bit s; mark m
 * is bit span_stage_count + m - 1.
 */
constexpr std::uint64_t
narration_bit(SpanStage stage)
{
    return std::uint64_t{1} << static_cast<int>(stage);
}

constexpr std::uint64_t
narration_bit(SpanMark mark)
{
    return std::uint64_t{1}
           << (span_stage_count + static_cast<int>(mark) - 1);
}

static_assert(span_stage_count + span_mark_count - 1 <= 64);

/** The narration mask; tested inline on every recorded event.
 *  Relaxed: it is set before a run and only read while shards
 *  record. */
extern std::atomic<std::uint64_t> narrationMask;

/** The narration mask (0, the default, narrates nothing). */
inline std::uint64_t
narration_mask()
{
    return narrationMask.load(std::memory_order_relaxed);
}

/** Replace the narration mask. */
void set_narration_mask(std::uint64_t mask);

/**
 * OR the events named in the comma-separated @p csv into @p mask.
 * Names are the stage and mark names (to_string), case-insensitive;
 * "All" selects every event. @return false on an unknown name, with
 * it and the valid names in @p err when non-null.
 */
bool parse_event_names(const std::string &csv, std::uint64_t &mask,
                       std::string *err = nullptr);

/**
 * The machine-wide span recorder. Owned by hw::Machine; hardware
 * components hold a pointer and guard every probe with a null check
 * plus on(). Trace ids come from one central counter so an id is
 * unique machine-wide and an event stream from any cell can be
 * grouped by operation.
 */
class SpanLayer
{
  public:
    /** Bound on the full-mode event log (events beyond it drop). */
    static constexpr std::size_t default_full_capacity = 1 << 20;

    /**
     * @param cells machine size (rings are per cell plus one
     *              machine-wide ring for cell id -1)
     * @param flightCapacity per-cell flight-recorder bound, events
     * @param shared  events arrive from several host threads (the
     *                sharded kernel): lock each ring around a push
     *                and mint trace ids atomically
     */
    SpanLayer(int cells, std::size_t flightCapacity,
              bool shared = true);

    SpanMode mode() const { return mode_; }
    void set_mode(SpanMode mode) { mode_ = mode; }

    /** @return true when events are being recorded at all. */
    bool on() const { return mode_ != SpanMode::off; }

    /** Allocate a machine-unique trace id; 0 while off. Atomic when
     *  shared: cells on different shards mint ids concurrently. */
    std::uint64_t
    new_trace()
    {
        if (!on())
            return 0;
        if (shared)
            return lastTrace.fetch_add(1, std::memory_order_relaxed) +
                   1;
        std::uint64_t id = lastTrace.load(std::memory_order_relaxed) + 1;
        lastTrace.store(id, std::memory_order_relaxed);
        return id;
    }

    /**
     * Record one lifecycle event. No-op while off or for traceId 0
     * (an id allocated while the layer was off). Flight mode stores
     * into the owning cell's ring only; full mode also appends to
     * the in-order log.
     */
    void
    record(std::int32_t cell, std::uint64_t traceId, SpanStage stage,
           Tick begin, Tick end, SpanOp op = SpanOp::none,
           std::uint32_t aux = 0)
    {
        if (mode_ != SpanMode::off && traceId != 0)
            push(cell, traceId, stage, SpanMark::none, op, begin, end,
                 aux);
    }

    /**
     * Record mark @p m over [begin, end] (begin == end: an instant)
     * on the record() path. @p traceId ties the mark to the message
     * it concerns; 0 takes a fresh id.
     */
    void mark(std::int32_t cell, SpanMark m, Tick begin, Tick end,
              std::uint64_t traceId = 0, std::uint32_t aux = 0);

    /** Events recorded since construction (all modes). */
    std::uint64_t recorded() const;

    /** The full-mode in-order log (empty unless mode was full). */
    const std::vector<SpanEvent> &events() const { return fullLog; }

    /** Full-log events dropped at the capacity bound. */
    std::uint64_t full_dropped() const { return fullDropped; }

    /** The flight ring of @p cell (-1 = the machine-wide ring). */
    const FlightRecorder &flight(std::int32_t cell) const;

    /**
     * Merged snapshot of every flight ring, ordered by begin tick —
     * the postmortem view: the last N events each cell saw.
     * @p maxPerCell 0 keeps whole rings.
     */
    std::vector<SpanEvent>
    flight_events(std::size_t maxPerCell = 0) const;

  private:
    /**
     * Every event's way into the sinks. The common case — one host
     * thread, flight mode, no narration — writes the fields straight
     * into the cell's ring slot: copying a just-built SpanEvent
     * stalls on store forwarding. Everything else is push_slow().
     */
    void
    push(std::int32_t cell, std::uint64_t traceId, SpanStage stage,
         SpanMark mark, SpanOp op, Tick begin, Tick end,
         std::uint32_t aux)
    {
        if (shared || mode_ == SpanMode::full || narration_mask() != 0)
            [[unlikely]] {
            push_slow({traceId, begin, end, cell, stage, op, mark, aux});
            return;
        }
        SpanEvent &ev = rings[ring_index(cell)].next_slot();
        ev.traceId = traceId;
        ev.begin = begin;
        ev.end = end;
        ev.cell = cell;
        ev.stage = stage;
        ev.op = op;
        ev.mark = mark;
        ev.aux = aux;
    }

    /** Narrate @p ev, then store it under the ring lock when shared
     *  and append it to the full log in full mode. */
    void push_slow(const SpanEvent &ev);

    /** Ring of @p cell; an out-of-range track lands on the machine
     *  ring. */
    std::size_t
    ring_index(std::int32_t cell) const
    {
        std::size_t idx = static_cast<std::size_t>(cell + 1);
        return idx < rings.size() ? idx : 0;
    }

    SpanMode mode_ = SpanMode::flight;
    std::atomic<std::uint64_t> lastTrace{0};
    std::uint64_t fullDropped = 0;
    std::size_t fullCapacity = default_full_capacity;
    /** Guards the full-mode log (appended from every shard). */
    mutable std::mutex fullMutex;
    std::vector<SpanEvent> fullLog;
    /** index 0 = machine-wide (-1), index i+1 = cell i. */
    std::vector<FlightRecorder> rings;
    /** One lock per ring: a cell's ring is fed by its own shard AND
     *  by remote senders recording net spans at the destination. */
    std::unique_ptr<std::mutex[]> ringLocks;
    /** Constructor's @p shared; false on a one-thread kernel. */
    bool shared;
};

} // namespace ap::obs

#endif // AP_OBS_SPAN_HH
