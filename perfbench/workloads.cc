#include "workloads.hh"

#include <cstring>
#include <span>

#include "apps/app.hh"
#include "core/context.hh"

namespace perfbench
{

using ap::Addr;
using ap::core::Context;
using ap::core::ReduceOp;

namespace
{

std::uint64_t
mix(std::uint64_t x)
{
    // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Seeded generator for peer orders (portable Fisher-Yates). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(mix(seed ^ 0x5eedULL)) {}
    std::uint64_t next() { return state = mix(state); }

    template <class T>
    void
    shuffle(T *first, std::size_t n)
    {
        for (std::size_t i = n; i > 1; --i)
            std::swap(first[i - 1], first[next() % i]);
    }

  private:
    std::uint64_t state;
};

std::uint64_t
fold(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return mix(h ^ bits);
}

/** Wraps each Context call in a sim-clock span when tracing. */
struct CallSpans
{
    SpanLog *spans;
    int parent;

    template <class F>
    void
    operator()(Context &ctx, Call c, F &&f) const
    {
        if (!spans) {
            f();
            return;
        }
        double t0 = ap::ticks_to_us(ctx.now());
        f();
        spans->sim(ctx.id(), call_name(c), t0, ap::ticks_to_us(ctx.now()),
                   parent);
    }
};

std::span<std::uint8_t>
bytes_of(std::vector<double> &v)
{
    return {reinterpret_cast<std::uint8_t *>(v.data()), v.size() * 8};
}

std::span<const std::uint8_t>
cbytes_of(const std::vector<double> &v)
{
    return {reinterpret_cast<const std::uint8_t *>(v.data()),
            v.size() * 8};
}

/** Per-cell results of one SPMD run, filled in by the cell bodies. */
struct CellResults
{
    explicit CellResults(int cells)
        : bad(static_cast<std::size_t>(cells)),
          hash(static_cast<std::size_t>(cells)),
          done(static_cast<std::size_t>(cells))
    {
    }
    std::vector<std::uint64_t> bad;   ///< data-check mismatches
    std::vector<std::uint64_t> hash;  ///< fold of received values
    std::vector<std::uint8_t> done;   ///< body returned normally
};

Outcome
finish(hw::Machine &m, const core::SpmdResult &res, const CellResults &cr,
       std::uint64_t ops)
{
    const std::size_t cells = cr.done.size();
    Outcome o;
    o.simUs = res.finish_us();
    o.events = m.sim().executed();
    o.ops = ops;
    std::uint64_t h = 0, failedCells = 0;
    double blocked = 0.0;
    for (std::size_t c = 0; c < cells; ++c) {
        // A CommError ends the body early and a stuck cell never
        // returns, so neither sets done.
        failedCells += cr.bad[c] > 0 || !cr.done[c] ? 1 : 0;
        h = mix(h ^ cr.hash[c]);
        blocked += static_cast<double>(res.cellBlocked[c]);
    }
    o.failed = failedCells * (ops / cells);
    o.dataHash = h;
    if (res.finishTick > 0)
        o.blockedFrac = blocked / (static_cast<double>(res.finishTick) *
                                   static_cast<double>(cells));
    return o;
}

/** Data value at (seed, a, b, c, d): an integer in [0, 2^24). */
double
value_of(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
         std::uint64_t c, std::uint64_t d)
{
    std::uint64_t h = mix(mix(mix(mix(mix(seed) ^ a) ^ b) ^ c) ^ d);
    return static_cast<double>(h >> 40);
}

} // namespace

const char *
call_name(Call c)
{
    static const char *const names[call_count] = {
        "put",  "put_stride", "get",       "send",
        "recv", "wait_flag",  "barrier",   "allreduce",
        "allreduce_vector",
    };
    return names[static_cast<int>(c)];
}

hw::MachineConfig
machine_config(int cells, int threads, bool deterministic)
{
    hw::MachineConfig cfg = hw::MachineConfig::ap1000_plus(cells);
    cfg.threads = threads;
    cfg.deterministic = deterministic;
    return cfg;
}

// -- halo_put ----------------------------------------------------------

double
HaloInput::value(int cell, int iter, int r, int c) const
{
    return value_of(seed, 1, static_cast<std::uint64_t>(cell),
                    static_cast<std::uint64_t>(iter),
                    static_cast<std::uint64_t>(r * 4096 + c));
}

double
HaloInput::reduce_value(int cell, int iter) const
{
    return value_of(seed, 2, static_cast<std::uint64_t>(cell),
                    static_cast<std::uint64_t>(iter), 0);
}

HaloInput
make_halo(const HaloSpec &spec, std::uint64_t seed)
{
    HaloInput in;
    in.spec = spec;
    in.seed = seed;
    int n = in.cells();
    Rng rng(seed);
    in.order.resize(static_cast<std::size_t>(spec.iters) * n * 4);
    for (std::size_t i = 0; i < in.order.size(); i += 4) {
        for (std::uint8_t d = 0; d < 4; ++d)
            in.order[i + d] = d;
        rng.shuffle(&in.order[i], 4);
    }
    for (int it = spec.reduceEvery - 1; it < spec.iters;
         it += spec.reduceEvery) {
        double sum = 0.0;
        for (int c = 0; c < n; ++c)
            sum += in.reduce_value(c, it);
        in.reduceSums.push_back(sum);
    }
    return in;
}

std::uint64_t
halo_ops(const HaloSpec &spec)
{
    // Per iteration: 4 PUTs, wait_flag, barrier; plus the reductions.
    std::uint64_t per_cell = static_cast<std::uint64_t>(spec.iters) * 6 +
                             static_cast<std::uint64_t>(
                                 spec.iters / spec.reduceEvery);
    return per_cell * static_cast<std::uint64_t>(spec.side * spec.side);
}

Outcome
run_halo(hw::Machine &m, const HaloInput &in, SpanLog *spans, int parent)
{
    const HaloSpec &s = in.spec;
    const int n = in.cells();
    const int e = s.edge;
    const std::uint32_t pitch = static_cast<std::uint32_t>(e + 2) * 8;
    const std::uint32_t row_bytes = static_cast<std::uint32_t>(e) * 8;
    const net::StrideSpec column{8, static_cast<std::uint32_t>(e),
                                 pitch - 8};
    CellResults cr(n);
    CallSpans traced{spans, parent};

    auto body = [&](Context &ctx) {
        const int me = ctx.id();
        const int x = me % s.side, y = me / s.side;
        // Neighbours on the torus: north, south, west, east.
        const int nb[4] = {((y + s.side - 1) % s.side) * s.side + x,
                           ((y + 1) % s.side) * s.side + x,
                           y * s.side + (x + s.side - 1) % s.side,
                           y * s.side + (x + 1) % s.side};
        const Addr grid = ctx.alloc(static_cast<std::size_t>(pitch) *
                                    static_cast<std::size_t>(e + 2));
        const Addr flag = ctx.alloc_flag();
        auto at = [&](int r, int c) {
            return grid + static_cast<Addr>(r) * pitch +
                   static_cast<Addr>(c) * 8;
        };
        std::vector<double> g(static_cast<std::size_t>((e + 2) * (e + 2)));
        auto cell_at = [&](int r, int c) -> double & {
            return g[static_cast<std::size_t>(r * (e + 2) + c)];
        };
        std::uint64_t &bad = cr.bad[static_cast<std::size_t>(me)];
        std::uint64_t &h = cr.hash[static_cast<std::size_t>(me)];
        std::size_t reduction = 0;

        for (int it = 0; it < s.iters; ++it) {
            for (int k = 1; k <= e; ++k) {
                ctx.poke_f64(at(1, k), in.value(me, it, 1, k));
                ctx.poke_f64(at(e, k), in.value(me, it, e, k));
                ctx.poke_f64(at(k, 1), in.value(me, it, k, 1));
                ctx.poke_f64(at(k, e), in.value(me, it, k, e));
            }
            const std::uint8_t *order =
                &in.order[(static_cast<std::size_t>(it) * n + me) * 4];
            for (int i = 0; i < 4; ++i) {
                switch (order[i]) {
                  case 0: // my top row -> north's bottom halo row
                    traced(ctx, Call::put, [&] {
                        ctx.put(nb[0], at(e + 1, 1), at(1, 1), row_bytes,
                                0, flag);
                    });
                    break;
                  case 1: // my bottom row -> south's top halo row
                    traced(ctx, Call::put, [&] {
                        ctx.put(nb[1], at(0, 1), at(e, 1), row_bytes, 0,
                                flag);
                    });
                    break;
                  case 2: // my left column -> west's right halo column
                    traced(ctx, Call::put_stride, [&] {
                        ctx.put_stride(nb[2], at(1, e + 1), at(1, 1),
                                       false, 0, flag, column, column);
                    });
                    break;
                  default: // my right column -> east's left halo column
                    traced(ctx, Call::put_stride, [&] {
                        ctx.put_stride(nb[3], at(1, 0), at(1, e), false, 0,
                                       flag, column, column);
                    });
                    break;
                }
            }
            traced(ctx, Call::wait_flag, [&] {
                ctx.wait_flag(flag, static_cast<std::uint32_t>(4 * (it + 1)));
            });

            ctx.peek(grid, bytes_of(g));
            bool ok[4] = {true, true, true, true};
            for (int k = 1; k <= e; ++k) {
                ok[0] &= cell_at(0, k) == in.value(nb[0], it, e, k);
                ok[1] &= cell_at(e + 1, k) == in.value(nb[1], it, 1, k);
                ok[2] &= cell_at(k, 0) == in.value(nb[2], it, k, e);
                ok[3] &= cell_at(k, e + 1) == in.value(nb[3], it, k, 1);
                h = fold(fold(fold(fold(h, cell_at(0, k)),
                                   cell_at(e + 1, k)),
                              cell_at(k, 0)),
                         cell_at(k, e + 1));
            }
            for (bool o : ok)
                bad += o ? 0 : 1;

            if (it % s.reduceEvery == s.reduceEvery - 1) {
                double v = 0.0;
                traced(ctx, Call::allreduce, [&] {
                    v = ctx.allreduce(in.reduce_value(me, it),
                                      ReduceOp::sum);
                });
                bad += v == in.reduceSums[reduction++] ? 0 : 1;
                h = fold(h, v);
            }
            traced(ctx, Call::barrier, [&] { ctx.barrier(); });
        }
        cr.done[static_cast<std::size_t>(me)] = 1;
    };

    core::SpmdResult res = core::run_spmd(m, body);
    return finish(m, res, cr, halo_ops(s));
}

// -- transpose_get -------------------------------------------------------

double
TransposeInput::block_value(int owner, int dest, int iter, int k) const
{
    return value_of(seed, 3, static_cast<std::uint64_t>(owner),
                    static_cast<std::uint64_t>(iter),
                    static_cast<std::uint64_t>(dest * 4096 + k));
}

double
TransposeInput::msg_value(int cell, int iter, int k) const
{
    return value_of(seed, 4, static_cast<std::uint64_t>(cell),
                    static_cast<std::uint64_t>(iter),
                    static_cast<std::uint64_t>(k));
}

double
TransposeInput::vec_value(int cell, int iter, int k) const
{
    return value_of(seed, 5, static_cast<std::uint64_t>(cell),
                    static_cast<std::uint64_t>(iter),
                    static_cast<std::uint64_t>(k));
}

bool
block_ok(const TransposeInput &in, int owner, int dest, int iter,
         const double *got)
{
    for (int k = 0; k < in.spec.block; ++k)
        if (got[k] != in.block_value(owner, dest, iter, k))
            return false;
    return true;
}

TransposeInput
make_transpose(const TransposeSpec &spec, std::uint64_t seed)
{
    TransposeInput in;
    in.spec = spec;
    in.seed = seed;
    const int n = in.cells();
    Rng rng(seed);
    in.order.reserve(static_cast<std::size_t>(spec.iters) * n * (n - 1));
    for (int it = 0; it < spec.iters; ++it) {
        for (int c = 0; c < n; ++c) {
            std::size_t first = in.order.size();
            for (int j = 0; j < n; ++j)
                if (j != c)
                    in.order.push_back(static_cast<std::uint16_t>(j));
            rng.shuffle(&in.order[first], static_cast<std::size_t>(n - 1));
        }
        for (int k = 0; k < spec.vec; ++k) {
            double sum = 0.0;
            for (int c = 0; c < n; ++c)
                sum += in.vec_value(c, it, k);
            in.vecSums.push_back(sum);
        }
    }
    return in;
}

std::uint64_t
transpose_ops(const TransposeSpec &spec)
{
    // Per iteration: barrier, cells-1 GETs, wait_flag, send, recv,
    // allreduce_vector.
    std::uint64_t n = static_cast<std::uint64_t>(spec.side * spec.side);
    return n * static_cast<std::uint64_t>(spec.iters) * (n - 1 + 5);
}

Outcome
run_transpose(hw::Machine &m, const TransposeInput &in, SpanLog *spans,
              int parent)
{
    const TransposeSpec &s = in.spec;
    const int n = in.cells();
    const std::uint32_t block_bytes = static_cast<std::uint32_t>(s.block) * 8;
    const std::uint32_t msg_bytes = static_cast<std::uint32_t>(s.msg) * 8;
    CellResults cr(n);
    CallSpans traced{spans, parent};

    auto body = [&](Context &ctx) {
        const int me = ctx.id();
        const int next = (me + 1) % n, prev = (me + n - 1) % n;
        const std::size_t nblk = static_cast<std::size_t>(n) * s.block;
        const Addr src = ctx.alloc(nblk * 8);
        const Addr dst = ctx.alloc(nblk * 8);
        const Addr flag = ctx.alloc_flag();
        const Addr sbuf = ctx.alloc(msg_bytes);
        const Addr rbuf = ctx.alloc(msg_bytes);
        const Addr vec = ctx.alloc(static_cast<std::size_t>(s.vec) * 8);
        std::vector<double> blocks(nblk), msg(static_cast<std::size_t>(s.msg)),
            v(static_cast<std::size_t>(s.vec));
        std::uint64_t &bad = cr.bad[static_cast<std::size_t>(me)];
        std::uint64_t &h = cr.hash[static_cast<std::size_t>(me)];

        for (int it = 0; it < s.iters; ++it) {
            for (int j = 0; j < n; ++j)
                for (int k = 0; k < s.block; ++k)
                    blocks[static_cast<std::size_t>(j * s.block + k)] =
                        in.block_value(me, j, it, k);
            ctx.poke(src, cbytes_of(blocks));
            // Every cell's source blocks hold this iteration's values
            // before anyone reads them.
            traced(ctx, Call::barrier, [&] { ctx.barrier(); });

            const std::uint16_t *order =
                &in.order[(static_cast<std::size_t>(it) * n + me) *
                          static_cast<std::size_t>(n - 1)];
            for (int i = 0; i < n - 1; ++i) {
                const Addr off = static_cast<Addr>(order[i]) * block_bytes;
                traced(ctx, Call::get, [&] {
                    ctx.get(order[i],
                            src + static_cast<Addr>(me) * block_bytes,
                            dst + off, block_bytes, 0, flag);
                });
            }
            traced(ctx, Call::wait_flag, [&] {
                ctx.wait_flag(flag,
                              static_cast<std::uint32_t>((n - 1) * (it + 1)));
            });
            ctx.peek(dst, bytes_of(blocks));
            for (int j = 0; j < n; ++j) {
                if (j == me)
                    continue;
                const double *got =
                    &blocks[static_cast<std::size_t>(j * s.block)];
                bad += block_ok(in, j, me, it, got) ? 0 : 1;
                for (int k = 0; k < s.block; ++k)
                    h = fold(h, got[k]);
            }

            for (int k = 0; k < s.msg; ++k)
                msg[static_cast<std::size_t>(k)] = in.msg_value(me, it, k);
            ctx.poke(sbuf, cbytes_of(msg));
            traced(ctx, Call::send,
                   [&] { ctx.send(next, it, sbuf, msg_bytes); });
            std::uint32_t got = 0;
            traced(ctx, Call::recv,
                   [&] { got = ctx.recv(prev, it, rbuf, msg_bytes); });
            ctx.peek(rbuf, bytes_of(msg));
            bool ok = got == msg_bytes;
            for (int k = 0; k < s.msg; ++k) {
                ok &= msg[static_cast<std::size_t>(k)] ==
                      in.msg_value(prev, it, k);
                h = fold(h, msg[static_cast<std::size_t>(k)]);
            }
            bad += ok ? 0 : 1;

            for (int k = 0; k < s.vec; ++k)
                v[static_cast<std::size_t>(k)] = in.vec_value(me, it, k);
            ctx.poke(vec, cbytes_of(v));
            traced(ctx, Call::allreduce_vector, [&] {
                ctx.allreduce_vector(vec, static_cast<std::uint32_t>(s.vec),
                                     ReduceOp::sum);
            });
            ctx.peek(vec, bytes_of(v));
            ok = true;
            for (int k = 0; k < s.vec; ++k) {
                ok &= v[static_cast<std::size_t>(k)] ==
                      in.vecSums[static_cast<std::size_t>(it * s.vec + k)];
                h = fold(h, v[static_cast<std::size_t>(k)]);
            }
            bad += ok ? 0 : 1;
        }
        cr.done[static_cast<std::size_t>(me)] = 1;
    };

    core::SpmdResult res = core::run_spmd(m, body);
    return finish(m, res, cr, transpose_ops(s));
}

// -- mlsim_replay --------------------------------------------------------

const std::vector<std::string> &
replay_apps()
{
    static const std::vector<std::string> apps = {"SP", "TC no st", "SCG",
                                                  "CG"};
    return apps;
}

ReplayInput
make_replay(const std::vector<std::string> &apps, std::uint64_t seed)
{
    ReplayInput in;
    in.seed = seed;
    in.apps = apps;
    Rng rng(seed);
    for (const std::string &name : apps) {
        int cells = apps::make_app(name)->info().cells;
        std::vector<int> perm(static_cast<std::size_t>(cells));
        for (int i = 0; i < cells; ++i)
            perm[static_cast<std::size_t>(i)] = i;
        rng.shuffle(perm.data(), perm.size());
        in.placement.push_back(std::move(perm));
    }
    return in;
}

core::Trace
place(const core::Trace &trace, const std::vector<int> &perm)
{
    const int n = trace.cells();
    core::Trace out(n);
    for (int c = 0; c < n; ++c) {
        CellId to = perm[static_cast<std::size_t>(c)];
        std::vector<core::TraceEvent> &tl = out.timeline(to);
        tl = trace.timeline(c);
        for (core::TraceEvent &ev : tl)
            if (ev.peer >= 0 && ev.peer < n)
                ev.peer = perm[static_cast<std::size_t>(ev.peer)];
    }
    return out;
}

std::uint64_t
trace_messages(const core::Trace &trace)
{
    std::uint64_t n = 0;
    for (int c = 0; c < trace.cells(); ++c) {
        for (const core::TraceEvent &ev : trace.timeline(c)) {
            switch (ev.op) {
              case core::TraceOp::put:
              case core::TraceOp::put_stride:
              case core::TraceOp::get:
              case core::TraceOp::get_stride:
              case core::TraceOp::send:
                ++n;
                break;
              default:
                break;
            }
        }
    }
    return n;
}

std::string
metric_name(const std::string &app)
{
    std::string out = app;
    for (char &ch : out)
        if (ch == ' ')
            ch = '_';
    return out;
}

} // namespace perfbench
