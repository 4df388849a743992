/**
 * @file
 * The benchmark's workloads: inputs generated from a seed, the SPMD
 * bodies and MLSim replays that run them through the public API, and
 * the output checks.
 *
 * Sizes are fixed by each Spec; the seed chooses only data values and
 * peer order (emulator) or cell placement (MLSim). Every data value is
 * a closed form of (seed, cell, iteration, index) and an integer below
 * 2^24, so received data and floating-point reductions are checked
 * exactly, whatever order the reduction combined them in.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "core/program.hh"
#include "core/trace.hh"
#include "hw/config.hh"
#include "hw/machine.hh"
#include "spans.hh"

namespace perfbench
{

namespace apps = ap::apps;
namespace core = ap::core;
namespace hw = ap::hw;
namespace net = ap::net;
using ap::CellId;

/** The Context calls the benchmark issues (one op each). */
enum class Call : int
{
    put,
    put_stride,
    get,
    send,
    recv,
    wait_flag,
    barrier,
    allreduce,
    allreduce_vector,
};
constexpr int call_count = 9;
const char *call_name(Call c);

/** What one SPMD run of a workload produced. */
struct Outcome
{
    double simUs = 0.0;          ///< SpmdResult::finish_us()
    std::uint64_t events = 0;    ///< events the kernel executed
    std::uint64_t ops = 0;       ///< Context calls issued (from input)
    /** Ops of the cells that failed: a data-check mismatch, a
     *  CommError or a body that never returned fails all of its
     *  cell's ops. */
    std::uint64_t failed = 0;
    std::uint64_t dataHash = 0;  ///< fold of every received value
    double blockedFrac = 0.0;    ///< sum(cellBlocked) / (cells * finish)
};

// -- halo_put --------------------------------------------------------

/** TOMCATV/SP-style 2-D halo exchange on a side x side torus. */
struct HaloSpec
{
    int side = 32;        ///< cells per torus edge (32 -> 1024 cells)
    int edge = 16;        ///< doubles per block edge
    int iters = 2;        ///< exchange iterations per run
    int reduceEvery = 2;  ///< commreg allreduce every N iterations
};

struct HaloInput
{
    HaloSpec spec;
    std::uint64_t seed = 0;
    /** [iter][cell][4]: the order the cell PUTs to N, S, W, E. */
    std::vector<std::uint8_t> order;
    /** Expected allreduce result, one per reduction. */
    std::vector<double> reduceSums;

    int cells() const { return spec.side * spec.side; }
    /** Interior value (r, c in 1..edge) of @p cell at @p iter. */
    double value(int cell, int iter, int r, int c) const;
    /** Value @p cell contributes to a reduction at @p iter. */
    double reduce_value(int cell, int iter) const;
};

HaloInput make_halo(const HaloSpec &spec, std::uint64_t seed);
/** Context calls one run issues. */
std::uint64_t halo_ops(const HaloSpec &spec);
Outcome run_halo(hw::Machine &m, const HaloInput &in,
                 SpanLog *spans = nullptr, int parent = -1);

// -- transpose_get ---------------------------------------------------

/** FT/CG-style all-to-all GET, ring SEND/RECEIVE, vector reduce. */
struct TransposeSpec
{
    int side = 16;  ///< cells per torus edge (16 -> 256 cells)
    int block = 8;  ///< doubles per transposed block
    int msg = 16;   ///< doubles per ring message
    int vec = 32;   ///< doubles in the vector reduction
    int iters = 1;  ///< iterations per run
};

struct TransposeInput
{
    TransposeSpec spec;
    std::uint64_t seed = 0;
    /** [iter][cell][cells-1]: the order the cell GETs from peers. */
    std::vector<std::uint16_t> order;
    /** [iter][vec]: expected vector reduction. */
    std::vector<double> vecSums;

    int cells() const { return spec.side * spec.side; }
    /** Element @p k of the block @p owner holds for @p dest. */
    double block_value(int owner, int dest, int iter, int k) const;
    /** Element @p k of @p cell's ring message. */
    double msg_value(int cell, int iter, int k) const;
    /** Element @p k of @p cell's reduction vector. */
    double vec_value(int cell, int iter, int k) const;
};

/** Whether @p got holds the block @p owner sent @p dest at @p iter. */
bool block_ok(const TransposeInput &in, int owner, int dest, int iter,
              const double *got);

TransposeInput make_transpose(const TransposeSpec &spec,
                              std::uint64_t seed);
std::uint64_t transpose_ops(const TransposeSpec &spec);
Outcome run_transpose(hw::Machine &m, const TransposeInput &in,
                      SpanLog *spans = nullptr, int parent = -1);

/** The machine the emulator workloads run on: the sequential kernel
 *  for @p threads = 1, else the sharded one, relaxed unless
 *  @p deterministic. */
hw::MachineConfig machine_config(int cells, int threads,
                                 bool deterministic = false);

// -- mlsim_replay ----------------------------------------------------

/** Table 2 apps replayed: SP is all-to-all, the rest small-message. */
const std::vector<std::string> &replay_apps();

struct ReplayInput
{
    std::uint64_t seed = 0;
    std::vector<std::string> apps;
    /** Per app: logical PE -> physical cell. */
    std::vector<std::vector<int>> placement;
};

ReplayInput make_replay(const std::vector<std::string> &apps,
                        std::uint64_t seed);

/** Apply a placement: timeline of PE i moves to cell perm[i]. */
core::Trace place(const core::Trace &trace, const std::vector<int> &perm);

/** Point-to-point messages MLSim must replay for @p trace. */
std::uint64_t trace_messages(const core::Trace &trace);

/** Metric-name form of an app name ("TC no st" -> "TC_no_st"). */
std::string metric_name(const std::string &app);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
