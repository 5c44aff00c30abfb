/**
 * @file
 * Per-layer probes of the traced run. Each workload's own dynamic
 * stream is captured once, outside any timing, through a WarmupSink
 * passed to vpsim::fastForward; the mem, bpred, vpred and emu probes
 * then replay that stream into the layer's public API, so they see the
 * workload's real access pattern rather than a synthetic loop.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "emu/memory.hh"
#include "harness.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** One executed instruction, reduced to what the layer probes replay. */
struct StreamRec
{
    enum Kind : uint8_t { Other, Load, Store, CondBranch };

    vpsim::Addr pc = 0;
    vpsim::Addr addr = 0; ///< Effective address (loads and stores).
    uint64_t value = 0;   ///< Value loaded or stored.
    Kind kind = Other;
    uint8_t bytes = 0;    ///< Access size (loads and stores).
    bool taken = false;   ///< Outcome (conditional branches).
};

/** One workload's recorded stream and the memory image it ended on. */
struct Stream
{
    const vpsim::Workload *wl = nullptr;
    vpsim::SimConfig cfg;
    std::vector<StreamRec> recs;
    std::unique_ptr<vpsim::MainMemory> mem;
};

/** Build @p wl under @p cfg, skip @p skip instructions, then record the
 *  next @p count (fewer if the program halts). */
Stream recordStream(const vpsim::Workload &wl, const vpsim::SimConfig &cfg,
                    uint64_t skip, uint64_t count);

/** mem, bpred, vpred and emu.chain_read probes over @p streams. */
void probeLayers(const std::vector<Stream> &streams,
                 std::vector<Metric> &out);

/** Result of probeFastForward(). */
struct FastForwardProbe
{
    double plainNs = 0.0; ///< Host ns per instruction, no sink.
    double warmNs = 0.0;  ///< Host ns per instruction, Cpu warming.
    uint64_t insts = 0;
    double saveMs = 0.0;
    double loadMs = 0.0;
};
/**
 * Fast-forward @p n instructions of @p wl with no sink and again
 * through a Cpu that warms its caches and predictors, then save the
 * warmed machine as a checkpoint under @p scratchDir and restore it
 * into a fresh Cpu.
 */
FastForwardProbe probeFastForward(const vpsim::Workload &wl,
                                  const vpsim::SimConfig &cfg, uint64_t n,
                                  const std::string &scratchDir);

/** Fetch-, issue- and commit-bound core kernels: host ns per committed
 *  instruction. */
void probeCoreKernels(std::vector<Metric> &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
