#include "probes.hh"

#include <algorithm>
#include <filesystem>

#include "bpred/branch_predictor.hh"
#include "core/cpu.hh"
#include "emu/emulator.hh"
#include "emu/fastfwd.hh"
#include "emu/store_buffer.hh"
#include "mem/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "vpred/value_predictor.hh"

namespace perfbench
{

using vpsim::Addr;
using vpsim::SimConfig;

namespace
{

/** Repetitions of every replay probe; the median is reported. */
constexpr int probeReps = 3;

/** Chain depths of the store-segment read probe: one segment, the
 *  paper's largest thread count, and a chain that never got cut. */
constexpr int chainDepths[] = {1, 8, 64};
/** Stores spread over the chain, and loads replayed through it. */
constexpr size_t chainStores = 4096;
constexpr size_t chainLoads = 50000;

/** next-event scans timed after the data-side replay. */
constexpr int nextEventCalls = 2000;

/** Keeps replayed results observable so the loops are not elided. */
volatile uint64_t probeSink = 0;

/** Captures each fast-forwarded instruction into a Stream. */
class StreamRecorder : public vpsim::WarmupSink
{
  public:
    explicit StreamRecorder(std::vector<StreamRec> &out) : _out(out) {}

    void
    warmInst(const vpsim::EmuStep &s) override
    {
        StreamRec r;
        r.pc = s.pc;
        if (s.inst.isLoad()) {
            r.kind = StreamRec::Load;
        } else if (s.inst.isStore()) {
            r.kind = StreamRec::Store;
        } else if (s.inst.isBranch()) {
            r.kind = StreamRec::CondBranch;
            r.taken = s.taken;
        }
        if (r.kind == StreamRec::Load || r.kind == StreamRec::Store) {
            r.addr = s.effAddr;
            r.value = s.memValue;
            r.bytes = static_cast<uint8_t>(s.memBytes);
        }
        _out.push_back(r);
    }

  private:
    std::vector<StreamRec> &_out;
};

/** Accumulates (seconds, operations) over streams for one repetition. */
struct Tally
{
    double seconds = 0.0;
    uint64_t ops = 0;
};

/** Median over repetitions of host ns per operation. */
double
nsPerOp(const std::vector<Tally> &reps)
{
    std::vector<double> ns;
    for (const Tally &t : reps) {
        if (t.ops > 0)
            ns.push_back(t.seconds * 1e9 / static_cast<double>(t.ops));
    }
    return median(ns);
}

double
statValue(const vpsim::StatGroup &g, const char *name)
{
    const vpsim::StatBase *s = g.find(name);
    return s != nullptr ? s->value() : 0.0;
}

void
probeMem(const std::vector<Stream> &streams, std::vector<Metric> &out)
{
    std::vector<Tally> data(probeReps), ifetch(probeReps), warm(probeReps),
        scan(probeReps);
    double loads = 0.0;
    double l1Loads = 0.0;
    double maxFills = 0.0;
    for (int rep = 0; rep < probeReps; ++rep) {
        for (const Stream &s : streams) {
            const Addr lineMask = ~static_cast<Addr>(s.cfg.lineSize - 1);
            {
                // Data side in program order, one instruction per cycle.
                vpsim::StatGroup st;
                vpsim::Hierarchy h(st, s.cfg);
                uint64_t sink = 0;
                uint64_t ops = 0;
                double t0 = hostNow();
                for (size_t i = 0; i < s.recs.size(); ++i) {
                    const StreamRec &r = s.recs[i];
                    if (r.kind == StreamRec::Load) {
                        sink += h.load(r.addr, r.pc, i).ready;
                        ++ops;
                    } else if (r.kind == StreamRec::Store) {
                        h.storeDrain(r.addr, i);
                        ++ops;
                    }
                }
                double t1 = hostNow();
                data[rep].seconds += t1 - t0;
                data[rep].ops += ops;

                // The time-skip engine's memory-side event scan, asked
                // right after the replay left its fills behind.
                const vpsim::Cycle now = s.recs.size();
                for (int k = 0; k < nextEventCalls; ++k)
                    sink += h.nextEventCycle(now + k);
                double t2 = hostNow();
                scan[rep].seconds += t2 - t1;
                scan[rep].ops += nextEventCalls;
                probeSink = sink;

                if (rep == 0) {
                    loads += statValue(st, "mem.loads");
                    l1Loads += statValue(st, "mem.loadsL1");
                    maxFills = std::max(
                        maxFills, static_cast<double>(h.inFlightFills()));
                }
            }
            {
                // Instruction side: one fetch per line transition.
                vpsim::StatGroup st;
                vpsim::Hierarchy h(st, s.cfg);
                uint64_t sink = 0;
                uint64_t ops = 0;
                Addr last = ~static_cast<Addr>(0);
                double t0 = hostNow();
                for (size_t i = 0; i < s.recs.size(); ++i) {
                    const Addr line = s.recs[i].pc & lineMask;
                    if (line != last) {
                        last = line;
                        sink += h.instFetch(s.recs[i].pc, i);
                        ++ops;
                    }
                }
                ifetch[rep].seconds += hostNow() - t0;
                ifetch[rep].ops += ops;
                probeSink = sink;
            }
            {
                // Fast-forward warming of the same data accesses.
                vpsim::StatGroup st;
                vpsim::Hierarchy h(st, s.cfg);
                uint64_t ops = 0;
                double t0 = hostNow();
                for (const StreamRec &r : s.recs) {
                    if (r.kind == StreamRec::Load) {
                        h.warmLoad(r.addr, r.pc);
                        ++ops;
                    } else if (r.kind == StreamRec::Store) {
                        h.warmStore(r.addr);
                        ++ops;
                    }
                }
                warm[rep].seconds += hostNow() - t0;
                warm[rep].ops += ops;
            }
        }
    }
    out.push_back({"mem.load_ns", nsPerOp(data), "ns"});
    out.push_back({"mem.ifetch_ns", nsPerOp(ifetch), "ns"});
    out.push_back({"mem.l1d_hit_frac", loads > 0 ? l1Loads / loads : 0.0,
                   "frac"});
    out.push_back({"mem.inflight_fills", maxFills, "count"});
    out.push_back({"mem.next_event_ns", nsPerOp(scan), "ns"});
    out.push_back({"mem.warm_load_ns", nsPerOp(warm), "ns"});
}

void
probeBpred(const std::vector<Stream> &streams, std::vector<Metric> &out)
{
    std::vector<Tally> reps(probeReps);
    uint64_t branches = 0;
    uint64_t correct = 0;
    for (int rep = 0; rep < probeReps; ++rep) {
        for (const Stream &s : streams) {
            vpsim::StatGroup st;
            vpsim::BranchPredictor bp(st, s.cfg.bpredBimodalEntries,
                                      s.cfg.bpredGshareEntries,
                                      s.cfg.bpredMetaEntries,
                                      s.cfg.numContexts);
            uint64_t n = 0;
            uint64_t ok = 0;
            double t0 = hostNow();
            for (const StreamRec &r : s.recs) {
                if (r.kind != StreamRec::CondBranch)
                    continue;
                ok += bp.predict(r.pc, 0) == r.taken;
                bp.update(r.pc, 0, r.taken);
                ++n;
            }
            reps[rep].seconds += hostNow() - t0;
            reps[rep].ops += n;
            if (rep == 0) {
                branches += n;
                correct += ok;
            }
        }
    }
    out.push_back({"bpred.predict_update_ns", nsPerOp(reps), "ns"});
    out.push_back({"bpred.accuracy",
                   branches > 0 ? static_cast<double>(correct) /
                                      static_cast<double>(branches)
                                : 0.0,
                   "frac"});
}

void
probeVpred(const std::vector<Stream> &streams, std::vector<Metric> &out)
{
    std::vector<Tally> reps(probeReps);
    uint64_t predicted = 0;
    uint64_t confident = 0;
    for (int rep = 0; rep < probeReps; ++rep) {
        for (const Stream &s : streams) {
            vpsim::StatGroup st;
            std::unique_ptr<vpsim::ValuePredictor> vp =
                vpsim::makeValuePredictor(s.cfg, st);
            uint64_t n = 0;
            uint64_t conf = 0;
            double t0 = hostNow();
            for (const StreamRec &r : s.recs) {
                if (r.kind != StreamRec::Load)
                    continue;
                conf += vp->predict(r.pc, r.value).confident;
                vp->train(r.pc, r.value);
                ++n;
            }
            reps[rep].seconds += hostNow() - t0;
            reps[rep].ops += n;
            if (rep == 0) {
                predicted += n;
                confident += conf;
            }
        }
    }
    out.push_back({"vpred.predict_train_ns", nsPerOp(reps), "ns"});
    out.push_back({"vpred.confident_frac",
                   predicted > 0 ? static_cast<double>(confident) /
                                       static_cast<double>(predicted)
                                 : 0.0,
                   "frac"});
}

void
probeChain(const std::vector<Stream> &streams, std::vector<Metric> &out)
{
    for (int depth : chainDepths) {
        std::vector<Tally> reps(probeReps);
        for (const Stream &s : streams) {
            // The stream's first stores, oldest in the root segment,
            // spread evenly down a chain of `depth` segments.
            std::vector<const StreamRec *> stores;
            std::vector<const StreamRec *> loads;
            for (const StreamRec &r : s.recs) {
                if (r.kind == StreamRec::Store && stores.size() < chainStores)
                    stores.push_back(&r);
                else if (r.kind == StreamRec::Load &&
                         loads.size() < chainLoads)
                    loads.push_back(&r);
            }
            if (loads.empty())
                continue;
            std::vector<std::shared_ptr<vpsim::StoreSegment>> chain;
            std::shared_ptr<vpsim::StoreSegment> parent;
            for (int d = 0; d < depth; ++d) {
                parent = std::make_shared<vpsim::StoreSegment>(0, parent);
                chain.push_back(parent);
            }
            for (size_t j = 0; j < stores.size(); ++j) {
                const size_t seg = j * static_cast<size_t>(depth) /
                                   stores.size();
                chain[seg]->writeBytes(stores[j]->addr, stores[j]->bytes,
                                       stores[j]->value);
            }
            const vpsim::StoreSegment *leaf = chain.back().get();
            for (int rep = 0; rep < probeReps; ++rep) {
                uint64_t sink = 0;
                double t0 = hostNow();
                for (const StreamRec *r : loads) {
                    sink += vpsim::readThroughChain(leaf, *s.mem, r->addr,
                                                    r->bytes)
                                .value;
                }
                reps[rep].seconds += hostNow() - t0;
                reps[rep].ops += loads.size();
                probeSink = sink;
            }
        }
        out.push_back({vpsim::csprintf("emu.chain_read_ns.d%d", depth),
                       nsPerOp(reps), "ns"});
    }
}

// Core kernels, pinned as in bench/throughput.cc so this benchmark's
// stages stay fixed while that file evolves. Each saturates one stage;
// maxInsts, not the huge trip count, ends the run.

// Fetch-bound: every block redirects fetch.
const char *fetchBoundSrc = R"(
        li   r1, 1000000000
    loop:
        beq  r0, r0, a1
    a1:
        beq  r0, r0, a2
    a2:
        beq  r0, r0, a3
    a3:
        beq  r0, r0, a4
    a4:
        subi r1, r1, 1
        bne  r1, r0, loop
        halt
)";

// Issue-bound: one serial dependency chain.
const char *issueBoundSrc = R"(
        li   r1, 1
        li   r2, 1000000000
    loop:
        addi r1, r1, 1
        slli r3, r1, 1
        and  r3, r3, r1
        addi r3, r3, 3
        add  r1, r1, r3
        subi r2, r2, 1
        bne  r2, r0, loop
        halt
)";

// Commit-bound: independent single-cycle ALU ops.
const char *commitBoundSrc = R"(
        li   r2, 1000000000
    loop:
        addi r3, r0, 1
        addi r4, r0, 2
        addi r5, r0, 3
        addi r6, r0, 4
        addi r7, r0, 5
        addi r3, r0, 6
        subi r2, r2, 1
        bne  r2, r0, loop
        halt
)";

/** Committed instructions per core-kernel run. */
constexpr uint64_t kernelInsts = 40000;

} // namespace

Stream
recordStream(const vpsim::Workload &wl, const SimConfig &cfg, uint64_t skip,
             uint64_t count)
{
    Stream s;
    s.wl = &wl;
    s.cfg = cfg;
    s.mem = std::make_unique<vpsim::MainMemory>();
    vpsim::ArchState state;
    state.pc = wl.build(*s.mem, cfg.seed);
    vpsim::Emulator emu(*s.mem);
    if (skip > 0)
        vpsim::fastForward(emu, state, skip, nullptr);
    s.recs.reserve(count);
    StreamRecorder rec(s.recs);
    vpsim::fastForward(emu, state, count, &rec);
    return s;
}

void
probeLayers(const std::vector<Stream> &streams, std::vector<Metric> &out)
{
    probeMem(streams, out);
    probeBpred(streams, out);
    probeVpred(streams, out);
    probeChain(streams, out);
}

FastForwardProbe
probeFastForward(const vpsim::Workload &wl, const SimConfig &base,
                 uint64_t n, const std::string &scratchDir)
{
    FastForwardProbe p;
    {
        vpsim::MainMemory mem;
        vpsim::ArchState state;
        state.pc = wl.build(mem, base.seed);
        vpsim::Emulator emu(mem);
        double t0 = hostNow();
        vpsim::FastForwardResult r =
            vpsim::fastForward(emu, state, n, nullptr);
        double dt = hostNow() - t0;
        p.insts = r.executed;
        p.plainNs = r.executed > 0 ? dt * 1e9 / r.executed : 0.0;
    }

    SimConfig cfg = base;
    cfg.ffInsts = n;
    // A checkpoint identity needs detailed instructions after it.
    cfg.maxInsts = std::max(cfg.maxInsts, 2 * n);
    cfg.checkpointDir = scratchDir;
    std::filesystem::remove_all(scratchDir);
    std::filesystem::create_directories(scratchDir);
    vpsim::CheckpointStore store(scratchDir);

    vpsim::MainMemory mem;
    vpsim::Cpu cpu(cfg, mem, wl.build(mem, cfg.seed));
    double t0 = hostNow();
    uint64_t done = cpu.fastForward(n);
    double t1 = hostNow();
    p.warmNs = done > 0 ? (t1 - t0) * 1e9 / done : 0.0;
    store.save(cfg, wl.name(), cpu);
    double t2 = hostNow();
    p.saveMs = (t2 - t1) * 1e3;

    vpsim::MainMemory mem2;
    vpsim::Cpu restored(cfg, mem2, wl.build(mem2, cfg.seed));
    double t3 = hostNow();
    if (!store.load(cfg, wl.name(), restored))
        vpsim::fatal("checkpoint probe: saved checkpoint did not load");
    p.loadMs = (hostNow() - t3) * 1e3;
    std::filesystem::remove_all(scratchDir);
    return p;
}

void
probeCoreKernels(std::vector<Metric> &out)
{
    struct Kernel
    {
        const char *metric;
        const char *name;
        const char *src;
    };
    const Kernel kernels[] = {
        {"core.fetch_bound_ns_per_inst", "pb-fetch", fetchBoundSrc},
        {"core.issue_bound_ns_per_inst", "pb-issue", issueBoundSrc},
        {"core.commit_bound_ns_per_inst", "pb-commit", commitBoundSrc},
    };
    SpanLog quiet;
    for (const Kernel &k : kernels) {
        vpsim::AsmWorkload wl(k.name, vpsim::BenchCategory::Int,
                              "core stage kernel", k.src,
                              [](vpsim::MainMemory &, uint64_t) {});
        JobSpec spec;
        spec.label = k.name;
        spec.wl = &wl;
        spec.cfg.vpMode = vpsim::VpMode::None;
        spec.cfg.numContexts = 1;
        spec.cfg.maxInsts = kernelInsts;
        std::vector<double> ns;
        for (int rep = 0; rep < probeReps; ++rep) {
            JobOutcome o = runJob(spec, 0, quiet);
            ns.push_back(o.run * 1e9 /
                         static_cast<double>(o.result.usefulInsts));
        }
        out.push_back({k.metric, median(ns), "ns/inst"});
    }
}

} // namespace perfbench
