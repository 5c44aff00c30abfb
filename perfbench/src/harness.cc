#include "harness.hh"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/cpu.hh"
#include "emu/memory.hh"
#include "sim/analytics.hh"
#include "sim/checkpoint.hh"
#include "sim/cpi_stack.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace perfbench
{

using vpsim::SimConfig;

namespace
{

#ifdef __clang__
const std::string compilerName = std::string("clang ") + __clang_version__;
#else
const std::string compilerName = std::string("gcc ") + __VERSION__;
#endif

const std::chrono::steady_clock::time_point processStart =
    std::chrono::steady_clock::now();

std::string
jsonString(const std::string &s)
{
    std::ostringstream os;
    vpsim::jsonQuote(os, s);
    return os.str();
}

} // namespace

double
hostNow()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         processStart)
        .count();
}

void
SpanLog::record(const char *name, uint64_t job, double start, double end)
{
    if (!_on)
        return;
    std::lock_guard<std::mutex> g(_m);
    _spans.push_back({name, job, start, end});
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> g(_m);
    return _spans;
}

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &meta) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"metadata\": %s,\n \"traceEvents\": [", meta.c_str());
    std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s\n  {\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"job\": %llu}}",
                     i == 0 ? "" : ",", jsonString(s.name).c_str(),
                     static_cast<unsigned long long>(s.job),
                     s.start * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.job));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

JobOutcome
runJob(const JobSpec &spec, uint64_t jobId, SpanLog &spans)
{
    const SimConfig &cfg = spec.cfg;
    JobOutcome out;
    out.started = hostNow();
    cfg.validate();

    vpsim::MainMemory mem;
    double t0 = hostNow();
    vpsim::Addr entry = spec.wl->build(mem, cfg.seed);
    double t1 = hostNow();
    out.build = t1 - t0;
    spans.record("workloads.build", jobId, t0, t1);

    vpsim::Cpu cpu(cfg, mem, entry);
    double t2 = hostNow();
    out.ctor = t2 - t1;
    spans.record("core.ctor", jobId, t1, t2);

    if (cfg.ffInsts > 0) {
        vpsim::CheckpointStore store(cfg.checkpointDir);
        double a = hostNow();
        out.restored = store.load(cfg, spec.wl->name(), cpu);
        double b = hostNow();
        out.ckptLoad = b - a;
        spans.record("sim.checkpoint_load", jobId, a, b);
        if (!out.restored) {
            cpu.fastForward(cfg.ffInsts);
            double c = hostNow();
            spans.record("emu.fast_forward", jobId, b, c);
            store.save(cfg, spec.wl->name(), cpu);
            double d = hostNow();
            out.ckptSave = d - c;
            spans.record("sim.checkpoint_save", jobId, c, d);
        }
    }

    double r0 = hostNow();
    cpu.run();
    double r1 = hostNow();
    out.run = r1 - r0;
    spans.record("core.run", jobId, r0, r1);

    vpsim::SimResult &r = out.result;
    r.workload = spec.wl->name();
    r.cycles = cpu.cycles();
    r.usefulInsts = cpu.usefulInsts();
    r.usefulIpc = cpu.usefulIpc();
    r.halted = cpu.haltedUsefully();
    for (const vpsim::StatBase *s : cpu.stats().stats())
        r.stats[s->name()] = s->value();
    out.streamInsts = cpu.ffInsts() + cpu.usefulInsts();
    out.poolPeakLive = cpu.instPool().peakLive();
    out.finished = hostNow();
    return out;
}

double
setupOnly(const JobSpec &spec)
{
    vpsim::MainMemory mem;
    const double t0 = hostNow();
    vpsim::Cpu cpu(spec.cfg, mem, spec.wl->build(mem, spec.cfg.seed));
    return hostNow() - t0;
}

std::vector<std::string>
checkJob(const JobSpec &spec, const JobOutcome &out)
{
    std::vector<std::string> problems;
    const SimConfig &cfg = spec.cfg;
    const vpsim::SimResult &r = out.result;
    auto fail = [&](const std::string &what) {
        problems.push_back(spec.label + ": " + what);
    };

    // The run reached its instruction target (or the program ended).
    if (!r.halted && out.streamInsts < cfg.maxInsts) {
        fail(vpsim::csprintf("stopped at %llu of %llu instructions",
                             static_cast<unsigned long long>(
                                 out.streamInsts),
                             static_cast<unsigned long long>(
                                 cfg.maxInsts)));
    }

    // Every context's CPI slots sum exactly to the run's cycles.
    for (int ctx = 0; ctx < cfg.numContexts; ++ctx) {
        double sum = 0.0;
        for (unsigned s = 0; s < vpsim::numCpiSlots; ++s) {
            auto it = r.stats.find(vpsim::csprintf(
                "cpi.t%02d.%s", ctx,
                vpsim::cpiSlotName(static_cast<vpsim::CpiSlot>(s))));
            if (it == r.stats.end()) {
                fail(vpsim::csprintf("no CPI stack for context %d", ctx));
                return problems;
            }
            sum += it->second;
        }
        if (sum != static_cast<double>(r.cycles)) {
            fail(vpsim::csprintf("context %d CPI slots sum to %.0f, "
                                 "cycles %llu",
                                 ctx, sum,
                                 static_cast<unsigned long long>(
                                     r.cycles)));
        }
    }

    // Spawn outcomes partition the spawns.
    double outcomes = 0.0;
    for (unsigned o = 0; o < vpsim::numSpawnOutcomes; ++o) {
        outcomes += r.stat(vpsim::csprintf(
            "analytics.spawns.%s",
            vpsim::spawnOutcomeName(static_cast<vpsim::SpawnOutcome>(o))));
    }
    if (outcomes != r.stat("mtvp.spawns")) {
        fail(vpsim::csprintf("spawn outcomes sum to %.0f, spawns %.0f",
                             outcomes, r.stat("mtvp.spawns")));
    }
    return problems;
}

std::vector<JobOutcome>
runBatch(vpsim::SimPool &pool, const std::vector<JobSpec> &batch,
         SpanLog &spans, uint64_t &nextJobId)
{
    std::vector<std::future<JobOutcome>> futs;
    futs.reserve(batch.size());
    for (const JobSpec &spec : batch) {
        const uint64_t id = nextJobId++;
        const double submitted = hostNow();
        futs.push_back(pool.submit([&spec, &spans, id, submitted] {
            JobOutcome o = runJob(spec, id, spans);
            o.submitted = submitted;
            spans.record("sim.pool_wait", id, o.submitted, o.started);
            spans.record("sim.pool_run", id, o.started, o.finished);
            return o;
        }));
    }
    std::vector<JobOutcome> outs;
    outs.reserve(batch.size());
    for (auto &f : futs)
        outs.push_back(f.get());
    return outs;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

int
poolThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

namespace
{

constexpr size_t refEntries = size_t(16) << 20; // 64 MiB of uint32_t
constexpr int refLoads = 200000;

/** The reference child: builds the cycle, then times one walk per
 *  request byte until the request pipe closes. */
[[noreturn]] void
referenceChild(int request, int reply)
{
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    // Sattolo's shuffle of the identity makes i -> next[i] one cycle
    // through every entry: each load depends on the one before and
    // lands on a line no recent load touched. The cycle is fixed, so
    // every run walks the same one.
    std::vector<uint32_t> next(refEntries);
    std::iota(next.begin(), next.end(), 0u);
    uint64_t x = 0x243f6a8885a308d3ull;
    for (size_t i = refEntries - 1; i > 0; --i) {
        uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        std::swap(next[i], next[(z ^ (z >> 31)) % i]);
    }
    uint32_t k = 0;
    char c;
    while (read(request, &c, 1) == 1) {
        const double t0 = hostNow();
        for (int i = 0; i < refLoads; ++i)
            k = next[k];
        const double ns = (hostNow() - t0) * 1e9 / refLoads;
        if (write(reply, &ns, sizeof(ns)) != sizeof(ns))
            break;
    }
    // The walk's end point, so the loads cannot be optimized away.
    _exit(k < refEntries ? 0 : 1);
}

} // namespace

HostReference &
HostReference::instance()
{
    static HostReference ref;
    return ref;
}

HostReference::HostReference()
{
    int request[2], reply[2];
    if (pipe(request) != 0 || pipe(reply) != 0)
        vpsim::fatal("perfbench: pipe: %s", std::strerror(errno));
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        vpsim::fatal("perfbench: fork: %s", std::strerror(errno));
    if (pid == 0) {
        close(request[1]);
        close(reply[0]);
        referenceChild(request[0], reply[1]);
    }
    close(request[0]);
    close(reply[1]);
    _request = request[1];
    _reply = reply[0];
    _child = pid;
}

HostReference::~HostReference()
{
    close(_request);
    close(_reply);
    waitpid(_child, nullptr, 0);
}

double
HostReference::loadNs()
{
    const char c = 'x';
    double ns = 0.0;
    if (write(_request, &c, 1) != 1 ||
        read(_reply, &ns, sizeof(ns)) != sizeof(ns))
        vpsim::fatal("perfbench: the host reference process failed");
    return ns;
}

std::string
fingerprintJson(const std::string &workload, uint64_t seed, double seconds,
                int trace, int threads, uint64_t runInsts)
{
    return vpsim::csprintf(
        "{\"build_type\": %s, \"compiler\": %s, \"nproc\": %u, "
        "\"pool_threads\": %d, \"workload\": %s, \"seed\": %llu, "
        "\"seconds\": %.3f, \"trace\": %d, \"run_insts\": %llu}",
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(compilerName).c_str(),
        std::thread::hardware_concurrency(), threads,
        jsonString(workload).c_str(), static_cast<unsigned long long>(seed),
        seconds, trace, static_cast<unsigned long long>(runInsts));
}

} // namespace perfbench
