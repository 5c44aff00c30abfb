#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "probes.hh"
#include "scoreboard.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using vpsim::SimConfig;
using vpsim::VpMode;

namespace
{

/** Batches run one after another; a batch's jobs run concurrently. */
using Batches = std::vector<std::vector<JobSpec>>;

/** One workload of the benchmark. */
struct Plan
{
    /** The jobs of one iteration, at full length or (@p tenth) a tenth
     *  of it; @p ckptDir is a fresh, empty directory and @p order seeds
     *  the submission order of jobs that share a batch. */
    std::function<Batches(bool tenth, const std::string &ckptDir,
                          uint64_t order)>
        jobs;
    /** Programs of the layer probes: each one's stream (streamInsts
     *  instructions after the first streamSkip) is recorded and
     *  replayed, and ffInsts of it are fast-forwarded. */
    std::vector<JobSpec> programs;
    uint64_t streamSkip = 0;
    uint64_t streamInsts = 0;
    uint64_t ffInsts = 0;
    /** Compare each full-length iteration against Figure 3's
     *  committed expectations. */
    bool scoreboard = false;
    /** Scale the end-to-end times to the reference host (see
     *  HostReference). Set where the run's speed follows the host's
     *  load latency, which scaling by it steadies; where it does not,
     *  scaling only adds the latency's own noise. */
    bool scaleTimes = false;
};

const vpsim::Workload &
mustFind(const char *name)
{
    const vpsim::Workload *w = vpsim::findWorkload(name);
    if (w == nullptr)
        vpsim::fatal("workload '%s' is not registered", name);
    return *w;
}

/** splitmix64: the benchmark's own seeded sequence. */
class SeedSequence
{
  public:
    explicit SeedSequence(uint64_t seed) : _x(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (_x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    uint64_t _x;
};

/** Deterministic Fisher-Yates shuffle. */
template <typename T>
void
seededShuffle(std::vector<T> &v, uint64_t seed)
{
    SeedSequence seq(seed);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[seq.next() % i]);
}

// Every workload simulates pinned programs and data sets: the host cost
// of one mcf.long MTVP run varies fivefold across data-set seeds, which
// would drown any code change. The benchmark seed instead orders the
// work: which length of an iteration runs first, and the submission
// order of jobs that share a batch, drawn anew for every iteration so
// that peak memory, set by which jobs happen to run side by side, is
// the peak over many orders rather than that of one.

/** Data-set seed of every simulated program (the figures' default). */
constexpr uint64_t dataSeed = 1;

// ---------------------------------------------------------------------
// mtvp_long: the paper's headline mode on the long mcf variant, one
// 50k-instruction run per iteration, paired with a 5k run. At 50k the
// store-chain growth already halves kips, and a run takes under a
// second, so a 30 s benchmark run takes its median over some thirty
// iterations (at 100k, over six, which swung by a quarter between runs).
// ---------------------------------------------------------------------

constexpr uint64_t mtvpLongInsts = 50000;

Plan
mtvpLongPlan()
{
    const vpsim::Workload &wl = mustFind("mcf.long");
    SimConfig cfg;
    cfg.vpMode = VpMode::Mtvp;
    cfg.numContexts = 8;
    cfg.timeSkip = 1;
    cfg.seed = dataSeed;
    cfg.maxInsts = mtvpLongInsts;

    Plan p;
    p.jobs = [&wl, cfg](bool tenth, const std::string &, uint64_t) {
        JobSpec j;
        j.wl = &wl;
        j.cfg = cfg;
        j.cfg.maxInsts = tenth ? mtvpLongInsts / 10 : mtvpLongInsts;
        j.config = "mtvp8";
        j.label = vpsim::csprintf("mcf.long/mtvp8/%llu",
                                  static_cast<unsigned long long>(
                                      j.cfg.maxInsts));
        return Batches{{j}};
    };
    JobSpec program;
    program.wl = &wl;
    program.cfg = cfg;
    p.programs = {program};
    p.streamInsts = mtvpLongInsts;
    p.ffInsts = mtvpLongInsts;
    // Dependent loads of the chain walk bound the run.
    p.scaleTimes = true;
    return p;
}

// ---------------------------------------------------------------------
// figure_sweep: the Figure 3 job set (every INT and FP workload x
// baseline/STVP/MTVP-2/4/8, realistic Wang-Franklin predictor, 12k
// instructions) on one pool with no result cache, scored against the
// figure's committed expectations.
// ---------------------------------------------------------------------

constexpr uint64_t sweepInsts = 12000;
const char *const fig3Expected = "bench/expected/fig3_realistic_wf.json";

/** Figure 3's INT and FP sets: registry order, ".long" variants
 *  excluded (as the figure benches do). */
std::vector<const vpsim::Workload *>
sweepWorkloads()
{
    std::vector<const vpsim::Workload *> out;
    for (const vpsim::Workload *w : vpsim::allWorkloads()) {
        const std::string n = w->name();
        if (n.size() >= 5 && n.compare(n.size() - 5, 5, ".long") == 0)
            continue;
        out.push_back(w);
    }
    return out;
}

std::vector<std::pair<std::string, SimConfig>>
sweepConfigs()
{
    SimConfig base;
    base.vpMode = VpMode::None;
    base.seed = dataSeed;
    base.timeSkip = 1;
    auto wf = [&](VpMode mode, int ctxs) {
        SimConfig c = base;
        c.vpMode = mode;
        c.numContexts = ctxs;
        c.predictor = vpsim::PredictorKind::WangFranklin;
        c.selector = vpsim::SelectorKind::IlpPred;
        c.spawnLatency = 8;
        c.storeBufferSize = 128;
        return c;
    };
    return {
        {"baseline", base},
        {"stvp", wf(VpMode::Stvp, 1)},
        {"mtvp2", wf(VpMode::Mtvp, 2)},
        {"mtvp4", wf(VpMode::Mtvp, 4)},
        {"mtvp8", wf(VpMode::Mtvp, 8)},
    };
}

Plan
figureSweepPlan()
{
    Plan p;
    p.jobs = [](bool tenth, const std::string &, uint64_t order) {
        const uint64_t insts = tenth ? sweepInsts / 10 : sweepInsts;
        std::vector<JobSpec> batch;
        for (const vpsim::Workload *w : sweepWorkloads()) {
            for (const auto &[name, cfg] : sweepConfigs()) {
                JobSpec j;
                j.wl = w;
                j.cfg = cfg;
                j.cfg.maxInsts = insts;
                j.config = name;
                j.category = w->category() == vpsim::BenchCategory::Int
                                 ? "int"
                                 : "fp";
                j.label = vpsim::csprintf(
                    "%s/%s/%llu", w->name().c_str(), name.c_str(),
                    static_cast<unsigned long long>(insts));
                batch.push_back(std::move(j));
            }
        }
        seededShuffle(batch, order);
        return Batches{batch};
    };
    for (const vpsim::Workload *w : sweepWorkloads()) {
        JobSpec program;
        program.wl = w;
        program.cfg = sweepConfigs().back().second;
        p.programs.push_back(program);
    }
    p.streamInsts = sweepInsts;
    p.ffInsts = sweepInsts;
    p.scoreboard = true;
    // 160 cold starts on four workers sharing the host's memory: scaling
    // halved the spread of kips across runs on a drifting host.
    p.scaleTimes = true;
    return p;
}

// ---------------------------------------------------------------------
// sampled_long: Figure 7's sampled 10M-instruction mcf.long run under
// baseline, STVP and MTVP-8, sharing one fast-forward checkpoint in a
// fresh directory per iteration (one save, two restores).
// ---------------------------------------------------------------------

constexpr uint64_t sampledInsts = 10'000'000;
constexpr uint64_t sampledFf = 2'000'000;
constexpr int sampledIntervals = 20;
constexpr uint64_t sampledStreamInsts = 200000;

Plan
sampledLongPlan()
{
    const vpsim::Workload &wl = mustFind("mcf.long");
    SimConfig base;
    base.vpMode = VpMode::None;
    base.seed = dataSeed;
    base.timeSkip = 1;
    base.maxInsts = sampledInsts;
    base.ffInsts = sampledFf;
    base.sampleIntervals = sampledIntervals;
    base.sampleIntervalInsts = 5000;
    base.sampleWarmupInsts = 2000;

    Plan p;
    p.jobs = [&wl, base](bool tenth, const std::string &ckptDir,
                         uint64_t order) {
        auto job = [&](const char *name, VpMode mode, int ctxs) {
            JobSpec j;
            j.wl = &wl;
            j.cfg = base;
            j.cfg.vpMode = mode;
            j.cfg.numContexts = ctxs;
            j.cfg.checkpointDir = ckptDir;
            if (tenth) {
                j.cfg.maxInsts /= 10;
                j.cfg.ffInsts /= 10;
                j.cfg.sampleIntervals /= 10;
            }
            j.config = name;
            j.label = vpsim::csprintf(
                "mcf.long/%s/%llu", name,
                static_cast<unsigned long long>(j.cfg.maxInsts));
            return j;
        };
        // The baseline fast-forwards and saves; the others restore.
        std::vector<JobSpec> restoring = {job("stvp", VpMode::Stvp, 1),
                                          job("mtvp8", VpMode::Mtvp, 8)};
        seededShuffle(restoring, order);
        return Batches{{job("baseline", VpMode::None, 1)}, restoring};
    };
    JobSpec program;
    program.wl = &wl;
    program.cfg = base;
    p.programs = {program};
    p.streamSkip = sampledFf;
    p.streamInsts = sampledStreamInsts;
    p.ffInsts = sampledFf;
    // Fast-forward from warm caches does not follow the load latency:
    // scaling widened the spread of kips across runs, so times stay as
    // measured.
    return p;
}

// ---------------------------------------------------------------------
// Measurement loop.
// ---------------------------------------------------------------------

/** One iteration's jobs at one length. Outcomes keep no per-job stats
 *  once checked (the benchmark's own memory must not grow with the
 *  number of iterations), only these simulated-event totals. */
struct Iteration
{
    bool traced = false;
    double wall = 0.0; ///< Host seconds from first submit to last end.
    std::vector<JobSpec> specs;
    std::vector<JobOutcome> outcomes;
    double cycles = 0.0;
    double skippedCycles = 0.0;
    double spawns = 0.0;
    double promotes = 0.0;
    double poolPeakLive = 0.0;

    uint64_t
    insts() const
    {
        uint64_t n = 0;
        for (const JobOutcome &o : outcomes)
            n += o.streamInsts;
        return n;
    }
    double kips() const { return insts() / wall / 1000.0; }
};

/** Extra set-up-only samples per full iteration of a one-job
 *  workload: its set-up (about 10 ms on mtvp_long) would otherwise be
 *  timed once per several seconds, and its host cost drifts between
 *  two levels over a run. */
constexpr int extraSetupSamples = 3;

/** Runs iterations, checks every job, and keeps the counts. */
class Runner
{
  public:
    Runner(const Options &opts, const Plan &plan, Report &report)
        : _opts(opts), _plan(plan), _report(report),
          _pool(poolThreads()), _order(opts.seed ^ 0x5eedull)
    {
    }

    bool
    loadExpected()
    {
        if (!_plan.scoreboard)
            return true;
        const std::string path = _opts.root + "/" + fig3Expected;
        std::string err;
        if (!vpbench::loadExpectedFigure(path, _expected, &err)) {
            std::fprintf(stderr, "perfbench: cannot load %s: %s\n",
                         path.c_str(), err.c_str());
            return false;
        }
        return true;
    }

    Iteration
    iterate(bool tenth, bool traced)
    {
        const std::string dir = vpsim::csprintf(
            "%s/ckpt/%llu", _opts.outDir.c_str(),
            static_cast<unsigned long long>(_iterations++));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);

        Iteration it;
        it.traced = traced;
        _spans.setEnabled(traced);
        const Batches batches = _plan.jobs(tenth, dir, _order.next());
        const double t0 = hostNow();
        for (const std::vector<JobSpec> &b : batches) {
            std::vector<JobOutcome> outs =
                runBatch(_pool, b, _spans, _nextJob);
            it.specs.insert(it.specs.end(), b.begin(), b.end());
            it.outcomes.insert(it.outcomes.end(), outs.begin(), outs.end());
        }
        it.wall = hostNow() - t0;
        if (traced)
            _spans.record(tenth ? "iteration.tenth" : "iteration.full", 0,
                          t0, t0 + it.wall);
        _spans.setEnabled(false);
        std::filesystem::remove_all(dir);
        check(it, !tenth);

        for (JobOutcome &o : it.outcomes) {
            const vpsim::SimResult &r = o.result;
            it.cycles += static_cast<double>(r.cycles);
            it.skippedCycles += r.stat("sim.skippedCycles");
            it.spawns += r.stat("mtvp.spawns");
            it.promotes += r.stat("mtvp.promotes");
            it.poolPeakLive = std::max(it.poolPeakLive,
                                       static_cast<double>(o.poolPeakLive));
            o.result.stats.clear();
        }
        if (!tenth)
            sampleSetup(it);
        return it;
    }

    /**
     * setup_s: the full-length job set's set-up time, summed over its
     * jobs, each job's set-up taken as the median of its samples.
     */
    double
    setupSeconds() const
    {
        double total = 0.0;
        for (const auto &[label, v] : _setupSamples)
            total += median(v);
        return total;
    }

    /** Rerun one job through vpsim::runWorkload and require the stats
     *  the benchmark's own job runner produced for it. */
    void
    crossCheck(const JobSpec &spec)
    {
        const std::string dir = _opts.outDir + "/ckpt/crosscheck";
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        SimConfig cfg = spec.cfg;
        cfg.checkpointDir = dir;
        vpsim::SimResult ref = vpsim::runWorkload(cfg, *spec.wl);
        std::filesystem::remove_all(dir);
        const vpsim::SimResult &mine = _reference.at(spec.label);
        ++_report.attempted;
        if (ref.stats != mine.stats || ref.cycles != mine.cycles) {
            ++_report.failed;
            _report.problems.push_back(spec.label +
                                       ": runWorkload gives other stats");
        }
    }

    SpanLog &spans() { return _spans; }

  private:
    void
    sampleSetup(const Iteration &it)
    {
        for (size_t i = 0; i < it.specs.size(); ++i)
            _setupSamples[it.specs[i].label].push_back(
                it.outcomes[i].setup());
        if (it.specs.size() != 1 || it.specs.front().cfg.ffInsts != 0)
            return;
        const JobSpec &spec = it.specs.front();
        for (int k = 0; k < extraSetupSamples; ++k) {
            _setupSamples[spec.label].push_back(
                _pool.submit([&spec] { return setupOnly(spec); }).get());
        }
    }

    void
    check(const Iteration &it, bool full)
    {
        std::set<size_t> bad;
        for (size_t i = 0; i < it.specs.size(); ++i) {
            std::vector<std::string> p = checkJob(it.specs[i],
                                                  it.outcomes[i]);
            // Repeated runs of one job give identical stats.
            const vpsim::SimResult &r = it.outcomes[i].result;
            auto [ref, fresh] = _reference.emplace(it.specs[i].label, r);
            if (!fresh && (ref->second.stats != r.stats ||
                           ref->second.cycles != r.cycles)) {
                p.push_back(it.specs[i].label +
                            ": stats differ from an earlier run");
            }
            if (!p.empty()) {
                bad.insert(i);
                _report.problems.insert(_report.problems.end(), p.begin(),
                                        p.end());
            }
        }
        if (full && _plan.scoreboard)
            score(it, bad);
        _report.attempted += it.specs.size();
        _report.failed += bad.size();
    }

    /** Score the iteration's Figure 3 table; a point outside its fail
     *  tolerance marks the job it came from as failed. */
    void
    score(const Iteration &it, std::set<size_t> &bad)
    {
        std::map<std::pair<std::string, std::string>, size_t> index;
        for (size_t i = 0; i < it.specs.size(); ++i)
            index[{it.specs[i].wl->name(), it.specs[i].config}] = i;

        vpsim::json::Value report;
        report.kind = vpsim::json::Value::Kind::Object;
        vpsim::json::Value &rows = report.obj["rows"];
        rows.kind = vpsim::json::Value::Kind::Array;
        auto str = [](const std::string &s) {
            vpsim::json::Value v;
            v.kind = vpsim::json::Value::Kind::String;
            v.str = s;
            return v;
        };
        for (const auto &[key, i] : index) {
            if (key.second == "baseline")
                continue;
            auto base = index.find({key.first, "baseline"});
            if (base == index.end())
                continue;
            vpsim::json::Value row;
            row.kind = vpsim::json::Value::Kind::Object;
            row.obj["category"] = str(it.specs[i].category);
            row.obj["workload"] = str(key.first);
            row.obj["config"] = str(key.second);
            vpsim::json::Value pct;
            pct.kind = vpsim::json::Value::Kind::Number;
            pct.number = vpsim::percentSpeedup(
                it.outcomes[base->second].result, it.outcomes[i].result);
            row.obj["speedupPct"] = pct;
            rows.arr.push_back(std::move(row));
        }
        vpbench::FigureScore fs = vpbench::scoreFigure(
            _expected, report, sweepInsts, dataSeed, false);
        if (!fs.settingsNote.empty())
            _report.problems.push_back("scoreboard: " + fs.settingsNote);
        for (const vpbench::PointResult &pr : fs.results) {
            if (pr.status != vpbench::PointStatus::Fail &&
                pr.status != vpbench::PointStatus::Missing)
                continue;
            _report.problems.push_back(vpsim::csprintf(
                "scoreboard: %s/%s %s (measured %.3f, expected %.3f)",
                pr.point.workload.c_str(), pr.point.config.c_str(),
                vpbench::pointStatusName(pr.status), pr.measured,
                pr.point.expected));
            auto i = index.find({pr.point.workload, pr.point.config});
            if (i != index.end())
                bad.insert(i->second);
            else
                ++_report.failed;
        }
    }

    const Options &_opts;
    const Plan &_plan;
    Report &_report;
    vpsim::SimPool _pool;
    SpanLog _spans;
    vpbench::ExpectedFigure _expected;
    uint64_t _nextJob = 1;
    uint64_t _iterations = 0;
    SeedSequence _order;
    std::map<std::string, vpsim::SimResult> _reference;
    std::map<std::string, std::vector<double>> _setupSamples;
};

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<double>
kipsOf(const std::vector<Iteration> &its, bool traced)
{
    std::vector<double> v;
    for (const Iteration &it : its) {
        if (it.traced == traced)
            v.push_back(it.kips());
    }
    return v;
}

void
endToEnd(const Plan &plan, const std::vector<Iteration> &full,
         const std::vector<Iteration> &tenth, double setup,
         const std::vector<double> &refNs, Report &r)
{
    // kips_scaling pairs each full-length iteration with the tenth-length
    // one that ran next to it, so both see the same host speed, which
    // drifts over seconds on a shared machine.
    std::vector<double> kips, walls, tenthKips, scaling, lat;
    for (size_t i = 0; i < full.size(); ++i) {
        kips.push_back(full[i].kips());
        walls.push_back(full[i].wall);
        tenthKips.push_back(tenth[i].kips());
        scaling.push_back(full[i].kips() / tenth[i].kips());
        for (const JobOutcome &o : full[i].outcomes)
            lat.push_back(o.latency() * 1e3);
    }
    const double kTenth = median(tenthKips);
    // Host times scale to the reference host: slow = 2 means this host
    // took twice refLoadNs per dependent load during the run.
    const double slow =
        plan.scaleTimes ? median(refNs) / refLoadNs : 1.0;
    r.metrics = {
        {"kips", median(kips) * slow, "kips"},
        {"wall_s", median(walls) / slow, "s"},
        {"setup_s", setup / slow, "s"},
        {"kips_scaling", median(scaling), "ratio"},
        {"job_p50_ms", quantile(lat, 0.5) / slow, "ms"},
        {"job_p90_ms", quantile(lat, 0.9) / slow, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    r.notes.push_back(vpsim::csprintf(
        "iterations: %zu full + %zu tenth-length; job latency samples: "
        "%zu; kips at a tenth of the length: %.1f",
        full.size(), tenth.size(), lat.size(), kTenth * slow));
    const std::string scaled =
        plan.scaleTimes
            ? vpsim::csprintf("times above are scaled to %.0f ns", refLoadNs)
            : "times above are as measured";
    r.notes.push_back(vpsim::csprintf(
        "host: %.1f ns per dependent load (median of %zu); %s; kips as "
        "measured: %.2f",
        median(refNs), refNs.size(), scaled.c_str(), median(kips)));
}

void
perLayer(const Plan &plan, const Options &opts,
         const std::vector<Iteration> &full,
         const std::vector<double> &refNs, Report &r)
{
    std::vector<double> ctor, build, wait, run, save, load;
    double runSeconds = 0.0, useful = 0.0;
    for (const Iteration &it : full) {
        if (!it.traced)
            continue;
        for (const JobOutcome &o : it.outcomes) {
            ctor.push_back(o.ctor * 1e3);
            build.push_back(o.build * 1e3);
            wait.push_back(o.waited() * 1e3);
            run.push_back(o.latency() * 1e3);
            if (o.ckptSave > 0)
                save.push_back(o.ckptSave * 1e3);
            if (o.restored)
                load.push_back(o.ckptLoad * 1e3);
            runSeconds += o.run;
            useful += static_cast<double>(o.result.usefulInsts);
        }
    }

    // Simulated-event counts are deterministic: one iteration suffices.
    const Iteration &first = full.front();

    std::vector<Metric> &m = r.metrics;
    m.push_back({"host.ref_load_ns", median(refNs), "ns"});
    m.push_back({"core.ctor_ms", median(ctor), "ms"});
    m.push_back({"core.run_ns_per_inst",
                 useful > 0 ? runSeconds * 1e9 / useful : 0.0, "ns/inst"});
    m.push_back({"core.skip_frac",
                 first.cycles > 0 ? first.skippedCycles / first.cycles : 0.0,
                 "frac"});
    m.push_back({"core.spawns", first.spawns, "count"});
    m.push_back({"core.spawn_promote_frac",
                 first.spawns > 0 ? first.promotes / first.spawns : 0.0,
                 "frac"});
    m.push_back({"core.pool_peak_live", first.poolPeakLive, "count"});
    probeCoreKernels(m);
    m.push_back({"workloads.build_ms", median(build), "ms"});

    // Streams are captured outside every timed region.
    {
        std::vector<Stream> streams;
        for (const JobSpec &prog : plan.programs) {
            streams.push_back(recordStream(*prog.wl, prog.cfg,
                                           plan.streamSkip,
                                           plan.streamInsts));
        }
        probeLayers(streams, m);
    }

    double plain = 0, warm = 0;
    uint64_t insts = 0;
    std::vector<double> probeSave, probeLoad;
    for (const JobSpec &prog : plan.programs) {
        FastForwardProbe p = probeFastForward(*prog.wl, prog.cfg,
                                              plan.ffInsts,
                                              opts.outDir + "/ckpt/probe");
        plain += p.plainNs * p.insts;
        warm += p.warmNs * p.insts;
        insts += p.insts;
        probeSave.push_back(p.saveMs);
        probeLoad.push_back(p.loadMs);
    }
    m.push_back({"emu.ff_ns_per_inst", insts ? plain / insts : 0.0,
                 "ns/inst"});
    m.push_back({"emu.warm_ff_ns_per_inst", insts ? warm / insts : 0.0,
                 "ns/inst"});

    m.push_back({"sim.pool_wait_ms", median(wait), "ms"});
    m.push_back({"sim.pool_run_ms", median(run), "ms"});
    // Workloads that checkpoint report their own jobs' save/restore;
    // the others report the probe's save/restore of their warmed state.
    m.push_back({"sim.checkpoint_save_ms",
                 median(save.empty() ? probeSave : save), "ms"});
    m.push_back({"sim.checkpoint_load_ms",
                 median(load.empty() ? probeLoad : load), "ms"});
    const double untraced = median(kipsOf(full, false));
    m.push_back({"sim.tracing_overhead_frac",
                 untraced > 0 ? 1.0 - median(kipsOf(full, true)) / untraced
                              : 0.0,
                 "frac"});
}

} // namespace

bool
runBenchmark(const Options &opts, Report &report)
{
    Plan plan;
    if (opts.workload == "mtvp_long") {
        plan = mtvpLongPlan();
    } else if (opts.workload == "figure_sweep") {
        plan = figureSweepPlan();
    } else if (opts.workload == "sampled_long") {
        plan = sampledLongPlan();
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opts.workload.c_str());
        return false;
    }

    Runner runner(opts, plan, report);
    if (!runner.loadExpected())
        return false;

    // Untimed warm-up: page in code, let the allocator reach steady state
    // (and wait for the reference child to build its cycle).
    runner.iterate(true, false);
    HostReference &ref = HostReference::instance();
    ref.loadNs();

    // The traced run alternates traced and untraced iterations so the
    // spans' own cost shows as sim.tracing_overhead_frac. A new
    // iteration starts only if it should end at most half an iteration
    // past the deadline.
    std::vector<Iteration> full, tenth;
    std::vector<double> refNs;
    SeedSequence order(opts.seed);
    const double start = hostNow();
    constexpr size_t minIterations = 2;
    double lastIteration = 0.0;
    while (full.size() < minIterations ||
           hostNow() - start + lastIteration / 2 < opts.seconds) {
        const double t0 = hostNow();
        const bool traced = opts.trace && full.size() % 2 == 0;
        // The reference walk evicts the host's caches, so it runs just
        // before the full-length iteration, whose cold start weighs
        // least, and never just before a tenth-length one.
        if (order.next() & 1) {
            tenth.push_back(runner.iterate(true, traced));
            refNs.push_back(ref.loadNs());
            full.push_back(runner.iterate(false, traced));
        } else {
            refNs.push_back(ref.loadNs());
            full.push_back(runner.iterate(false, traced));
            tenth.push_back(runner.iterate(true, traced));
        }
        lastIteration = hostNow() - t0;
    }

    // The benchmark's job runner must agree with the public entry point:
    // rerun the last short iteration's jobs of one (seed-chosen)
    // program through vpsim::runWorkload.
    for (const JobSpec &spec : tenth.back().specs) {
        if (spec.wl == tenth.back().specs.front().wl)
            runner.crossCheck(spec);
    }

    report.runInsts = full.front().insts();
    if (opts.trace) {
        perLayer(plan, opts, full, refNs, report);
        const std::string dir = opts.outDir + "/spans";
        std::filesystem::create_directories(dir);
        const std::string path = vpsim::csprintf(
            "%s/%s-seed%llu.json", dir.c_str(), opts.workload.c_str(),
            static_cast<unsigned long long>(opts.seed));
        if (!runner.spans().writeChromeTrace(
                path, fingerprintJson(opts.workload, opts.seed,
                                      opts.seconds, 1, poolThreads(),
                                      report.runInsts)))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        report.notes.push_back("spans: " + path);
    } else {
        endToEnd(plan, full, tenth, runner.setupSeconds(), refNs, report);
    }
    return true;
}

} // namespace perfbench
