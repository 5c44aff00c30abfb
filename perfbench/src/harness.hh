/**
 * @file
 * Measurement harness of the host-performance benchmark: host clocks,
 * the in-memory span log, and the job runner that runs one simulation
 * through vpsim's public pieces (Workload::build, Cpu, CheckpointStore)
 * so each phase of a job can be timed on its own.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/sim_pool.hh"
#include "sim/simulation.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** Host seconds on the monotonic clock since the process started. */
double hostNow();

/** One recorded span: a named host-time interval inside one job (job 0
 *  is the benchmark itself; a job's own span is the parent of the
 *  spans that carry its id). */
struct Span
{
    std::string name;
    uint64_t job = 0;
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span recorder, written out once when the benchmark ends.
 * Recording is off unless enabled; record() is thread-safe so pool
 * workers can record their own job phases.
 */
class SpanLog
{
  public:
    void setEnabled(bool on) { _on = on; }

    void record(const char *name, uint64_t job, double start, double end);

    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON (Perfetto opens it);
     *  @p meta is stored verbatim as the "metadata" object. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &meta) const;

  private:
    std::atomic<bool> _on = false;
    mutable std::mutex _m;
    std::vector<Span> _spans;
};

/** One simulation job: a workload under a configuration. */
struct JobSpec
{
    std::string label;    ///< Unique within a workload, e.g. "mcf/mtvp8".
    std::string category; ///< "int" / "fp" (scoreboard rows).
    std::string config;   ///< "baseline", "stvp", "mtvp8", ...
    const vpsim::Workload *wl = nullptr;
    vpsim::SimConfig cfg;
};

/** What one job produced and how long each of its phases took. */
struct JobOutcome
{
    vpsim::SimResult result;
    /** Program-stream instructions covered: fast-forwarded (live or
     *  restored from a checkpoint) plus useful committed. */
    uint64_t streamInsts = 0;
    uint64_t poolPeakLive = 0; ///< Cpu::instPool().peakLive().
    bool restored = false;     ///< Started from a stored checkpoint.

    // Host seconds (hostNow() timestamps and phase durations).
    double submitted = 0.0;
    double started = 0.0;
    double finished = 0.0;
    double build = 0.0;
    double ctor = 0.0;
    double ckptLoad = 0.0;
    double ckptSave = 0.0;
    double run = 0.0;

    double latency() const { return finished - started; }
    double waited() const { return started - submitted; }
    /** Workload build, Cpu construction and checkpoint load/save. */
    double setup() const { return build + ctor + ckptLoad + ckptSave; }
};

/**
 * Run @p spec the way vpsim::runWorkload does (build, construct,
 * restore-or-fast-forward-and-save, run, collect stats), timing each
 * phase and recording it in @p spans under @p jobId.
 */
JobOutcome runJob(const JobSpec &spec, uint64_t jobId, SpanLog &spans);

/** Host seconds to build @p spec's workload and construct its Cpu. */
double setupOnly(const JobSpec &spec);

/** Output checks every job must pass; returns one line per failure. */
std::vector<std::string> checkJob(const JobSpec &spec,
                                  const JobOutcome &out);

/** Submit every job of @p batch to @p pool and wait for all of them;
 *  outcomes come back in @p batch order. */
std::vector<JobOutcome> runBatch(vpsim::SimPool &pool,
                                 const std::vector<JobSpec> &batch,
                                 SpanLog &spans, uint64_t &nextJobId);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Quantile @p q in [0,1] of @p v, linear between closest ranks. */
double quantile(std::vector<double> v, double q);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Host fingerprint stored with every result; @p runInsts is the
 *  program-stream length of the workload's full-length job set. */
std::string fingerprintJson(const std::string &workload, uint64_t seed,
                            double seconds, int trace, int poolThreads,
                            uint64_t runInsts);

/** Pool size every workload uses: nproc, capped at 4. */
int poolThreads();

/**
 * Host-speed reference. On a shared host the latency of a memory load
 * drifts by a quarter over minutes, and the speed of a run bound by
 * dependent loads with it, so such a run scales its end-to-end times to
 * a host on which one dependent load takes refLoadNs. A child process
 * times a walk of dependent loads over a 64 MiB random cycle on
 * request; its memory stays out of the benchmark's peak RSS.
 */
class HostReference
{
  public:
    /** The reference child, forked on the first call: make that call
     *  before any thread starts. Ended (and waited for) at exit. */
    static HostReference &instance();

    /** Host nanoseconds per dependent load, timed now. */
    double loadNs();

    ~HostReference();

  private:
    HostReference();

    int _request = -1;
    int _reply = -1;
    int _child = -1;
};

/** Dependent-load latency of the host that end-to-end times are scaled
 *  to: a round DRAM figure. Each run prints the host's own reading. */
constexpr double refLoadNs = 100.0;

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
