/**
 * @file
 * The benchmark's workloads and the measurement loop that runs them.
 * Every workload is a closed batch from one process on a SimPool of at
 * most nproc workers. One iteration runs the workload's jobs at full
 * length, then the same jobs at a tenth of that length; iterations
 * repeat until the requested host seconds have passed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";       ///< Repository checkout (bench/expected).
    std::string outDir = ".";     ///< Scratch: checkpoints, span files.
};

/** What a run reports: checked job counts and the metrics. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Program-stream instructions of one full-length job set. */
    uint64_t runInsts = 0;
    std::vector<std::string> problems;
    std::vector<Metric> metrics;
    /** Human-readable lines (sample counts, derived ratios). */
    std::vector<std::string> notes;
};

/** Run @p opts.workload; false (with a message on stderr) when the
 *  workload is unknown or its inputs cannot be loaded. */
bool runBenchmark(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
