/**
 * @file
 * perfbench: host-performance benchmark of vpsim.
 *
 *   perfbench --workload <mtvp_long|figure_sweep|sampled_long>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--root <checkout>] [--out-dir <scratch dir>]
 *
 * With --trace 0 it prints the end-to-end metrics, with --trace 1 the
 * per-layer metrics; either way a human-readable table, a host
 * fingerprint line, and, last, one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
 * when the run completed, whether or not every output check passed.
 * Workloads that follow the host's load latency report their times
 * scaled to a reference host (see HostReference).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--root DIR] "
                 "[--out-dir DIR]\n",
                 why);
    std::exit(2);
}

std::string
numberJson(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            opts.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v, nullptr, 0);
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            opts.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--root") {
            opts.root = v;
        } else if (a == "--out-dir") {
            opts.outDir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");

    vpsim::setVerbose(false);
    // Fork the host-speed reference before the pool starts its threads.
    HostReference::instance();
    Report report;
    if (!runBenchmark(opts, report))
        return 1;

    std::printf("perfbench %s seed=%llu trace=%d\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? 1 : 0);
    for (const Metric &m : report.metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const double failedFrac =
        static_cast<double>(report.failed) /
        static_cast<double>(report.attempted > 0 ? report.attempted : 1);
    std::printf("  %-32s %16.6g %s (%llu of %llu runs)\n", "failed_frac",
                failedFrac, "frac",
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string &n : report.notes)
        std::printf("  %s\n", n.c_str());
    for (const std::string &p : report.problems)
        std::printf("  FAILED CHECK: %s\n", p.c_str());
    std::printf("{\"fingerprint\": %s}\n",
                fingerprintJson(opts.workload, opts.seed, opts.seconds,
                                opts.trace ? 1 : 0, poolThreads(),
                                report.runInsts)
                    .c_str());

    std::string json = "{\"correct\": ";
    json += report.failed == 0 && report.problems.empty() ? "true"
                                                          : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                numberJson(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
