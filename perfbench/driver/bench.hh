/**
 * @file
 * The driver's workload interface and the record one timed pass
 * leaves behind.
 *
 * A workload prepares its inputs in setup() (which the driver repeats
 * to take a median), then runs any number of identical passes. Each
 * pass returns host-time subtotals, exact counts and model metrics;
 * run.py compares the counts and model metrics across passes
 * (tracing on and off) and turns the rest into the reported metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.hh"
#include "trace.hh"

namespace perfbench
{

/** What one timed pass measured and checked. */
struct PassResult
{
    bool traced = false;
    /** The untimed first pass of a run. */
    bool warmup = false;
    /** Host time of the pass, calibration slices excluded. */
    double wallSeconds = 0.0;
    /** Host time of the calibration slices run during the pass, and
     * how many there were. */
    double calSeconds = 0.0;
    std::uint64_t calSlices = 0;
    /** Host-time subtotals inside the pass (seconds), e.g. the cold
     * detailed runs of fig6; measured with tracing on or off. */
    std::map<std::string, double> seconds;
    /** Exact work counts; identical across passes of one seed. */
    std::map<std::string, std::uint64_t> counts;
    /** Model results (simulated, not host-time); exact as well. */
    std::map<std::string, double> model;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failure messages. */
    std::vector<std::string> failures;

    /** Count one checked operation; a false `ok` is a failure. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input of the pass from the seed, replacing any
     * earlier setup. Throws when an input cannot be built. */
    virtual void setup(Tracer &tracer) = 0;

    /** Exact counts of the last setup (e.g. static instructions). */
    virtual std::map<std::string, std::uint64_t> setupCounts() const = 0;

    /** One timed pass over the prepared inputs, calling
     * `cal.boundary()` between its jobs. `profile` turns on the core's
     * commit-slot accounting (traced passes only). */
    virtual PassResult pass(Tracer &tracer, Calibrator &cal,
                            bool profile) = 0;
};

std::unique_ptr<Workload> makeFig6(std::uint64_t seed,
                                   const std::string &work_dir);
std::unique_ptr<Workload> makeTraceEval(std::uint64_t seed);
std::unique_ptr<Workload> makeFuzzLockstep(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
