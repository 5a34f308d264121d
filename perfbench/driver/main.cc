/**
 * @file
 * The benchmark driver: runs one workload's set-up and an untimed
 * warm-up pass, then set-up and a timed pass in turn for a fixed
 * host-time budget, and writes what it saw as a raw JSON document (plus
 * the spans of the traced passes) for run.py to check and summarize.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out FILE --spans FILE --work-dir DIR
 *
 * With --trace 0 every pass is untraced. With --trace 1 set-up is
 * traced, and untraced and traced passes alternate, the traced ones
 * with the core's commit-slot profile on, so the two kinds can be
 * compared (tracing overhead, and identical counts).
 *
 * Every pass runs short calibration slices between its jobs
 * (calibrate.hh); their host time is left out of the pass's and
 * recorded beside it, so run.py can scale the pass to the host's speed.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hh"
#include "common/json.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    std::string outPath;
    std::string spansPath;
    std::string workDir = ".";
};

/** Timed passes per run, at the least (traced and untraced together). */
constexpr unsigned kMinPasses = 3;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload fig6|trace-eval|"
                 "fuzz-lockstep [--seed N] [--seconds S] [--trace 0|1]\n"
                 "       --out FILE [--spans FILE] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || text[0] == '-')
        usage(("bad value for " + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = parseUint(flag, value);
            a.seedGiven = true;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            a.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(a.seconds > 0.0))
                usage("bad value for --seconds");
        } else if (flag == "--trace") {
            std::uint64_t t = parseUint(flag, value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--out") {
            a.outPath = value;
        } else if (flag == "--spans") {
            a.spansPath = value;
        } else if (flag == "--work-dir") {
            a.workDir = value;
        } else {
            usage(("unknown argument " + flag).c_str());
        }
    }
    if (a.outPath.empty())
        usage("--out is required");
    return a;
}

/** The seed a run uses. Canonical seeds: 42 for the programs (as every
 * bench/ binary), 0xd1ff for fuzzing (as bench/fuzz_diff). */
std::uint64_t
effectiveSeed(const Args &a)
{
    if (a.seedGiven)
        return a.seed;
    return a.workload == "fuzz-lockstep" ? 0xd1ff : 42;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    std::uint64_t seed = effectiveSeed(a);
    if (a.workload == "fig6")
        return makeFig6(seed, a.workDir);
    if (a.workload == "trace-eval")
        return makeTraceEval(seed);
    if (a.workload == "fuzz-lockstep")
        return makeFuzzLockstep(seed);
    usage(("unknown workload '" + a.workload + "'").c_str());
}

void
writeCounts(dde::json::Writer &w, const char *key,
            const std::map<std::string, std::uint64_t> &counts)
{
    w.key(key);
    w.beginObject();
    for (const auto &[name, value] : counts)
        w.field(name, value);
    w.endObject();
}

void
writeReals(dde::json::Writer &w, const char *key,
           const std::map<std::string, double> &values)
{
    w.key(key);
    w.beginObject();
    for (const auto &[name, value] : values)
        w.field(name, value);
    w.endObject();
}

void
writePass(dde::json::Writer &w, const PassResult &p)
{
    w.beginObject();
    w.field("warmup", p.warmup);
    w.field("traced", p.traced);
    w.field("wall_s", p.wallSeconds);
    w.field("cal_s", p.calSeconds);
    w.field("cal_slices", p.calSlices);
    writeReals(w, "seconds", p.seconds);
    writeCounts(w, "counts", p.counts);
    writeReals(w, "model", p.model);
    w.field("attempted", p.attempted);
    w.field("failed", p.failed);
    w.key("failures");
    w.beginArray();
    for (const std::string &f : p.failures)
        w.value(f);
    w.endArray();
    w.endObject();
}

int
run(const Args &args)
{
    auto workload = makeWorkload(args);
    Tracer tracer;

    struct SetupRun
    {
        double seconds;
        std::map<std::string, std::uint64_t> counts;
    };
    // Set-up runs before the warm-up pass and again before every timed
    // pass, so that its median samples the host over the whole run, as
    // the passes do. Every pass uses the inputs of the set-up just
    // before it (they must count the same).
    std::vector<SetupRun> setups;
    auto setup = [&] {
        tracer.setEnabled(args.trace);
        auto start = std::chrono::steady_clock::now();
        {
            Tracer::Scope span(tracer, "setup");
            workload->setup(tracer);
        }
        setups.push_back({secondsSince(start), workload->setupCounts()});
    };
    setup();

    Calibrator cal;
    auto run_pass = [&](bool traced) {
        cal.reset();
        PassResult p = workload->pass(tracer, cal, traced);
        p.wallSeconds -= cal.seconds();
        p.calSeconds = cal.seconds();
        p.calSlices = cal.slices();
        return p;
    };

    // The first pass warms the allocator and the host's caches: it is
    // checked like the others but left out of the timed medians, and
    // the time budget starts after it.
    std::vector<PassResult> passes;
    tracer.setEnabled(false);
    passes.push_back(run_pass(false));
    passes.back().warmup = true;

    unsigned untraced = 0, traced = 0;
    auto start = std::chrono::steady_clock::now();
    for (;;) {
        bool enough = secondsSince(start) >= args.seconds &&
                      untraced + traced >= kMinPasses &&
                      (!args.trace || traced >= 1);
        if (enough)
            break;
        setup();
        // --trace 1 alternates untraced and traced passes.
        bool trace_this = args.trace && traced < untraced;
        tracer.setEnabled(trace_this);
        passes.push_back(run_pass(trace_this));
        ++(trace_this ? traced : untraced);
    }
    tracer.setEnabled(false);

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);

    std::ofstream os(args.outPath);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", args.outPath.c_str());
        return 1;
    }
    dde::json::Writer w(os);
    w.beginObject();
    w.field("schema", "perfbench.raw/1");
    w.field("workload", args.workload);
    w.field("seed", effectiveSeed(args));
    w.field("trace", args.trace);
    w.key("build");
    w.beginObject();
    w.field("compiler", PERFBENCH_COMPILER);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("ndebug", true);
    w.endObject();
    w.key("calibration");
    w.beginObject();
    w.field("slice_steps",
            static_cast<std::uint64_t>(Calibrator::kSliceSteps));
    w.field("reference_slice_s", Calibrator::kReferenceSliceSeconds);
    w.field("checksum", cal.checksum());
    w.endObject();
    w.key("setup");
    w.beginArray();
    for (const SetupRun &s : setups) {
        w.beginObject();
        w.field("seconds", s.seconds);
        writeCounts(w, "counts", s.counts);
        w.endObject();
    }
    w.endArray();
    w.key("passes");
    w.beginArray();
    for (const PassResult &p : passes)
        writePass(w, p);
    w.endArray();
    // ru_maxrss is in KiB on Linux.
    w.field("peak_rss_kb", static_cast<std::uint64_t>(usage_now.ru_maxrss));
    w.endObject();
    os << '\n';
    if (!os.flush()) {
        std::fprintf(stderr, "cannot write '%s'\n", args.outPath.c_str());
        return 1;
    }

    if (!args.spansPath.empty()) {
        std::ofstream spans(args.spansPath);
        tracer.writeJson(spans);
        spans << '\n';
        if (!spans.flush()) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         args.spansPath.c_str());
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    // Host times of an assert-enabled build are not comparable with
    // anything; refuse to measure one (bench/throughput
    // --require-release does the same).
    std::fprintf(stderr, "perfbench_driver: built without NDEBUG; "
                         "refusing to measure a debug build\n");
    return 2;
#endif
    Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
