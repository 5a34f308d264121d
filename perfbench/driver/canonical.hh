/**
 * @file
 * The eight canonical programs at the paper's scale, generated from
 * the benchmark's seed and compiled with the reference options.
 */

#ifndef PERFBENCH_CANONICAL_HH
#define PERFBENCH_CANONICAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mir/compiler.hh"
#include "prog/program.hh"
#include "sim/simulator.hh"
#include "trace.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

/** Work multiplier of every reported experiment (bench/ uses 8). */
constexpr unsigned kPaperScale = 8;

struct CanonicalProgram
{
    std::string name;
    dde::prog::Program program;
};

/** Generate and compile the canonical programs, one `mir.compile`
 * span each (workload generator plus compiler). */
inline std::vector<CanonicalProgram>
compileCanonical(std::uint64_t seed, Tracer &tracer)
{
    std::vector<CanonicalProgram> out;
    for (const auto &w : dde::workloads::allWorkloads()) {
        Tracer::Scope span(tracer, "mir.compile");
        dde::workloads::Params params;
        params.seed = seed;
        params.scale = kPaperScale;
        out.push_back(CanonicalProgram{
            w.name, dde::mir::compile(w.make(params),
                                      dde::sim::referenceCompileOptions())});
    }
    return out;
}

inline std::uint64_t
staticInsts(const std::vector<CanonicalProgram> &programs)
{
    std::uint64_t n = 0;
    for (const CanonicalProgram &p : programs)
        n += p.program.numInsts();
    return n;
}

} // namespace perfbench

#endif // PERFBENCH_CANONICAL_HH
