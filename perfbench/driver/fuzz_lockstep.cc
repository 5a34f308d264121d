/**
 * @file
 * Workload `fuzz-lockstep`: a differential campaign of small random
 * programs under the lockstep oracle (bench/fuzz_diff's grid).
 *
 * Set-up generates kPrograms verify::fuzzProgram programs at scale 1
 * from seeds derived as bench/fuzz_diff derives them, and runs each on
 * the emulator once to size its cycle budget and fast-forward depth.
 * A pass runs every program under every point of
 * verify::fuzzConfigGrid(false) through verify::runLockstep: thousands
 * of sub-millisecond runs, dominated by core construction, the
 * fast-forward handoff and the per-commit emulator step.
 */

#include <stdexcept>

#include "bench.hh"
#include "emu/emulator.hh"
#include "runner/runner.hh"
#include "verify/fuzzdiff.hh"
#include "verify/lockstep.hh"
#include "verify/progfuzz.hh"

namespace perfbench
{

namespace
{

using namespace dde;

/** Programs per campaign: 300 x 12 grid points = 3600 lockstep jobs.
 * Program sizes vary with the seed; 300 of them keep a pass's work
 * within about 2% across seeds. */
constexpr std::uint64_t kPrograms = 300;

/** Emulator cap of bench/fuzz_diff: generated programs terminate by
 * construction, so reaching it is a generator bug. */
constexpr std::uint64_t kFuzzEmuCap = 5'000'000;

class FuzzLockstep : public Workload
{
  public:
    explicit FuzzLockstep(std::uint64_t seed)
        : _seed(seed), _grid(verify::fuzzConfigGrid(false))
    {}

    void
    setup(Tracer &tracer) override
    {
        _programs.clear();
        for (std::uint64_t s = 0; s < kPrograms; ++s) {
            Program p{runner::deriveSeed(_seed, s), prog::Program(), 0};
            {
                Tracer::Scope span(tracer, "verify.fuzz_program");
                p.program = verify::fuzzProgram(p.seed);
            }
            {
                Tracer::Scope span(tracer, "emu.ref");
                p.refInsts =
                    emu::runProgram(p.program, kFuzzEmuCap, false)
                        .instCount;
            }
            _programs.push_back(std::move(p));
        }
    }

    std::map<std::string, std::uint64_t>
    setupCounts() const override
    {
        std::map<std::string, std::uint64_t> n;
        for (const Program &p : _programs) {
            n["verify.static_insts"] += p.program.numInsts();
            n["emu.ref_insts"] += p.refInsts;
        }
        return n;
    }

    PassResult
    pass(Tracer &tracer, Calibrator &cal, bool) override
    {
        PassResult out;
        out.traced = tracer.enabled();
        auto &n = out.counts;
        auto start = std::chrono::steady_clock::now();
        {
            Tracer::Scope pass_span(tracer, "pass");
            std::uint32_t job = 0;
            for (const Program &p : _programs) {
                for (const verify::FuzzDiffConfigPoint &point : _grid) {
                    cal.boundary(tracer);
                    tracer.setJob(++job);
                    // Budget and depth as bench/fuzz_diff sets them.
                    verify::LockstepOptions opts;
                    opts.maxCycles = 100'000 + 30 * p.refInsts;
                    if (point.fastForward)
                        opts.fastForwardInsts = p.refInsts / 2;
                    verify::LockstepResult r;
                    {
                        Tracer::Scope span(tracer,
                                           point.fastForward
                                               ? "verify.lockstep.ff"
                                               : "verify.lockstep");
                        r = verify::runLockstep(p.program, point.cfg,
                                                opts);
                    }
                    out.check(r.ok, point.name + ":s" +
                                        std::to_string(p.seed) + ": " +
                                        r.report.summary());
                    n["verify.jobs"] += 1;
                    n["verify.divergences"] += r.diverged ? 1 : 0;
                    n["verify.committed"] += r.committed;
                    n["verify.committed_eliminated"] +=
                        r.committedEliminated;
                    n["verify.cycles"] += r.cycles;
                    n["verify.fast_forwarded"] += r.fastForwarded;
                }
            }
            tracer.setJob(0);
        }
        out.wallSeconds = secondsSince(start);
        return out;
    }

  private:
    struct Program
    {
        std::uint64_t seed;
        prog::Program program;
        std::uint64_t refInsts;
    };

    std::uint64_t _seed;
    std::vector<verify::FuzzDiffConfigPoint> _grid;
    std::vector<Program> _programs;
};

} // namespace

std::unique_ptr<Workload>
makeFuzzLockstep(std::uint64_t seed)
{
    return std::make_unique<FuzzLockstep>(seed);
}

} // namespace perfbench
