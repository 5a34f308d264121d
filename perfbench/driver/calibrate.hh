/**
 * @file
 * Host-speed calibration, interleaved with the work of a pass.
 *
 * The benchmark runs on shared hosts whose speed drifts: on the 4-CPU
 * KVM guest it was written on, the same fig6 pass took anywhere from
 * 3.2 s to 6.6 s within half an hour, and the process's own CPU time
 * drifted with it (the guest lost under 2% to steal), so neither wall
 * nor CPU time of one process is steady. Work timed close to the pass
 * on the same CPU drifts with it, so the driver runs a fixed kernel in
 * short slices between the jobs of every pass, and run.py scales the
 * pass's host times by how fast those slices ran (benchlib.slowdown).
 *
 * The kernel is the benchmark's own code and depends on neither the
 * simulator nor the seed: an interpreter for a fixed random program
 * of eight-register instructions with a switch dispatch, loads and
 * stores into a 256 KiB table and data-dependent skips. Of the kernels
 * tried (pointer chases through 256 KiB to 16 MiB, a pure-ALU loop, a
 * branchy table walk and this interpreter with 256 KiB to 8 MiB of
 * data) the interpreters and the branchy walk tracked the passes
 * best, with a correlation of about 0.9 between log pass time and log
 * slice time; the smallest was kept.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "trace.hh"

namespace perfbench
{

class Calibrator
{
  public:
    /** Instructions one slice interprets: about 0.8 ms on the host
     * above. */
    static constexpr std::uint32_t kSliceSteps = 1u << 16;
    /** Host time one slice takes on the reference host, by definition.
     * Scaled times read as if measured on a host this fast. */
    static constexpr double kReferenceSliceSeconds = 0.8e-3;
    /** Work between two slices, at the least. */
    static constexpr double kPeriodSeconds = 0.01;

    Calibrator() : _code(kCodeWords), _data(kDataWords)
    {
        std::uint64_t s = 0x9e3779b97f4a7c15ull;
        auto next = [&s] {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            return static_cast<std::uint32_t>(s);
        };
        for (std::uint32_t &w : _code)
            w = next();
        for (std::uint32_t &w : _data)
            w = next();
    }

    /** Start counting for a new pass. */
    void
    reset()
    {
        _seconds = 0.0;
        _slices = 0;
        _last = std::chrono::steady_clock::now();
    }

    /** Called between two jobs of a pass: runs one slice when at least
     * kPeriodSeconds of other work has passed since the last one. */
    void
    boundary(Tracer &tracer)
    {
        auto now = std::chrono::steady_clock::now();
        if (std::chrono::duration<double>(now - _last).count() <
            kPeriodSeconds)
            return;
        {
            Tracer::Scope span(tracer, "calibrate");
            slice();
        }
        _last = std::chrono::steady_clock::now();
        _seconds += std::chrono::duration<double>(_last - now).count();
        ++_slices;
    }

    /** Host time spent in slices since reset(). */
    double seconds() const { return _seconds; }
    std::uint64_t slices() const { return _slices; }

    /** The interpreter's registers folded together: written out with
     * the results so the compiler must keep every step. */
    std::uint64_t
    checksum() const
    {
        std::uint64_t x = _pc;
        for (std::uint64_t r : _reg)
            x = x * 31 + r;
        return x;
    }

  private:
    static constexpr std::uint32_t kCodeWords = 4096;
    /** 256 KiB of data. */
    static constexpr std::uint32_t kDataWords = 1u << 16;

    /** Interprets kSliceSteps instructions of the fixed random program:
     * eight registers, a switch dispatch, loads and stores into the
     * data table and data-dependent skips. */
    void
    slice()
    {
        std::uint64_t *r = _reg;
        std::uint32_t pc = _pc;
        for (std::uint32_t n = 0; n < kSliceSteps; ++n) {
            std::uint32_t w = _code[pc];
            unsigned a = w & 7, b = (w >> 3) & 7, d = (w >> 6) & 7;
            switch ((w >> 9) & 7) {
              case 0:
                r[d] = r[a] + r[b];
                break;
              case 1:
                r[d] = r[a] ^ (r[b] >> 3);
                break;
              case 2:
                r[d] = r[a] * 0x9e3779b1u + w;
                break;
              case 3:
                r[d] = _data[(r[a] ^ w) % kDataWords];
                break;
              case 4:
                _data[(r[a] + w) % kDataWords] =
                    static_cast<std::uint32_t>(r[b]);
                break;
              case 5:
                if (r[a] & 1)
                    pc += w >> 28;
                break;
              case 6:
                r[d] = r[a] < r[b] ? r[a] : r[b] + 1;
                break;
              default:
                r[d] = (r[a] << 1) | (r[b] & 1);
                break;
            }
            pc = (pc + 1) % kCodeWords;
        }
        _pc = pc;
    }

    std::vector<std::uint32_t> _code;
    std::vector<std::uint32_t> _data;
    std::uint64_t _reg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint32_t _pc = 0;
    double _seconds = 0.0;
    std::uint64_t _slices = 0;
    std::chrono::steady_clock::time_point _last;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
