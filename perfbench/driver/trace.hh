/**
 * @file
 * In-memory span recorder for the benchmark's traced passes.
 *
 * A span is one timed call the benchmark makes into a module: its
 * name, start and end on the steady clock, the index of the span that
 * was open when it started (its parent; -1 at the root) and the job
 * it belongs to. Spans stay in memory and are written out once, when
 * the run ends; run.py turns them into per-layer self times.
 *
 * With tracing off a Scope costs one branch, so the untraced passes
 * that give the end-to-end metrics run the same code.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int32_t parent;
        std::uint32_t job;
    };

    /** Records one span for its lifetime (nothing when disabled). */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : _t(t)
        {
            if (_t._enabled)
                _index = _t.open(name);
        }
        ~Scope()
        {
            if (_index >= 0)
                _t.close(_index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &_t;
        std::int32_t _index = -1;
    };

    void setEnabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** Job id stamped on spans opened from now on (0 = no job). */
    void setJob(std::uint32_t job) { _job = job; }

    /** Write the spans as a JSON array of [name, start_ns, end_ns,
     * parent, job] rows. */
    void
    writeJson(std::ostream &os) const
    {
        os << '[';
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << (i ? ",\n" : "\n") << "[\"" << s.name << "\","
               << s.startNs << ',' << s.endNs << ',' << s.parent << ','
               << s.job << ']';
        }
        os << "\n]";
    }

  private:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::int32_t
    open(const char *name)
    {
        _spans.push_back(Span{name, nowNs(), 0, _open, _job});
        _open = static_cast<std::int32_t>(_spans.size() - 1);
        return _open;
    }

    void
    close(std::int32_t index)
    {
        Span &s = _spans[static_cast<std::size_t>(index)];
        s.endNs = nowNs();
        _open = s.parent;
    }

    bool _enabled = false;
    std::uint32_t _job = 0;
    std::int32_t _open = -1;
    std::vector<Span> _spans;
};

/** Wall-clock seconds between two steady-clock points. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
