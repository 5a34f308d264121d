/**
 * @file
 * Workload `trace-eval`: the characterization and predictor figures,
 * which never touch the detailed core.
 *
 * Set-up generates and compiles the eight canonical programs. A pass
 * captures each reference trace with emu::runProgram, runs
 * deadness::analyze over it and replays it through
 * predictor::evaluateOnTrace for the Table 1 geometry sweep
 * (bench/tab1_predictor_sweep), the Fig. 4 future-depth sweep
 * (bench/fig4_future_cf) and the four zoo kinds fitted to the paper's
 * 5 KB budget (bench/tab1_pareto).
 */

#include <stdexcept>

#include "bench.hh"
#include "canonical.hh"
#include "deadness/analysis.hh"
#include "emu/emulator.hh"
#include "predictor/trace_eval.hh"
#include "predictor/zoo.hh"

namespace perfbench
{

namespace
{

using namespace dde;

struct Variant
{
    predictor::TraceEvalConfig cfg;
    /** The paper-table default: the source of dead_pred_*. */
    bool isDefault = false;
};

std::vector<Variant>
traceEvalVariants()
{
    std::vector<Variant> v;
    // Table 1: table size, tag width and firing threshold.
    for (unsigned entries : {256u, 512u, 1024u, 2048u, 4096u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.entries = entries;
        v.push_back(
            {cfg, entries == predictor::DeadPredictorConfig{}.entries});
    }
    for (unsigned tag : {0u, 4u, 8u, 12u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.tagBits = tag;
        v.push_back({cfg});
    }
    for (unsigned thr : {1u, 2u, 3u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.threshold = thr;
        v.push_back({cfg});
    }
    // Fig. 4: future-signature depth and its ablations.
    for (unsigned depth : {0u, 1u, 2u, 4u, 6u, 8u, 12u, 16u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.futureDepth = depth;
        v.push_back({cfg});
    }
    {
        predictor::TraceEvalConfig cfg;
        cfg.oracleFuture = true;
        v.push_back({cfg});
    }
    {
        predictor::TraceEvalConfig cfg;
        cfg.frontend.direction = predictor::DirectionPredictor::Tournament;
        v.push_back({cfg});
    }
    {
        predictor::TraceEvalConfig cfg;
        cfg.lastOutcomeBaseline = true;
        v.push_back({cfg});
    }
    // The zoo at the paper's 5 KB budget, depth 8.
    for (predictor::DeadPredictorKind kind : predictor::kAllKinds) {
        auto fit = predictor::fitBudget(kind, 40960, 8);
        predictor::TraceEvalConfig cfg;
        cfg.predictor = fit.paper;
        cfg.zoo = fit.zoo;
        v.push_back({cfg});
    }
    return v;
}

/** Span name of one evaluation, split by zoo kind. */
const char *
evalSpan(predictor::DeadPredictorKind kind)
{
    switch (kind) {
      case predictor::DeadPredictorKind::Paper:
        return "predictor.eval.paper";
      case predictor::DeadPredictorKind::Tage:
        return "predictor.eval.tage";
      case predictor::DeadPredictorKind::Perceptron:
        return "predictor.eval.perceptron";
      case predictor::DeadPredictorKind::Hybrid:
        return "predictor.eval.hybrid";
    }
    throw std::logic_error("unknown dead-predictor kind");
}

class TraceEval : public Workload
{
  public:
    explicit TraceEval(std::uint64_t seed)
        : _seed(seed), _variants(traceEvalVariants())
    {}

    void
    setup(Tracer &tracer) override
    {
        _programs = compileCanonical(_seed, tracer);
    }

    std::map<std::string, std::uint64_t>
    setupCounts() const override
    {
        return {{"mir.static_insts", staticInsts(_programs)}};
    }

    PassResult
    pass(Tracer &tracer, Calibrator &cal, bool) override
    {
        PassResult out;
        out.traced = tracer.enabled();
        auto &n = out.counts;
        std::uint64_t tp = 0, fp = 0, dead = 0;
        auto start = std::chrono::steady_clock::now();
        {
            Tracer::Scope pass_span(tracer, "pass");
            std::uint32_t job = 0;
            for (const CanonicalProgram &p : _programs) {
                cal.boundary(tracer);
                tracer.setJob(++job);
                emu::RunResult ref;
                {
                    Tracer::Scope span(tracer, "emu.trace");
                    ref = emu::runProgram(p.program);
                }
                out.check(ref.trace.size() == ref.instCount,
                          p.name + ": trace length differs from the "
                                   "instruction count");
                n["emu.trace_insts"] += ref.trace.size();

                deadness::Analysis a;
                {
                    Tracer::Scope span(tracer, "deadness.analyze");
                    a = deadness::analyze(p.program, ref.trace);
                }
                out.check(a.dead.size() == ref.trace.size() &&
                              a.dynDead <= a.dynCandidates &&
                              a.dynCandidates <= a.dynTotal,
                          p.name + ": inconsistent deadness analysis");
                n["deadness.dyn_total"] += a.dynTotal;
                n["deadness.dyn_dead"] += a.dynDead;

                for (const Variant &v : _variants) {
                    cal.boundary(tracer);
                    predictor::TraceEvalResult r;
                    {
                        Tracer::Scope span(tracer,
                                           evalSpan(v.cfg.zoo.kind));
                        r = predictor::evaluateOnTrace(p.program,
                                                       ref.trace, v.cfg);
                    }
                    out.check(r.labeledDead + r.labeledLive +
                                      r.unresolved ==
                                  r.candidates,
                              p.name + ": evaluation labels do not "
                                       "partition the candidates");
                    n["predictor.evals"] += 1;
                    n["predictor.replayed"] += ref.trace.size();
                    n["predictor.candidates"] += r.candidates;
                    n["predictor.predicted_dead"] += r.predictedDead;
                    n["predictor.true_positives"] += r.truePositives;
                    n["predictor.false_positives"] += r.falsePositives;
                    if (v.isDefault) {
                        tp += r.truePositives;
                        fp += r.falsePositives;
                        dead += r.labeledDead;
                    }
                }
            }
            tracer.setJob(0);
        }
        out.wallSeconds = secondsSince(start);
        // Aggregated as bench/tab1_predictor_sweep aggregates its rows.
        out.model["dead_pred_accuracy_pct"] =
            tp + fp ? 100.0 * double(tp) / double(tp + fp) : 0.0;
        out.model["dead_pred_coverage_pct"] =
            dead ? 100.0 * double(tp) / double(dead) : 0.0;
        return out;
    }

  private:
    std::uint64_t _seed;
    std::vector<Variant> _variants;
    std::vector<CanonicalProgram> _programs;
};

} // namespace

std::unique_ptr<Workload>
makeTraceEval(std::uint64_t seed)
{
    return std::make_unique<TraceEval>(seed);
}

} // namespace perfbench
