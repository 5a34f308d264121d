/**
 * @file
 * Workload `fig6`: the paper's headline grid on the detailed core.
 *
 * Set-up generates and compiles the eight canonical programs, captures
 * each reference trace and derives the oracle labels. A pass submits
 * 72 jobs to a one-worker runner::SweepRunner: the 40 cold runs of
 * bench/fig6_speedup (base, elim and oracle on the contended machine,
 * base and elim on the wide one) and the 32 non-oracle points again
 * with 90% functional fast-forward. Each job composes the run from the
 * public calls sim::runOnCore is made of, so the emulator's
 * fast-forward, the Core constructor and Core::run are timed apart.
 * The pass then saves every row to a fresh runner::ResultStore, loads
 * it back, checks it field for field and renders the report.
 */

#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "canonical.hh"
#include "core/core.hh"
#include "emu/emulator.hh"
#include "runner/runner.hh"
#include "runner/store.hh"
#include "sim/simulator.hh"

namespace perfbench
{

namespace
{

using namespace dde;

/** One column of the fig6 grid. */
struct ConfigPoint
{
    std::string label;
    /** base, elim or oracle. */
    const char *mode;
    /** Span around Core::run on a cold run: core.run.<mode>. */
    const char *runSpan;
    core::CoreConfig cfg;
};

std::vector<ConfigPoint>
fig6Configs()
{
    core::CoreConfig elim_c = core::CoreConfig::contended();
    elim_c.elim.enable = true;
    core::CoreConfig oracle_c = elim_c;
    oracle_c.elim.oraclePredictor = true;
    core::CoreConfig elim_w = core::CoreConfig::wide();
    elim_w.elim.enable = true;
    return {
        {"base-cont", "base", "core.run.base", core::CoreConfig::contended()},
        {"elim-cont", "elim", "core.run.elim", elim_c},
        {"oracle-cont", "oracle", "core.run.oracle", oracle_c},
        {"base-wide", "base", "core.run.base", core::CoreConfig::wide()},
        {"elim-wide", "elim", "core.run.elim", elim_w},
    };
}

/** Columns of fig6Configs(), in that order. */
constexpr std::size_t kConfigs = 5;
constexpr std::size_t kOracleColumn = 2;

/** Commit-slot classes of the profile, as (counter, metric suffix). */
constexpr std::pair<const char *, const char *> kSlotCounters[] = {
    {"slotsUsefulCommit", "useful_commit"},
    {"slotsDeadEliminated", "dead_eliminated"},
    {"slotsFrontEndStarved", "front_end_starved"},
    {"slotsMispredictSquash", "mispredict_squash"},
    {"slotsIqFull", "iq_full"},
    {"slotsLsqFull", "lsq_full"},
    {"slotsPhysRegStall", "phys_reg_stall"},
    {"slotsCacheMissStall", "cache_miss_stall"},
    {"slotsExecStall", "exec_stall"},
    {"slotsVerifyStall", "verify_stall"},
};

/** The RunStats row of a finished core, as sim::runOnCore reports it
 * (the profile block is not stored; its slots go to the counts). */
sim::RunStats
snapshotStats(const core::Core &core, const std::string &name,
              std::uint64_t fast_forwarded)
{
    const stats::Group &g = core.stats();
    auto counter = [&](const char *stat) {
        return g.lookupCounter(stat).value();
    };
    sim::RunStats s;
    s.name = name;
    s.cycles = core.cycles();
    s.committed = core.committedInsts();
    s.ipc = core.ipc();
    s.halted = core.halted();
    s.fastForwarded = fast_forwarded;
    s.committedEliminated = counter("committedEliminated");
    s.predictedDead = counter("predictedDead");
    s.deadMispredicts = counter("deadMispredicts");
    s.branchMispredicts = counter("branchMispredicts");
    s.physRegAllocs = counter("physRegAllocs");
    s.rfReads = counter("rfReads");
    s.rfWrites = counter("rfWrites");
    s.dcacheLoads = counter("dcacheLoads");
    s.dcacheStores = counter("dcacheStores");
    s.detectorDead = counter("detectorDead");
    s.detectorLive = counter("detectorLive");
    s.clusterSteered = counter("clusterSteered");
    s.clusterSteeredIneff = counter("clusterSteeredIneff");
    s.clusterSteeredWrong = counter("clusterSteeredWrong");
    s.clusterBypassStalls = counter("clusterBypassStalls");
    s.clusterNarrowIssued = counter("clusterNarrowIssued");
    return s;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

class Fig6 : public Workload
{
  public:
    Fig6(std::uint64_t seed, std::string work_dir)
        : _seed(seed), _storeDir(std::move(work_dir) + "/fig6-store"),
          _configs(fig6Configs())
    {}

    void
    setup(Tracer &tracer) override
    {
        _programs.clear();
        for (CanonicalProgram &c : compileCanonical(_seed, tracer)) {
            Prepared p{std::move(c), {}, {}};
            {
                Tracer::Scope span(tracer, "emu.trace");
                p.reference = emu::runProgram(p.canonical.program);
            }
            {
                Tracer::Scope span(tracer, "sim.oracle_labels");
                p.oracleLabels = sim::computeOracleLabels(
                    p.canonical.program, p.reference.trace,
                    _configs[kOracleColumn].cfg.elim.detector);
            }
            _programs.push_back(std::move(p));
        }
    }

    std::map<std::string, std::uint64_t>
    setupCounts() const override
    {
        std::map<std::string, std::uint64_t> n;
        for (const Prepared &p : _programs) {
            n["mir.static_insts"] += p.canonical.program.numInsts();
            n["emu.trace_insts"] += p.reference.trace.size();
        }
        return n;
    }

    PassResult pass(Tracer &tracer, Calibrator &cal,
                    bool profile) override;

  private:
    struct Prepared
    {
        CanonicalProgram canonical;
        emu::RunResult reference;
        std::vector<std::vector<bool>> oracleLabels;
    };

    runner::JobResult runJob(Tracer &tracer, const Prepared &p,
                             const ConfigPoint &point,
                             const core::CoreConfig &cfg, bool ffwd,
                             PassResult &out);

    std::uint64_t _seed;
    std::string _storeDir;
    std::vector<ConfigPoint> _configs;
    std::vector<Prepared> _programs;
};

runner::JobResult
Fig6::runJob(Tracer &tracer, const Prepared &p, const ConfigPoint &point,
             const core::CoreConfig &cfg, bool ffwd, PassResult &out)
{
    Tracer::Scope job_span(tracer, "bench.job");
    const prog::Program &program = p.canonical.program;
    auto start = std::chrono::steady_clock::now();

    std::uint64_t fast_forwarded = 0;
    std::unique_ptr<emu::Checkpoint> resume;
    if (ffwd) {
        Tracer::Scope span(tracer, "emu.ffwd");
        emu::Emulator emulator(program);
        fast_forwarded =
            emulator.fastForward(p.reference.instCount * 9 / 10);
        resume = std::make_unique<emu::Checkpoint>(emulator.checkpoint());
    }
    std::unique_ptr<core::Core> core;
    {
        Tracer::Scope span(tracer, "core.init");
        core = std::make_unique<core::Core>(program, cfg, resume.get());
        if (cfg.elim.enable && cfg.elim.oraclePredictor)
            core->setOracleLabels(p.oracleLabels);
    }
    {
        Tracer::Scope span(tracer,
                           ffwd ? "core.run.ffwd_suffix" : point.runSpan);
        core->run();
    }
    out.seconds[ffwd ? "ffwd_jobs_s" : "cold_jobs_s"] +=
        secondsSince(start);

    if (!core->halted())
        throw std::runtime_error("the run did not halt");
    {
        Tracer::Scope span(tracer, "sim.check");
        sim::SimResult result;
        result.output = core->output();
        result.memory = core->memoryState();
        if (!sim::observablyEqual(result, p.reference)) {
            throw std::runtime_error(
                "output or final memory differs from the reference "
                "emulator");
        }
    }

    // Exact work counts of this run.
    auto &n = out.counts;
    const stats::Group &g = core->stats();
    std::uint64_t cycles = core->cycles();
    std::uint64_t committed = core->committedInsts();
    n["core.cycles"] += cycles;
    n["core.committed"] += committed;
    n["core.fetched"] += g.lookupCounter("fetched").value();
    n["core.branch_mispredicts"] +=
        g.lookupCounter("branchMispredicts").value();
    n["core.elim.predicted_dead"] +=
        g.lookupCounter("predictedDead").value();
    n["core.elim.committed_eliminated"] +=
        g.lookupCounter("committedEliminated").value();
    n["core.elim.dead_mispredicts"] +=
        g.lookupCounter("deadMispredicts").value();
    if (ffwd) {
        n["emu.ffwd_insts"] += fast_forwarded;
        n["core.committed.ffwd_suffix"] += committed;
        n["core.cycles.ffwd_suffix"] += cycles;
    } else {
        n["core.committed.cold"] += committed;
        n[std::string("core.cycles.") + point.mode] += cycles;
    }
    if (const core::BlockCache *bc = core->blockCache()) {
        n["core.blockcache.hits"] += bc->stats().hits;
        n["core.blockcache.misses"] += bc->stats().misses;
    }
    cache::Hierarchy &caches = core->caches();
    for (cache::Cache *c : {&caches.l1i(), &caches.l1d(), &caches.l2()}) {
        n["cache." + c->name() + ".accesses"] += c->accesses();
        n["cache." + c->name() + ".misses"] += c->misses();
    }
    if (cfg.profile.enable) {
        for (const auto &[stat, suffix] : kSlotCounters) {
            n[std::string("core.slots.") + suffix] +=
                g.lookupCounter(stat).value();
        }
    }

    runner::JobResult row;
    row.hasStats = true;
    row.stats = snapshotStats(*core, program.name(), fast_forwarded);
    n["cache.dcache_accesses"] += row.stats.dcacheAccesses();
    return row;
}

PassResult
Fig6::pass(Tracer &tracer, Calibrator &cal, bool profile)
{
    PassResult out;
    out.traced = tracer.enabled();
    std::filesystem::remove_all(_storeDir);
    auto start = std::chrono::steady_clock::now();
    {
        Tracer::Scope pass_span(tracer, "pass");

        runner::SweepOptions opts;
        opts.threads = 1;
        runner::SweepRunner sweep(opts);
        std::vector<std::string> keys;
        std::uint32_t job = 0;
        for (bool ffwd : {false, true}) {
            for (const Prepared &p : _programs) {
                for (const ConfigPoint &point : _configs) {
                    if (ffwd && point.cfg.elim.oraclePredictor)
                        continue;
                    core::CoreConfig cfg = point.cfg;
                    cfg.profile.enable = profile;
                    std::string label = (ffwd ? "ffwd/" : "") +
                                        point.label + ":" +
                                        p.canonical.name;
                    keys.push_back("perfbench.fig6|seed=" +
                                   std::to_string(_seed) + "|" + label);
                    sweep.add(label, [this, &tracer, &cal, &out,
                                      prepared = &p, column = &point, cfg,
                                      ffwd,
                                      id = ++job](runner::JobContext &) {
                        cal.boundary(tracer);
                        tracer.setJob(id);
                        return runJob(tracer, *prepared, *column, cfg, ffwd,
                                      out);
                    });
                }
            }
        }

        runner::SweepReport report;
        {
            Tracer::Scope span(tracer, "runner.sweep");
            report = sweep.run();
        }
        tracer.setJob(0);
        for (const runner::JobResult &r : report.results)
            out.check(r.ok, r.label + ": " + r.error);

        // Mean per-program IPC speedup over the contended baseline,
        // as bench/fig6_speedup computes it.
        double s_cont = 0, s_oracle = 0, s_wide = 0;
        for (std::size_t i = 0; i < _programs.size(); ++i) {
            const runner::JobResult *r = &report.results[kConfigs * i];
            bool all_ok = true;
            for (std::size_t c = 0; c < kConfigs; ++c)
                all_ok = all_ok && r[c].ok;
            if (!all_ok)
                continue;
            s_cont += 100.0 * (r[1].stats.ipc / r[0].stats.ipc - 1.0);
            s_oracle += 100.0 * (r[2].stats.ipc / r[0].stats.ipc - 1.0);
            s_wide += 100.0 * (r[4].stats.ipc / r[3].stats.ipc - 1.0);
        }
        double n_prog = static_cast<double>(_programs.size());
        out.model["elim_speedup_pct"] = s_cont / n_prog;
        out.model["oracle_speedup_pct"] = s_oracle / n_prog;
        out.model["wide_elim_speedup_pct"] = s_wide / n_prog;

        runner::StoreOptions store_opts;
        store_opts.dir = _storeDir;
        runner::ResultStore store(store_opts);
        {
            Tracer::Scope span(tracer, "runner.store_save");
            for (std::size_t i = 0; i < keys.size(); ++i)
                store.save(keys[i], report.results[i]);
        }
        runner::SweepReport reloaded;
        std::vector<bool> found(keys.size(), false);
        {
            Tracer::Scope span(tracer, "runner.store_load");
            for (std::size_t i = 0; i < keys.size(); ++i) {
                auto row = store.load(keys[i]);
                found[i] = row.has_value();
                reloaded.results.push_back(row ? std::move(*row)
                                               : runner::JobResult{});
            }
        }
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const std::string &v = store.version();
            out.check(found[i] &&
                          runner::ResultStore::renderEntry(
                              v, keys[i], report.results[i]) ==
                              runner::ResultStore::renderEntry(
                                  v, keys[i], reloaded.results[i]),
                      "store row '" + report.results[i].label +
                          "' does not reload field for field");
        }
        std::ostringstream json;
        {
            Tracer::Scope span(tracer, "runner.report_json");
            reloaded.writeJson(json);
        }
        out.counts["runner.rows"] = reloaded.size();
        out.counts["runner.report_bytes"] = json.str().size();
        out.counts["runner.report_fnv1a"] = fnv1a(json.str());
    }
    out.wallSeconds = secondsSince(start);
    std::filesystem::remove_all(_storeDir);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeFig6(std::uint64_t seed, const std::string &work_dir)
{
    return std::make_unique<Fig6>(seed, work_dir);
}

} // namespace perfbench
