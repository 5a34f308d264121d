"""Arithmetic of the benchmark: statistics, span self times, metric names
and the derivation of every reported metric from the driver's raw output.

Kept free of I/O so that test_benchlib.py can check it on hand-built data.
"""

import re
import statistics

WORKLOADS = ("fig6", "trace-eval", "fuzz-lockstep")

# The modules whose calls the benchmark times. A span named
# "<layer>.<call>" belongs to that layer; "bench.*" spans and the pass
# and set-up roots are the benchmark's own code.
LAYERS = ("mir", "emu", "sim", "core", "cache", "predictor", "deadness",
          "verify", "runner")

# End-to-end metrics: (unit, better, bound). Every workload reports all
# of them; measured with tracing off. Host times (and mips) are scaled
# to the reference host speed, see slowdown().
END_TO_END = {
    "pass_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "mips": ("Minst/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Per-layer metrics from the traced run: (unit, better). A metric that
# does not apply to a workload reads 0 there.
SLOT_CLASSES = ("useful_commit", "dead_eliminated", "front_end_starved",
                "mispredict_squash", "iq_full", "lsq_full",
                "phys_reg_stall", "cache_miss_stall", "exec_stall",
                "verify_stall")
ZOO_KINDS = ("paper", "tage", "perceptron", "hybrid")
RUN_MODES = ("base", "elim", "oracle", "ffwd_suffix")

PER_LAYER = {
    "mir.compile_ms": ("ms", "lower"),
    "mir.static_insts": ("count", "lower"),
    "emu.trace_ms": ("ms", "lower"),
    "emu.trace_insts": ("count", "lower"),
    "emu.ref_ms": ("ms", "lower"),
    "emu.ffwd_ms": ("ms", "lower"),
    "emu.ffwd_insts": ("count", "higher"),
    "emu.ffwd_mips": ("Minst/s", "higher"),
    "sim.oracle_labels_ms": ("ms", "lower"),
    "sim.check_ms": ("ms", "lower"),
    "core.init_ms": ("ms", "lower"),
    **{"core.run_ms." + m: ("ms", "lower") for m in RUN_MODES},
    "core.host_ns_per_cycle.base": ("ns/cycle", "lower"),
    "core.host_ns_per_cycle.elim": ("ns/cycle", "lower"),
    "core.cycles": ("count", "lower"),
    "core.committed": ("count", "higher"),
    "core.fetched": ("count", "lower"),
    "core.fetch.useful_ratio": ("ratio", "higher"),
    "core.blockcache.hit_ratio": ("ratio", "higher"),
    "core.elim.predicted_dead": ("count", "higher"),
    "core.elim.committed_eliminated": ("count", "higher"),
    "core.elim.dead_mispredicts": ("count", "lower"),
    "core.elim.useful_ratio": ("ratio", "higher"),
    "core.branch_mispredicts": ("count", "lower"),
    **{"core.slots.%s_frac" % c: ("ratio", "lower") for c in SLOT_CLASSES},
    "cache.l1i.miss_ratio": ("ratio", "lower"),
    "cache.l1d.miss_ratio": ("ratio", "lower"),
    "cache.l2.miss_ratio": ("ratio", "lower"),
    "cache.dcache_accesses": ("count", "lower"),
    "deadness.analyze_ms": ("ms", "lower"),
    "deadness.dead_frac_pct": ("%", "higher"),
    "predictor.eval_ms": ("ms", "lower"),
    **{"predictor.eval_ms." + k: ("ms", "lower") for k in ZOO_KINDS},
    "predictor.evals": ("count", "higher"),
    "predictor.eval_ns_per_inst": ("ns/inst", "lower"),
    "verify.fuzz_program_ms": ("ms", "lower"),
    "verify.lockstep_ms": ("ms", "lower"),
    "verify.lockstep_ms.ff": ("ms", "lower"),
    "verify.jobs": ("count", "higher"),
    "verify.divergences": ("count", "lower"),
    "verify.host_us_per_job": ("us/job", "lower"),
    "runner.sweep_self_ms": ("ms", "lower"),
    "runner.store_save_ms": ("ms", "lower"),
    "runner.store_load_ms": ("ms", "lower"),
    "runner.report_json_ms": ("ms", "lower"),
    "bench.self_ms": ("ms", "lower"),
    "bench.pass_raw_s": ("s", "lower"),
    "bench.cal_slice_ms": ("ms", "lower"),
    "trace_overhead_pct": ("%", "lower"),
    "trace_coverage_pct": ("%", "higher"),
    "ffwd_mips": ("Minst/s", "higher"),
    "elim_speedup_pct": ("%", "higher"),
    "dead_pred_accuracy_pct": ("%", "higher"),
    "dead_pred_coverage_pct": ("%", "higher"),
}

# Metrics printed for people on the --trace 0 run of the workloads they
# apply to, beside the end-to-end set: (unit, workloads).
REPORTED_EXTRA = {
    "wall_s": ("s", WORKLOADS),
    "fail_frac": ("ratio", WORKLOADS),
    "ffwd_mips": ("Minst/s", ("fig6",)),
    "elim_speedup_pct": ("%", ("fig6",)),
    "dead_pred_accuracy_pct": ("%", ("trace-eval",)),
    "dead_pred_coverage_pct": ("%", ("trace-eval",)),
}

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name):
    """A name is 1-64 letters, digits, '_', '.' and '-', starting with a
    letter or digit."""
    return bool(_NAME_RE.fullmatch(name))


def valid_unit(unit):
    return bool(_UNIT_RE.fullmatch(unit))


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def iqr_share(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def self_times(spans):
    """Self time of each span: its duration minus the part of that interval
    its direct children cover. Children of one span run one after another
    (the driver is single-threaded), so their durations add up.

    `spans` is a list of (name, start_ns, end_ns, parent_index, job) rows,
    parents before children. Returns one self time (ns) per span."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by_root(spans):
    """Per root span (pass or set-up), the self time of every span name
    below it, root included: a list of (root_name, root_ns, {name: ns})."""
    own = self_times(spans)
    root_of = []
    roots = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            root_of.append(len(roots))
            roots.append((name, end - start, {}))
        else:
            root_of.append(root_of[parent])
        by_name = roots[root_of[i]][2]
        by_name[name] = by_name.get(name, 0) + own[i]
    return roots


def layer_of(span_name):
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else None


def _median_self_ms(roots, kind):
    """Median over the roots of one kind of each span name's self time."""
    roots = [r for r in roots if r[0] == kind]
    names = {n for r in roots for n in r[2]}
    return {n: median(r[2].get(n, 0) for r in roots) / 1e6 for n in names}


# How much more the simulator slows down than the calibration kernel
# when the host is contended, as an exponent per workload: a host on
# which the kernel runs 10% slower than usual runs the workload about
# 1.1 ** SENSITIVITY times slower. Fitted by least squares on log pass
# time against log slice time on the 4-CPU host the benchmark was
# written on, in quiet periods and with competing processes, in three
# sessions each: fig6 1.7 to 3.0, trace-eval 1.0 to 1.75, fuzz-lockstep
# 2.0 to 2.55. The detailed core of fig6 and fuzz-lockstep suffers
# more from a contended core than the emulator and predictor replays
# of trace-eval do.
SENSITIVITY = {"fig6": 2.0, "trace-eval": 1.5, "fuzz-lockstep": 2.0}


def slice_ratio(raw, p):
    """Mean host time of the calibration slices run between the jobs of
    pass `p` over the reference slice time (1.0 when the pass ran none,
    which check_run reports as a failure)."""
    if not p["cal_slices"]:
        return 1.0
    return (p["cal_s"] / p["cal_slices"]
            / raw["calibration"]["reference_slice_s"])


def slowdown(raw, p):
    """How much slower than the reference host the simulator ran during
    pass `p`, estimated from the calibration slices."""
    return slice_ratio(raw, p) ** SENSITIVITY[raw["workload"]]


def _scaled_wall(raw, p):
    """A pass's host time at the reference host speed."""
    return p["wall_s"] / slowdown(raw, p)


def _scaled_setups(raw):
    """Each set-up's host time at the reference host speed, taken from
    the pass that follows it (set-up i comes just before pass i)."""
    return [s["seconds"] / slowdown(raw, p)
            for s, p in zip(raw["setup"], raw["passes"])]


def _timed(raw, traced):
    """The timed passes of one kind (the warm-up pass is only checked)."""
    return [p for p in raw["passes"]
            if p["traced"] == traced and not p["warmup"]]


def _ratio(num, den):
    return num / den if den else 0.0


def _pass_mips(raw, p):
    """Instructions per second of one pass at the reference host speed."""
    workload = raw["workload"]
    c, s = p["counts"], p["seconds"]
    if workload == "fig6":
        mips = _ratio(c["core.committed.cold"], s["cold_jobs_s"]) / 1e6
    elif workload == "trace-eval":
        mips = _ratio(c["predictor.replayed"], p["wall_s"]) / 1e6
    else:
        mips = _ratio(c["verify.committed"], p["wall_s"]) / 1e6
    return mips * slowdown(raw, p)


def check_run(raw):
    """Correctness and determinism checks over one driver run.

    Returns (attempted, failed, messages). Every operation a pass checked
    counts, and so does every comparison of a pass's exact counts and
    model metrics against the first pass (tracing and the core's profile
    must not change the simulation) and of each set-up against the
    first."""
    attempted = failed = 0
    messages = []

    def check(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            messages.append(what)

    build = raw["build"]
    check(build["ndebug"] and build["build_type"] == "Release",
          "not a Release build with NDEBUG")
    first_setup = raw["setup"][0]["counts"]
    for i, s in enumerate(raw["setup"][1:], 1):
        check(s["counts"] == first_setup,
              "set-up %d counts differ from the first" % i)
    passes = raw["passes"]
    first = passes[0]
    check(len(raw["setup"]) == len(passes),
          "%d set-ups for %d passes" % (len(raw["setup"]), len(passes)))
    for i, p in enumerate(passes):
        check(p["cal_slices"] > 0,
              "pass %d ran no calibration slice" % i)
        attempted += p["attempted"]
        failed += p["failed"]
        messages.extend(p["failures"])
        if i == 0:
            continue
        shared = set(first["counts"]) & set(p["counts"])
        check(shared == set(first["counts"]) or shared == set(p["counts"]),
              "pass %d counts a different set of things" % i)
        diff = sorted(k for k in shared if first["counts"][k] != p["counts"][k])
        check(not diff, "pass %d counts differ from pass 0: %s" % (i, diff))
        check(p["model"] == first["model"],
              "pass %d model metrics differ from pass 0" % i)
    return attempted, failed, messages


def _ffwd_mips(raw, p):
    """Fast-forward throughput of one fig6 pass at the reference speed."""
    c = p["counts"]
    return (_ratio(c["emu.ffwd_insts"] + c["core.committed.ffwd_suffix"],
                   p["seconds"]["ffwd_jobs_s"]) / 1e6
            * slowdown(raw, p))


def end_to_end_metrics(raw):
    """Every metric of a --trace 0 run: the END_TO_END set plus the
    REPORTED_EXTRA ones that apply to the workload."""
    workload = raw["workload"]
    untraced = _timed(raw, traced=False)
    attempted, failed, _ = check_run(raw)
    m = {
        "pass_s": median(_scaled_wall(raw, p) for p in untraced),
        "wall_s": median(p["wall_s"] for p in untraced),
        "setup_s": median(_scaled_setups(raw)),
        "mips": median(_pass_mips(raw, p) for p in untraced),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "fail_frac": _ratio(failed, attempted),
    }
    if workload == "fig6":
        m["ffwd_mips"] = median(_ffwd_mips(raw, p) for p in untraced)
    m.update(untraced[0]["model"])

    def reported(name):
        if name in END_TO_END:
            return True
        return name in REPORTED_EXTRA and workload in REPORTED_EXTRA[name][1]
    return {k: v for k, v in m.items() if reported(k)}


def per_layer_metrics(raw, spans):
    """Every PER_LAYER metric of a --trace 1 run (0 where it does not
    apply). Times are median self times over the traced passes (set-up
    spans: over the set-up repetitions); counts are exact."""
    workload = raw["workload"]
    roots = self_time_by_root(spans)
    ms = _median_self_ms(roots, "setup")
    for name, v in _median_self_ms(roots, "pass").items():
        ms[name] = ms.get(name, 0.0) + v
    traced = _timed(raw, traced=True)
    untraced = _timed(raw, traced=False)
    c = dict(raw["setup"][0]["counts"])
    c.update(traced[0]["counts"])
    model = traced[0]["model"]

    def t(name):
        return ms.get(name, 0.0)

    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "mir.compile_ms": t("mir.compile"),
        "mir.static_insts": c.get("mir.static_insts", 0),
        "emu.trace_ms": t("emu.trace"),
        "emu.trace_insts": c.get("emu.trace_insts", 0),
        "emu.ref_ms": t("emu.ref"),
        "emu.ffwd_ms": t("emu.ffwd"),
        "emu.ffwd_insts": c.get("emu.ffwd_insts", 0),
        "emu.ffwd_mips": _ratio(c.get("emu.ffwd_insts", 0),
                                t("emu.ffwd") * 1e3),
        "sim.oracle_labels_ms": t("sim.oracle_labels"),
        "sim.check_ms": t("sim.check"),
        "core.init_ms": t("core.init"),
        "core.cycles": c.get("core.cycles", 0),
        "core.committed": c.get("core.committed", 0),
        "core.fetched": c.get("core.fetched", 0),
        "core.fetch.useful_ratio": _ratio(c.get("core.committed", 0),
                                          c.get("core.fetched", 0)),
        "core.blockcache.hit_ratio": _ratio(
            c.get("core.blockcache.hits", 0),
            c.get("core.blockcache.hits", 0)
            + c.get("core.blockcache.misses", 0)),
        "core.elim.predicted_dead": c.get("core.elim.predicted_dead", 0),
        "core.elim.committed_eliminated":
            c.get("core.elim.committed_eliminated", 0),
        "core.elim.dead_mispredicts": c.get("core.elim.dead_mispredicts", 0),
        "core.elim.useful_ratio": _ratio(
            c.get("core.elim.committed_eliminated", 0),
            c.get("core.elim.predicted_dead", 0)),
        "core.branch_mispredicts": c.get("core.branch_mispredicts", 0),
        "cache.dcache_accesses": c.get("cache.dcache_accesses", 0),
        "deadness.analyze_ms": t("deadness.analyze"),
        "deadness.dead_frac_pct": 100.0 * _ratio(
            c.get("deadness.dyn_dead", 0), c.get("deadness.dyn_total", 0)),
        "predictor.eval_ms": sum(t("predictor.eval." + k) for k in ZOO_KINDS),
        "predictor.evals": c.get("predictor.evals", 0),
        "verify.fuzz_program_ms": t("verify.fuzz_program"),
        "verify.lockstep_ms": t("verify.lockstep") + t("verify.lockstep.ff"),
        "verify.lockstep_ms.ff": t("verify.lockstep.ff"),
        "verify.jobs": c.get("verify.jobs", 0),
        "verify.divergences": c.get("verify.divergences", 0),
        "runner.sweep_self_ms": t("runner.sweep"),
        "runner.store_save_ms": t("runner.store_save"),
        "runner.store_load_ms": t("runner.store_load"),
        "runner.report_json_ms": t("runner.report_json"),
        "bench.self_ms": t("bench.job") + t("pass"),
        "bench.pass_raw_s": median(p["wall_s"] for p in untraced),
        "bench.cal_slice_ms": median(
            1e3 * p["cal_s"] / p["cal_slices"] for p in untraced
            if p["cal_slices"]),
    })
    for mode in RUN_MODES:
        m["core.run_ms." + mode] = t("core.run." + mode)
    for mode in ("base", "elim"):
        m["core.host_ns_per_cycle." + mode] = _ratio(
            t("core.run." + mode) * 1e6, c.get("core.cycles." + mode, 0))
    slots = sum(c.get("core.slots." + k, 0) for k in SLOT_CLASSES)
    for k in SLOT_CLASSES:
        m["core.slots.%s_frac" % k] = _ratio(c.get("core.slots." + k, 0),
                                              slots)
    for level in ("l1i", "l1d", "l2"):
        m["cache.%s.miss_ratio" % level] = _ratio(
            c.get("cache.%s.misses" % level, 0),
            c.get("cache.%s.accesses" % level, 0))
    for k in ZOO_KINDS:
        m["predictor.eval_ms." + k] = t("predictor.eval." + k)
    m["predictor.eval_ns_per_inst"] = _ratio(
        m["predictor.eval_ms"] * 1e6, c.get("predictor.replayed", 0))
    m["verify.host_us_per_job"] = _ratio(m["verify.lockstep_ms"] * 1e3,
                                         c.get("verify.jobs", 0))
    m["trace_overhead_pct"] = 100.0 * (
        median(_scaled_wall(raw, p) for p in traced)
        / median(_scaled_wall(raw, p) for p in untraced) - 1.0)
    # Calibration slices are not the pass's work: left out of its time.
    m["trace_coverage_pct"] = 100.0 * median(
        _ratio(sum(ns for n, ns in by_name.items() if layer_of(n)),
               root_ns - by_name.get("calibrate", 0))
        for kind, root_ns, by_name in roots if kind == "pass")
    if workload == "fig6":
        m["ffwd_mips"] = median(_ffwd_mips(raw, p) for p in untraced)
    for k, v in model.items():
        if k in m:
            m[k] = v
    return m
