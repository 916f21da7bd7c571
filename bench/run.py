"""hopftda benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep_hopf --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from src/. With
--trace 0 the run times whole rounds of the workload for about --seconds
seconds and reports setup_s, run_s (median round) and peak_rss_mb. With
--trace 1 it alternates untraced and traced rounds and reports the per-layer
metrics (see README.md). Either way the outputs are checked against
computations made apart from the program, outside the timed region, and the
last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

import time

T_TOP = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("sweep_hopf", "sweep_lorenz_noise", "lyapunov_grid", "persist_chain")
# no round starts that is expected to end after this, whatever --seconds says
HARD_STOP_S = 120.0
# rips calls of the traced round checked on subsets this small by the naive reduction
NAIVE_SUBSET = 10


def process_age_s() -> float:
    """Seconds since this process started (10 ms resolution), 0 if unknown."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(now - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_TOP = process_age_s()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def cpu_s() -> float:
    """CPU seconds of this process plus its waited children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def repeat_rounds(seconds: float, one) -> None:
    """Call one() for whole rounds until the elapsed time is nearest --seconds.

    Another round starts only while it is expected to end closer to the
    target than stopping now would (at least one round always runs).
    """
    start = time.perf_counter()
    done = 0
    while True:
        one()
        done += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / done
        if elapsed + per_round / 2 >= seconds or elapsed + per_round >= HARD_STOP_S:
            return


def rips_checks(tracer_rounds, seed: int):
    """H0 against the MST and 10-point subsets against the naive reduction,
    for every rips_persistence call of the last traced round."""
    import numpy as np

    from checks import check_h0_mst, check_naive
    from hopftda.persistence import rips_persistence

    errors = []
    calls = tracer_rounds[-1].rips_calls if tracer_rounds else []
    rng = np.random.default_rng(seed)
    for i, call in enumerate(calls):
        if call.eps_max is None:
            errors += [f"rips call {i}: {e}" for e in check_h0_mst(call.entries, call.rows)]
        n = call.entries.shape[0]
        idx = np.sort(rng.choice(n, size=min(NAIVE_SUBSET, n), replace=False))
        sub = call.entries[np.ix_(idx, idx)]
        errors += [f"rips call {i}: {e}" for e in check_naive(sub, rips_persistence(sub).rows())]
    return errors, len(calls)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import hopftda.cli
    except ImportError as exc:
        print(f"error: cannot import hopftda from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(hopftda.cli.__file__).startswith(src + os.sep):
        print(f"error: hopftda was imported from {hopftda.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    out_dir = os.path.join(HERE, "_runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workloads.fresh_dir(out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, workloads.default_jobs())
    setup_s = AGE_AT_TOP + (time.perf_counter() - T_TOP)

    workload.prepare()
    attempted = failed = 0
    untraced_s, untraced_cpu, traced_s, rss = [], [], [], []
    tracer_rounds = []

    def untraced():
        nonlocal attempted, failed
        cpu0 = cpu_s()
        res = workload.run_round("untraced", traced=False)
        untraced_cpu.append(cpu_s() - cpu0)
        untraced_s.append(res.seconds)
        if not rss:
            # a user runs the task once per process; later rounds would only
            # add allocator fragmentation to the peak
            rss.append(peak_rss_mb())
        attempted += res.attempted
        failed += res.failed

    if args.trace == 0:
        repeat_rounds(args.seconds, untraced)
        tags = ["untraced"]
    else:
        from tracer import Tracer

        tracer = Tracer()

        def traced():
            nonlocal attempted, failed
            tracer.install()
            tracer.begin_round()
            try:
                res = workload.run_round("traced", traced=True)
            finally:
                tracer.uninstall()
            tracer_rounds.append(tracer.end_round())
            traced_s.append(res.seconds)
            attempted += res.attempted
            failed += res.failed

        def pair():
            untraced()
            traced()

        repeat_rounds(args.seconds, pair)
        tags = ["untraced", "traced"]
        if tracer.missing:
            print(f"trace: wrapped names that no longer resolve: {tracer.missing}", file=sys.stderr)

    errors = workload.check(tags)
    if args.trace == 1:
        rips_errors, n_calls = rips_checks(tracer_rounds, args.seed)
        errors += rips_errors
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    with open(os.path.join(out_dir, "rounds.json"), "w") as fh:
        json.dump({"untraced_round_s": untraced_s, "traced_round_s": traced_s,
                   "check_errors": errors}, fh, indent=1)
    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(untraced_s), "s"),
            "peak_rss_mb": (rss[0], "MB"),
        }
    else:
        from tracer import WRAPPED, layer_metrics, spans_json

        metrics = layer_metrics(tracer_rounds, tracer.missing)
        metrics["process.cpu_s"] = (statistics.median(untraced_cpu), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - statistics.median(untraced_s), "s")
        with open(os.path.join(out_dir, "trace.json"), "w") as fh:
            json.dump({"wrapped": [".".join(w) for w in WRAPPED], "missing": tracer.missing,
                       "rips_calls_checked": n_calls, "rounds": spans_json(tracer_rounds)}, fh)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
