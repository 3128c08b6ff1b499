"""Seeded, layered benchmark of the apxval library.

One run measures one workload for a fixed time and prints, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

    python3 perfbench/run.py --workload reldeg-random --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones (throughput, op
latency, set-up time, peak memory), measured with tracing off.  Times are
scaled to a reference speed of the host, which a fixed speed probe tracks
between ops (see ``probe``); the unscaled figures are printed as well.  With
``--trace 1`` the run measures the same ops twice, first untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in its own fresh process and prints
one table.  The library is imported from ``src/`` beside this directory;
the run fails without printing a result when it is missing.

Lines before the last one start with ``#``: the environment, the sample
count, refusals and failures, and a digest of every op's exact outcome, so
two commits can be compared byte for byte at one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracer import EscapedCall, Tracer, metric_units
from workloads import WORKLOADS, Refused

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LIB_MODULES = (
    "errors", "ordval", "hahn", "valpoly", "envelope",
    "apprtype", "reldeg", "tamegal", "curated",
)
# set-up is repeated and its median reported, so one slow import or page
# fault does not decide the figure
SETUP_REPEATS = 9
# the digest also covers this many leading outcomes, so runs that got
# through different numbers of ops can still be compared
DIGEST_PREFIX = 100
# The speed of a shared host drifts by tens of percent over seconds.  The
# probe is a fixed piece of pure-Python work of the library's kind
# (Fraction exponents summed pairwise into a dict of residues), run between
# ops at least every PROBE_EVERY_S; each op's time is scaled by
# PROBE_REF_S over the median of the PROBE_NEAR probes nearest to it.
# PROBE_REF_S is the probe's median time on a 2-vCPU x86-64 host under
# Python 3.11, so scaled times read close to that host's wall times.
_probe_rng = random.Random(0)
PROBE_TERMS = [
    [(Fraction(_probe_rng.randint(0, 900), _probe_rng.choice((1, 2, 3, 5, 9))),
      _probe_rng.randint(1, 2)) for _ in range(8)]
    for _ in range(2)
]
PROBE_EVERY_S = 0.1
PROBE_NEAR = 8
PROBE_REF_S = 0.0006
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "setup_s": "s",
    "peak_mb": "MB",
}


class Failed:
    """An op that raised an unexpected exception or failed its check."""

    def __init__(self, cls):
        self.cls = cls


def load_library():
    """Import apxval afresh from ``src/``; returns its modules by name."""
    for name in [m for m in sys.modules if m == "apxval" or m.startswith("apxval.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"apxval.{name}") for name in LIB_MODULES}
    origin = Path(mods["hahn"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"apxval imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def probe():
    """Run the speed probe once; returns (midpoint, seconds)."""
    xs, ys = PROBE_TERMS
    start = time.perf_counter()
    acc = {}
    for ea, ca in xs:
        for eb, cb in ys:
            k = ea + eb
            acc[k] = (acc.get(k, 0) + ca * cb) % 3
    sorted(acc.items())
    end = time.perf_counter()
    return (start + end) / 2, end - start


def scaled(spans, probes):
    """Each (start, seconds) span scaled to the reference speed by the
    median of the probes nearest to its midpoint."""
    mids = [t for t, _ in probes]
    out = []
    for start, dt in spans:
        i = bisect_left(mids, start + dt / 2)
        lo = max(0, min(i - PROBE_NEAR // 2, len(probes) - PROBE_NEAR))
        near = [d for _, d in probes[lo:lo + PROBE_NEAR]]
        out.append(dt * PROBE_REF_S / statistics.median(near))
    return out


def set_up(workload_cls, seed):
    """Import, generate inputs and build types, SETUP_REPEATS times, with
    probes around each; returns the workload, the (start, seconds) of each
    set-up and the probes."""
    spans, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes += [probe() for _ in range(PROBE_NEAR // 2)]
        start = time.perf_counter()
        lib = load_library()
        wl = workload_cls(lib, seed)
        spans.append((start, time.perf_counter() - start))
    probes += [probe() for _ in range(PROBE_NEAR // 2)]
    return wl, spans, probes


def timed_op(wl, item, refusals):
    """Run one op; returns (seconds, outcome).  Expected refusals are
    outcomes; any other exception is a failure."""
    start = time.perf_counter()
    try:
        res = wl.run(item)
    except refusals as exc:
        res = Refused(type(exc).__name__)
    except Exception as exc:  # the op failed; counted, the run goes on
        res = Failed(type(exc).__name__)
    return time.perf_counter() - start, res


def refusal_types(wl):
    return tuple(getattr(wl.lib.errors, name) for name in wl.refusals)


def checked(wl, item, res):
    if isinstance(res, Failed):
        return False
    try:
        return bool(wl.check(item, res))
    except Exception:  # a check that cannot run fails the op
        return False


def describe(wl, item, res):
    if isinstance(res, Failed):
        return f"FAILED {res.cls}"
    return wl.describe(item, res)


def measure(wl, seconds):
    """Closed loop in whole schedule cycles: draw, run (timed), check and
    probe (untimed).  A cycle starts only while the last one would still
    end within ``seconds``, so every run weighs the same mix of op costs.
    Returns the ops' (start, seconds), outcome lines, failed lines and the
    probes."""
    refusals = refusal_types(wl)
    spans, lines, failed, probes = [], [], [], [probe()]
    now = time.perf_counter()
    deadline, cycle_s = now + seconds, 0.0
    while not spans or now + cycle_s <= deadline:
        cycle_start = now
        for _ in range(wl.cycle):
            item = wl.next_input()
            start = time.perf_counter()
            dt, res = timed_op(wl, item, refusals)
            ok = checked(wl, item, res)
            line = describe(wl, item, res)
            if not ok:
                failed.append(line)
                line += " CHECK-FAILED"
            spans.append((start, dt))
            lines.append(line)
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append(probe())
        now = time.perf_counter()
        cycle_s = now - cycle_start
    probes.append(probe())
    return spans, lines, failed, probes


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def quantile(values, q):
    """The q-quantile (0 < q < 1) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def git_commit():
    try:
        # the ceiling keeps git from taking up a repository above ROOT
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def info(text):
    print(f"# {text}")


def report_outcomes(wl, lines, failed, extra=""):
    refused = sum(" refused " in line for line in lines)
    info(f"samples={len(lines)} (whole cycles of {wl.cycle} ops) refused={refused} "
         f"unchecked={wl.unchecked} failed={len(failed)} "
         f"fail_share={len(failed) / max(1, len(lines))}{extra}")
    for line in failed[:10]:
        info(f"failed op: {line}")
    prefix = lines[:DIGEST_PREFIX]
    info(f"digest first={len(prefix)} sha256={digest(prefix)}")
    info(f"digest all={len(lines)} sha256={digest(lines)}")


def latency_metrics(times, setups):
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p95": 1000 * quantile(times, 0.95),
        "setup_s": statistics.median(setups),
    }


def run_untraced(cls, seed, seconds):
    wl, setup_spans, setup_probes = set_up(cls, seed)
    spans, lines, failed, probes = measure(wl, seconds)
    report_outcomes(wl, lines, failed)
    if len(spans) < 200:
        info(f"warning: {len(spans)} samples; op_ms_p95 has fewer than 10 beyond it")
    raw = latency_metrics([dt for _, dt in spans], [dt for _, dt in setup_spans])
    metrics = latency_metrics(scaled(spans, probes), scaled(setup_spans, setup_probes))
    metrics["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    all_probes = [d for _, d in setup_probes + probes]
    info(f"probe runs={len(all_probes)} median_s={statistics.median(all_probes)} "
         f"min_s={min(all_probes)} max_s={max(all_probes)}")
    info("unscaled " + " ".join(f"{k}={v}" for k, v in raw.items()))
    return len(lines), len(failed), True, metrics, END_TO_END


def run_traced(cls, seed, seconds):
    """Untraced pass for half the time, then the same ops again traced."""
    wl, _, _ = set_up(cls, seed)
    base_spans, base_lines, failed, _ = measure(wl, seconds / 2)
    n = len(base_spans)
    lib = load_library()
    traced = cls(lib, seed)
    items = [traced.next_input() for _ in range(n)]
    refusals = refusal_types(traced)
    tracer = Tracer()
    tracer.install(lib)
    times, lines = [], []
    try:
        for i, item in enumerate(items):
            tracer.op = i
            dt, res = timed_op(traced, item, refusals)
            times.append(dt)
            lines.append(describe(traced, item, res))
        escaped = None
        try:
            tracer.check_no_escape()
        except EscapedCall as exc:
            escaped = str(exc)
    finally:
        tracer.uninstall()
    correct = escaped is None
    if escaped:
        info(f"escaped call: {escaped}")
    plain = [line.removesuffix(" CHECK-FAILED") for line in base_lines]
    if lines != plain:
        correct = False
        info("traced outcomes differ from the untraced pass")
    metrics = tracer.metrics(times)
    metrics["trace.overhead_s"] = sum(times) - sum(dt for _, dt in base_spans)
    report_outcomes(
        wl, base_lines, failed,
        f" reldeg.sampled.refused={metrics['reldeg.sampled.refused']}"
        f" refused_by_class={dict(sorted(tracer.refused.items()))}",
    )
    tracer.write(HERE / "out" / f"spans-{cls.name}-{seed}.tsv")
    return n, len(failed), correct, metrics, metric_units()


def run_all(args):
    """Every workload in a fresh process of its own, one table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds * 4 + 600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        # runs end on whole cycles, so every attempted op is a timed sample
        print(f"# {name}: {result['attempted']} timed ops, {result['failed']} failed")
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:28s} {m['value']:>16.6g} {m['unit']}")
            summary["metrics"][f"{name}.{metric}"] = m
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "apxval" / "__init__.py").is_file():
        sys.stderr.write(f"error: the apxval sources are missing under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    info(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
         f"trace={args.trace} python={platform.python_version()} "
         f"nproc={len(os.sched_getaffinity(0))} commit={git_commit()}")
    if args.workload == "all":
        result = run_all(args)
    else:
        run = run_traced if args.trace else run_untraced
        attempted, failed, correct, values, units = run(
            WORKLOADS[args.workload], args.seed, args.seconds
        )
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for k, m in metrics.items():
            info(f"metric {k} {m['value']} {m['unit']}")
        result = {
            "correct": correct and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
