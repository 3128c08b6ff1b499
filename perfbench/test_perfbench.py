"""Self-test of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_short_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in names}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_layers_match_their_workloads():
    proc = bench("--workload", "envelope-families", "--seconds", "1", "--trace", "1")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["hahn.add.calls"]["value"] == 0
    assert metrics["hahn.mul.calls"]["value"] == 0
    assert metrics["envelope.order.calls"]["value"] > 0
    proc = bench("--workload", "reldeg-random", "--seconds", "2", "--trace", "1")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["hahn.self_s"]["value"] > 0.5 * metrics["trace.wall_s"]["value"]
    assert "reldeg.sampled.refused=" in proc.stdout


def _corrupt_reldeg(res):
    # h stays a power of p, so only the law itself can catch this
    h, beta = res
    return h, beta + 1


def _corrupt_anchor(res):
    if isinstance(res, bool):
        return not res
    if isinstance(res, tuple) and len(res) == 3:
        d, h, beta = res
        return d, h, beta + 1
    if isinstance(res, tuple):
        return (1 - res[0] % 2,) + res[1:]
    return res - res  # a witness series, zeroed


def _corrupt_wide(res):
    return res.shift(1)


def _corrupt_envelope(res):
    order, argmin = res
    perm = order.permutation
    if len(perm) > 1:
        return type(order)(order.beta, perm[1:] + perm[:1]), argmin
    return order, -1


CORRUPT = {
    "reldeg-random": _corrupt_reldeg,
    "anchor-pipeline": _corrupt_anchor,
    "series-wide": _corrupt_wide,
    "envelope-families": _corrupt_envelope,
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_injected_wrong_result_counts_as_failed(workload):
    cls = workloads.WORKLOADS[workload]
    wl = cls(run.load_library(), 5)
    honest = wl.run
    corrupt = CORRUPT[workload]
    wl.run = lambda item: corrupt(honest(item))
    _, lines, failed, _ = run.measure(wl, 0.5)
    answered = [line for line in lines if " refused " not in line]
    # an op whose check found nothing to compare would pass a wrong result
    print(f"{workload}: {len(answered)} answered, {wl.unchecked} unchecked")
    assert answered
    assert wl.unchecked == 0
    assert len(failed) == len(answered)
    assert all(line.endswith("CHECK-FAILED") for line in answered)


def test_reference_product_both_ways_agree_with_brute_force():
    import random
    from fractions import Fraction

    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 251])

        def terms():
            return {
                Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 9])): rng.randint(1, p - 1)
                for _ in range(rng.randint(0, 40))
            }

        xs, ys = terms(), terms()
        below = rng.choice([None, Fraction(rng.randint(-60, 60), 7)])
        brute = {}
        for ea, ca in xs.items():
            for eb, cb in ys.items():
                brute[ea + eb] = brute.get(ea + eb, 0) + ca * cb
        want = {e: c % p for e, c in brute.items()
                if c % p and (below is None or e < below)}
        for dense in (True, False):
            assert workloads.ref_product(p, xs, ys, below, dense) == want


def _criterion5_opening(count):
    """Criterion 5's own loop, run with the acceptance suite's helpers."""
    import random
    from fractions import Fraction

    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance as acc
    from apxval.curated import theta_minpoly
    from apxval.hahn import Series
    from apxval.valpoly import ValPoly

    rng = random.Random(50505)
    out = []
    for trial in range(count):
        kind = trial % 5
        if kind < 2:
            p = rng.choice([2, 3])
            g = acc.random_monomial_poly(rng, p, 12)
        elif kind == 2:
            p = rng.choice([2, 3])
            c = Series.monomial(p, Fraction(rng.randint(-3, 3)), rng.randint(1, p - 1))
            pert = (
                acc.random_monomial_poly(rng, p, p - 1)
                if rng.random() < 0.7
                else ValPoly.zero(p)
            )
            g = theta_minpoly(p).scale(c) + pert
            if g.is_zero or g.degree() < 1:
                continue
        elif kind == 3:
            p = rng.choice([2, 3])
            g = theta_minpoly(p) * acc.random_monomial_poly(rng, p, 4)
        else:
            p = 3
            g = acc.random_monomial_poly(rng, p, 12)
        out.append((trial, p, str(g)))
    return out


# sha256 of the first 200 criterion-5 trials at seed 50505, "trial p poly"
# per line, as the acceptance gate generated them when this benchmark landed
CRITERION5_OPENING_SHA256 = (
    "ae0bf522e3834514d10c9d79e6ffae998e2394c91b1ed49c589841339fb3cd2a"
)


def test_reldeg_random_reproduces_criterion5_opening():
    lib = run.load_library()
    stream = workloads.criterion5_trials(lib, __import__("random").Random(50505))
    ours = []
    for t in stream:
        if t.trial >= 200:
            break
        ours.append((t.trial, t.p, str(t.poly)))
    assert ours == _criterion5_opening(200)
    text = "\n".join(f"{t} {p} {g}" for t, p, g in ours)
    assert hashlib.sha256(text.encode()).hexdigest() == CRITERION5_OPENING_SHA256
    # every op of the workload takes one of those trials, each at most once
    wl = workloads.ReldegRandom(lib, 50505)
    used = [wl.next_input().trial for _ in range(100)]
    assert len(set(used)) == len(used) and max(used) < 400


def test_tracer_restores_every_name():
    lib = run.load_library()
    before = {
        (name, attr): obj
        for name in run.LIB_MODULES
        for attr, obj in vars(getattr(lib, name)).items()
    }
    before_cls = dict(vars(lib.hahn.Series))
    tracer = Tracer()
    tracer.install(lib)
    assert lib.reldeg.rel_degree is not before[("reldeg", "rel_degree")]
    assert lib.apprtype.taylor_coefficients is not before[("apprtype", "taylor_coefficients")]
    wl = workloads.ReldegRandom(lib, 1)
    wl.run(wl.next_input())
    tracer.check_no_escape()
    tracer.uninstall()
    after = {
        (name, attr): obj
        for name in run.LIB_MODULES
        for attr, obj in vars(getattr(lib, name)).items()
    }
    assert after == before
    assert dict(vars(lib.hahn.Series)) == before_cls


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "reldeg-random", "--seed", "1", "--seconds", "1",
                 "--trace", "0", script=tmp_path / HERE.name / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
