import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from apxval.cli import main
from apxval.config import SessionConfig, load_config_file
from apxval.corpus import run_corpus
from apxval.curated import trace_pulldown_scenario
from apxval.hahn import Series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_series(capsys):
    code, out, _ = run_cli(
        capsys, "--p", "5", "eval", "t^(-1/2) + 2*t^(1/3) + O(t^2)"
    )
    assert code == 0
    assert "v = -1/2" in out


def test_eval_poly_at_series(capsys):
    code, out, _ = run_cli(
        capsys, "--p", "3", "--json", "eval", "t", "--poly", "X^2 + 1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == "1 + t^2"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "--p", "3", "eval", "t^(1/2")
    assert code == 2
    assert "parse error" in err


def test_negative_poly_degree_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "--p", "3", "eval", "t", "--poly", "X^-1")
    assert code == 2
    assert out == ""
    assert "parse error: at position 2: negative degree" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _theta_type_file(tmp_path, p, terms=8, transcendental=False):
    desc = {
        "p": p,
        "target": " + ".join(f"t^(-1/{p**i})" for i in range(1, terms + 1))
        + " + O(t)",
        "ground": "Z[1/p]",
        "hint": "(<0)",
        "minpoly": f"X^{p} + ({p - 1})*X + ({p - 1}*t^(-1))",
    }
    if transcendental:
        desc["transcendental"] = True
    path = tmp_path / "type.json"
    path.write_text(json.dumps(desc))
    return str(path)


def test_dist_subcommand(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3)
    code, out, _ = run_cli(capsys, "--p", "3", "dist", "--type", path)
    assert code == 0
    assert out.strip() == "(<0)"


@pytest.mark.parametrize(
    "command", ["dist", "reldeg", "approx-coeff", "factor-shape"]
)
def test_a_hint_that_an_outside_exponent_contradicts_exits_1(
    capsys, tmp_path, command
):
    # over Z the distance is attained at the exponent -1/3: (<=-1/3), not
    # the declared (<0); dist printed (<0) and factor-shape exited 3
    path = Path(_theta_type_file(tmp_path, 3))
    path.write_text(json.dumps({**json.loads(path.read_text()), "ground": "Z"}))
    poly = [] if command == "dist" else ["--poly", "X^2 + 1"]
    code, out, err = run_cli(
        capsys, "--p", "3", command, "--type", str(path), *poly
    )
    assert (code, out) == (1, "")
    assert "outside the ground" in err


# a well-formed type file, and a one-item envelope family with keys replaced
_T3 = {"p": 3, "target": "t^(-1/3) + t^(-1/9) + O(t)", "hint": "(<0)"}


def _family(**item):
    item = {"i": 1, "intercept": 0, "slope": 1, **item}
    return {"approach": "(+inf)", "items": [item]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dist", "--type", {"p": 3, "hint": "(<0)"}], "lacks the key 'target'"),
        (["dist", "--type", [1, 2]], "must be a JSON object"),
        (["envelope", {}], "lacks the key 'approach'"),
        (["envelope", [1]], "must be a JSON object"),
        (
            ["envelope", {"approach": "(+inf)", "items": [{"i": 0, "slope": 1}]}],
            "lacks the key 'intercept'",
        ),
        (["envelope", {"approach": "(+inf)", "items": 3}], "must be a JSON list"),
        (["dist", "--type", {**_T3, "target": 5}], "'target' must be a JSON string"),
        (["dist", "--type", {**_T3, "ground": 3}], "'ground' must be a JSON string"),
        (
            ["dist", "--type", {**_T3, "transcendental": "false"}],
            "'transcendental' must be a JSON boolean",
        ),
        (["dist", "--type", {**_T3, "hint": 0}], "'hint' must be a JSON string or"),
        (["dist", "--type", {**_T3, "p": "3"}], "'p' must be a JSON integer or null"),
        (["dist", "--type", {**_T3, "p": True}], "'p' must be a JSON integer or null"),
        (["envelope", _family(slope=1.5)], "'slope' must be a JSON integer"),
        (["envelope", _family(slope="1")], "'slope' must be a JSON integer"),
        (["envelope", _family(i=[1])], "'i' must be a JSON integer"),
        (["envelope", _family(i=True)], "'i' must be a JSON integer"),
        (["envelope", {"approach": 0, "items": []}], "'approach' must be a JSON"),
    ],
    ids=["no-target", "type-list", "no-approach", "family-list", "no-intercept",
         "items-number", "target-number", "ground-number", "transcendental-string",
         "hint-number", "p-string", "p-bool", "slope-float", "slope-string",
         "i-list", "i-bool", "approach-number"],
)
def test_a_malformed_json_shape_is_a_usage_error(capsys, tmp_path, argv, message):
    # each of these once ended in a KeyError, TypeError or AttributeError,
    # or was read as another value: "false" as true, a hint 0 as none, an
    # index [1] echoed back as the argmin
    *head, desc = argv
    if head[-1] == "--type":
        path = tmp_path / "type.json"
        path.write_text(json.dumps(desc))
        desc = str(path)
    else:
        desc = json.dumps(desc)
    code, out, err = run_cli(capsys, "--p", "3", *head, desc)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and message in err


def _p5_type_file(tmp_path, **keys):
    desc = {
        "p": 5,
        "target": "t^(-1/5) + t^(-1/25) + t^(-1/125) + t^(-1/625) + O(t^1)",
        "ground": "Z[1/p]",
        "hint": "(<0)",
        **keys,
    }
    path = tmp_path / "t5.json"
    path.write_text(json.dumps(desc))
    return str(path)


@pytest.mark.parametrize("flags", [[], ["--p", "5"]])
def test_a_type_files_p_is_the_commands_prime(capsys, tmp_path, flags):
    # --poly was read at the default p = 3: "mixed primes 3 and 5" (exit 1)
    code, out, err = run_cli(
        capsys, *flags, "reldeg", "--type", _p5_type_file(tmp_path),
        "--poly", "X^5 + 4*X + (4*t^(-1))",
    )
    assert (code, out, err) == (0, "h = 5, beta = 0\n", "")


def test_factor_shape_scales_at_the_type_files_prime(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--json", "factor-shape", "--type", _p5_type_file(tmp_path),
        "--poly", "X^5 + 4*X + (4*t^(-1))",
    )
    assert code == 0
    assert json.loads(out)["residue_coeffs"][5] == 1


def test_a_p_flag_that_differs_from_the_type_file_is_a_usage_error(
    capsys, tmp_path
):
    code, out, err = run_cli(
        capsys, "--p", "3", "dist", "--type", _p5_type_file(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "differs" in err


@pytest.mark.parametrize("p", [4, 6, 0, 1, -5])
def test_a_type_files_p_is_validated_as_the_flag_is(capsys, tmp_path, p):
    # 4 and 6 gave a distance over a ring that is not a field, 0 a
    # ZeroDivisionError
    code, out, err = run_cli(capsys, "dist", "--type", _p5_type_file(tmp_path, p=p))
    assert (code, out) == (1, "")
    assert err == f"check failed: p must be prime, got {p}\n"


@pytest.mark.parametrize("p", ["1000000007", "2147483647"])
def test_a_large_prime_validates_at_once(capsys, p):
    # trial division up to p itself ran for minutes before any work
    code, out, err = run_cli(capsys, "--p", p, "eval", "t")
    assert (code, err) == (0, "")
    assert "v = 1" in out


@pytest.mark.parametrize("p", ["1", "4", "9", "3000000021"])
def test_a_composite_p_flag_is_refused(capsys, p):
    # 3000000021 = 3 * 1000000007
    code, out, err = run_cli(capsys, "--p", p, "eval", "t")
    assert (code, out) == (1, "")
    assert err == f"check failed: p must be prime, got {p}\n"


MALFORMED_CUTS = ["(<0", "(<=x)", "<0", "(<1/0)", "(+inf", " "]


@pytest.mark.parametrize("cut", MALFORMED_CUTS)
def test_a_malformed_hint_is_a_usage_error(capsys, tmp_path, cut):
    # "(<0" was a check failure (exit 1) while "(<=x)" was a usage error
    path = _p5_type_file(tmp_path, hint=cut)
    code, out, err = run_cli(capsys, "dist", "--type", path)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: unrecognized cut literal"), err


@pytest.mark.parametrize("cut", MALFORMED_CUTS)
def test_a_malformed_envelope_approach_is_a_usage_error(capsys, cut):
    family = {"approach": cut, "items": [{"i": 1, "intercept": 0, "slope": 1}]}
    code, out, err = run_cli(capsys, "--p", "3", "envelope", json.dumps(family))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: unrecognized cut literal"), err


@pytest.mark.parametrize("intercept", ["abc", "1/0", "1/", " "])
def test_a_malformed_envelope_intercept_is_a_usage_error(capsys, intercept):
    # "1/0" ended in a ZeroDivisionError traceback
    family = _family(intercept=intercept)
    code, out, err = run_cli(capsys, "--p", "3", "envelope", json.dumps(family))
    assert (code, out) == (2, "")
    assert err.startswith("usage error:"), err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_a_tame_witness_n_below_1_is_refused(capsys, n):
    # n = 0 ended in a ZeroDivisionError traceback, n = -1 in exit 3
    code, out, err = run_cli(
        capsys, "--p", "3", "tame-witness", "--n", n, "--sigmas", "0", "--ds", "1"
    )
    assert (code, out) == (1, "")
    assert err == f"check failed: need n >= 1 with n | p - 1, got n={n}, p=3\n"


def test_a_tame_witness_over_a_large_prime_answers_at_once(capsys):
    # the root of unity search scanned z = 2, 3, ... up to p - 1
    code, out, _ = run_cli(
        capsys, "--p", "1000000007", "tame-witness", "--n", "2",
        "--sigmas", "0,1", "--ds", "1", "2",
    )
    assert (code, out) == (0, "d = 1 (sum value 0)\n")


@pytest.mark.parametrize("ground", ["div0", "div-2", "divx", "div"])
def test_a_ground_div_without_a_positive_integer_is_refused(
    capsys, tmp_path, ground
):
    # div0 admitted every exponent
    path = _p5_type_file(tmp_path, ground=ground)
    code, out, err = run_cli(capsys, "dist", "--type", path)
    assert (code, out) == (1, "")
    assert err == f"check failed: unknown subfield predicate {ground!r}\n"


def test_reldeg_subcommand(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3)
    code, out, _ = run_cli(
        capsys,
        "--p",
        "3",
        "--json",
        "reldeg",
        "--type",
        path,
        "--poly",
        "X^3 + (2)*X + (2*t^(-1))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 3
    assert payload["beta"] == "0"


def test_fixes_subcommand(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3)
    code, out, _ = run_cli(
        capsys,
        "--p",
        "3",
        "--json",
        "fixes",
        "--type",
        path,
        "--poly",
        "X^3 + (2)*X + (2*t^(-1))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"fixed": False, "h": 3, "beta": "0"}


@pytest.mark.parametrize(
    "flags, want",
    [([], "fixed, value -1/9"), (["--json"], '{"fixed": true, "value": "-1/9"}')],
)
def test_fixes_subcommand_fixed_value(capsys, tmp_path, flags, want):
    path = _theta_type_file(tmp_path, 3, transcendental=True)
    code, out, _ = run_cli(
        capsys, "--p", "3", *flags, "fixes", "--type", path,
        "--poly", "X + (2*t^(-1/3))",
    )
    assert (code, out) == (0, want + "\n")


def test_fixes_refuses_a_constant_that_truncation_hides(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3)
    code, out, err = run_cli(
        capsys, "--p", "3", "fixes", "--type", path, "--poly", "(O(t^2))"
    )
    assert (code, out) == (1, "")
    assert err == "check failed: v(g(c_0)) is swallowed by the precision bound\n"


@pytest.mark.parametrize("command", ["fixes", "reldeg"])
def test_fixes_agrees_with_reldeg_on_a_law_that_starts_late(
    capsys, tmp_path, command
):
    # the tail point at gamma = -1/8 lies before the envelope threshold
    # -1/32 and off the law; fixes fits only the points past the threshold
    path = _theta_type_file(tmp_path, 2)
    poly = (
        "(t)*X^5 + (t^(-1/4) + t)*X^4 + (t^(-3/4) + t^(-1/4) + 1)*X^3"
        " + (t^(-5/4) + t^(-1) + t^(-3/4))*X^2 + (t^(-7/4) + t^(-1))*X"
        " + (t^(-2))"
    )
    code, out, err = run_cli(
        capsys, "--p", "2", command, "--type", path, "--poly", poly
    )
    want = {
        "fixes": "not fixed: v g(c) = -7/8 + 2*v(x-c)",
        "reldeg": "h = 2, beta = -7/8",
    }[command]
    assert (code, out, err) == (0, want + "\n", "")


def test_extend_subcommand(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3, transcendental=True)
    code, out, _ = run_cli(
        capsys, "--p", "3", "extend", "--type", path, "--poly", "X + (t^(-1/3))"
    )
    assert (code, out) == (0, "-1/3\n")


def test_extend_subcommand_refuses_an_unfixed_value(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3, transcendental=True)
    code, out, err = run_cli(
        capsys, "--p", "3", "extend", "--type", path,
        "--poly", "X^3 + (2)*X + (2*t^(-1))",
    )
    assert (code, out) == (1, "")
    assert err.startswith("check failed:")


def test_extend_refuses_what_a_one_value_window_does_not_fix(capsys, tmp_path):
    # every value sequence is constant over a window of one; the type does
    # not fix v of theta's minimal polynomial, and extend once printed -1/128
    path = _theta_type_file(tmp_path, 2, transcendental=True)
    cfg = tmp_path / "session.cfg"
    cfg.write_text("window = 1\n")
    poly = ["--poly", "X^2 + X + (t^(-1))"]
    code, out, err = run_cli(
        capsys, "--p", "2", "--config", str(cfg), "extend", "--type", path, *poly
    )
    assert (code, out) == (1, "")
    assert err.startswith("check failed:")
    code, out, _ = run_cli(
        capsys, "--p", "2", "--config", str(cfg), "fixes", "--type", path, *poly
    )
    assert (code, out) == (0, "not fixed: v g(c) = 0 + 2*v(x-c)\n")


def test_approx_coeff_subcommand(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3)
    code, out, _ = run_cli(
        capsys,
        "--p",
        "3",
        "--json",
        "approx-coeff",
        "--type",
        path,
        "--poly",
        "X^3 + (2)*X + (2*t^(-1))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == "1"
    assert payload["image_distance"] == "(<0)"


def test_approx_coeff_ignores_tail_points_below_the_threshold(capsys, tmp_path):
    # the law h = 1, beta = -1 holds only past gamma = -1/6; the first tail
    # point gamma = -1/2 is off it
    path = _theta_type_file(tmp_path, 2, terms=5)
    code, out, err = run_cli(
        capsys, "--p", "2", "--json", "approx-coeff", "--type", path,
        "--poly", "X^4 + X^2 + (t^(-1))*X",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["d"], payload["h"]) == ("t^(-1)", 1)


def test_factor_shape_subcommand(capsys, tmp_path):
    path = _theta_type_file(tmp_path, 3)
    code, out, _ = run_cli(
        capsys,
        "--p",
        "3",
        "--json",
        "factor-shape",
        "--type",
        path,
        "--poly",
        "X^3 + (2)*X + (2*t^(-1))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residue_coeffs"][3] == 1


def test_factor_shape_refuses_a_type_too_shallow_for_its_law(capsys, tmp_path):
    # over a window of one, the envelope alone answers h = 1 with the
    # threshold -1/8; the shape at v(x - c) = -1/4 before it fails, which
    # says the type is too shallow (exit 1), not that the routes disagree
    path = _theta_type_file(tmp_path, 2, terms=2)
    cfg = tmp_path / "session.cfg"
    cfg.write_text("window = 1\n")
    poly = (
        "(t)*X^5 + (t^(-1/4) + t)*X^4 + (t^(-3/4) + t^(-1/4) + 1)*X^3"
        " + (t^(-5/4) + t^(-1) + t^(-3/4))*X^2 + (t^(-7/4) + t^(-1))*X + (t^(-2))"
    )
    code, out, err = run_cli(
        capsys, "--p", "2", "--config", str(cfg), "factor-shape",
        "--type", path, "--poly", poly,
    )
    assert (code, out) == (1, "")
    assert err.startswith("check failed:")
    assert "v(x - c) = -1/4 with the law's threshold -1/8" in err


def test_envelope_subcommand(capsys):
    family = json.dumps(
        {
            "approach": "(<0)",
            "items": [
                {"i": 1, "intercept": "0", "slope": 1},
                {"i": 3, "intercept": "0", "slope": 3},
            ],
        }
    )
    code, out, _ = run_cli(capsys, "--json", "envelope", family)
    assert code == 0
    payload = json.loads(out)
    assert payload["argmin"] == 3


def test_envelope_subcommand_intercept_literals(capsys):
    family = json.dumps(
        {
            "approach": "(+inf)",
            "items": [
                {"i": 1, "intercept": "inf", "slope": 1},
                {"i": 2, "intercept": 5, "slope": 2},
                {"i": 3, "intercept": "-1/2", "slope": 3},
            ],
        }
    )
    code, out, _ = run_cli(capsys, "--json", "envelope", family)
    assert code == 0
    assert json.loads(out) == {
        "beta": "13/2", "permutation": [1, 3, 2], "argmin": 2,
    }


def test_envelope_subcommand_refuses_an_all_infinite_family(capsys):
    family = json.dumps(
        {
            "approach": "(+inf)",
            "items": [
                {"i": 1, "intercept": "inf", "slope": 1},
                {"i": 2, "intercept": "inf", "slope": 2},
            ],
        }
    )
    code, out, err = run_cli(capsys, "envelope", family)
    assert (code, out) == (1, "")
    assert err == "check failed: all intercepts are infinite\n"


def test_tame_witness_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "--p",
        "3",
        "--json",
        "tame-witness",
        "--n",
        "2",
        "--sigmas",
        "0,1",
        "--ds",
        "1",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == "t^(1/2)"
    assert payload["sum_value"] == payload["min_value"]


def test_trace_gen_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--json", "trace-gen")
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 1
    assert payload["pulled_down"] is True


def _trace_keeps_a_square_root(monkeypatch):
    """Patch the trace scenario, as the CLI and the corpus see it, so that
    its trace keeps a t^(1/2) term outside the base field."""

    def leaky():
        sc = trace_pulldown_scenario()
        return replace(
            sc, trace=sc.trace + Series.monomial(3, Fraction(1, 2))
        )

    monkeypatch.setattr("apxval.cli.trace_pulldown_scenario", leaky)
    monkeypatch.setattr("apxval.corpus.trace_pulldown_scenario", leaky)


def test_trace_gen_reports_a_trace_outside_the_base(capsys, monkeypatch):
    _trace_keeps_a_square_root(monkeypatch)
    code, out, _ = run_cli(capsys, "--json", "trace-gen")
    assert code == 0
    assert json.loads(out)["pulled_down"] is False


def test_trace_corpus_case_fails_on_a_trace_outside_the_base(monkeypatch):
    _trace_keeps_a_square_root(monkeypatch)
    records, ok = run_corpus("trace-pulldown")
    assert not ok
    assert [(r["status"], r["actual"]) for r in records] == [
        ("fail", "h=1 pulled-down=False")
    ]


def test_corpus_subcommand(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["passed"] == summary["cases"] == len(lines) - 1


def test_corpus_filter_empty(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--filter", "no-such-case")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["cases"] == 0


def test_corpus_deterministic():
    a, ok_a = run_corpus()
    b, ok_b = run_corpus()
    assert a == b and ok_a and ok_b


def test_config_file_override(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text("p = 5\ntail_depth = 7\n# comment\n")
    cfg = load_config_file(str(path), SessionConfig())
    assert cfg.p == 5
    assert cfg.tail_depth == 7


def test_config_rejects_unknown_key(tmp_path):
    from apxval.errors import PreconditionError

    # depth and precision were session knobs once; no code reads them now
    for key in ("nope", "depth", "precision"):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(PreconditionError, match=f"unknown key '{key}'"):
            load_config_file(str(path), SessionConfig())


@pytest.mark.parametrize("key", ["depth", "precision"])
def test_cli_exits_1_on_retired_config_key(tmp_path, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 3\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "apxval.cli", "--config", str(cfg),
         "eval", "t"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("check failed:")
    assert f"unknown key '{key}'" in proc.stderr


@pytest.mark.parametrize("key", ["depth", "precision"])
def test_main_returns_1_on_retired_config_key(capsys, tmp_path, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 3\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "eval", "t")
    assert code == 1
    assert out == ""
    assert err.startswith("check failed:")
    assert f"unknown key '{key}'" in err


def test_config_file_is_validated_after_the_flags(capsys, tmp_path):
    # flags win: a config p that --p overrides is never checked
    cfg = tmp_path / "session.cfg"
    cfg.write_text("p = 4\n")
    assert load_config_file(str(cfg), SessionConfig()).p == 4
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--p", "5", "eval", "t")
    assert (code, out) == (0, "t  (v = 1)\n")


@pytest.mark.parametrize("text", ["p = 4\n", "window = 0\n"])
def test_config_invalid_value_is_a_check_failure(capsys, tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _, err = run_cli(capsys, "--config", str(cfg), "eval", "t")
    assert code == 1
    assert err.startswith("check failed:")


@pytest.mark.parametrize("text", [None, "p = three\n"])
def test_config_unreadable_is_a_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "session.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg), "eval", "t")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_reldeg_internal_inconsistency_exit_code(capsys, tmp_path, monkeypatch):
    from apxval.apprtype import ApproxType

    real = ApproxType.taylor_intercepts

    def shifted(self, g):
        betas, rows = real(self, g)
        return betas[:-1] + [betas[-1] + 1], rows

    monkeypatch.setattr(ApproxType, "taylor_intercepts", shifted)
    path = _theta_type_file(tmp_path, 3)
    code, out, err = run_cli(
        capsys, "--p", "3", "reldeg", "--type", path,
        "--poly", "X^3 + (2)*X + (2*t^(-1))",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("internal inconsistency:")


@pytest.mark.parametrize("how", ["flag", "config"])
def test_depth_knob_sets_law_verification_depth(capsys, tmp_path, how):
    path = _theta_type_file(tmp_path, 3)
    if how == "flag":
        knob = ["--depth", "3"]
    else:
        cfg = tmp_path / "session.cfg"
        cfg.write_text("tail_depth = 3\n")
        knob = ["--config", str(cfg)]
    code, out, _ = run_cli(
        capsys, "--p", "3", *knob, "--json", "reldeg", "--type", path,
        "--poly", "X^3 + (2)*X + (2*t^(-1))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["law_verification_depth"] == 3
    assert payload["sampled_points"] == 3
    assert (payload["h"], payload["beta"]) == (3, "0")
