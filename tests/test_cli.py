"""Subcommand behavior, exit codes, and JSON output discipline."""

import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

from dringkit import Poly, QuadRing, VerificationError, cli, lab, parse_poly
from dringkit.cli import CHEB_N_CAP, SAMPLE_POINT_CAP, SF_LIMIT_CAP, ZWDEMO_TRIALS_CAP, main
from dringkit.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS
from helpers import quad_gcd_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def assert_no_native_numbers(value):
    """Every integer in a payload must be a decimal string; bools are fine."""
    if isinstance(value, bool) or value is None:
        return
    assert not isinstance(value, (int, float)), f"native number leaked: {value!r}"
    if isinstance(value, dict):
        for v in value.values():
            assert_no_native_numbers(v)
    elif isinstance(value, list):
        for v in value:
            assert_no_native_numbers(v)


# --- divides -----------------------------------------------------------------


def test_divides_affirmative(capsys):
    code, out, err = run(capsys, "divides", "128x^7-192x^5+80x^3-8x", "8x^4-8x^2+1")
    assert code == 0
    assert "DIVIDES" in out
    assert "16x^3 - 8x" in out
    assert err == ""


def test_divides_negative_with_witness(capsys):
    code, out, _ = run(capsys, "divides", "x^2+1", "x+1", "--bound", "10")
    assert code == 1
    assert "NOT_DIVIDES" in out
    assert "k = 2" in out


def test_divides_without_a_witness_inside_the_bound(capsys):
    # every k in 1..5 divides 60 and g(0) = 0, so the scan runs out
    argv = ["divides", "x+60", "x", "--bound", "5"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == (
        "verdict: NOT_DIVIDES\n"
        "no witness found with |k| <= 5; one exists somewhere in Z\n"
    )
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload == {
        "bound": "5",
        "command": "divides",
        "f": "x + 60",
        "g": "x",
        "quotient": None,
        "ring": "Z",
        "verdict": "NOT_DIVIDES",
        "witness": None,
    }


@pytest.mark.parametrize("bound", ["-1", "-3"])
def test_divides_negative_bound_is_a_usage_error(capsys, bound):
    code, out, err = run(capsys, "divides", "x+60", "x", "--bound", bound)
    assert code == 2
    assert out == ""
    assert err == "error: --bound must be at least 0\n"


def test_divides_bound_zero_stays_valid(capsys):
    code, out, err = run(capsys, "divides", "x+60", "x", "--bound", "0")
    assert (code, err) == (1, "")
    assert out == (
        "verdict: NOT_DIVIDES\n"
        "no witness found with |k| <= 0; one exists somewhere in Z\n"
    )


def test_divides_constant_divisor_is_a_usage_error(capsys):
    code, out, err = run(capsys, "divides", "x^5-x", "5")
    assert code == 2
    assert out == ""
    assert "nonconstant" in err


def test_divides_json_payload(capsys):
    code, payload = run_json(
        capsys, "divides", "128x^7-192x^5+80x^3-8x", "8x^4-8x^2+1"
    )
    assert code == 0
    assert payload["verdict"] == "DIVIDES"
    assert payload["quotient"] == "16x^3 - 8x"
    assert payload["witness"] is None
    assert payload["bound"] == "1000"
    assert_no_native_numbers(payload)
    assert list(payload) == sorted(payload)


def test_divides_primitive_part_convenience(capsys):
    code, payload = run_json(
        capsys, "divides", "2x^2-2", "2x+2", "--primitive-part"
    )
    assert code == 0
    assert payload["divisor_content"] == "2"
    assert payload["divisor_primitive_part"] == "x + 1"
    assert payload["quotient"] == "2x - 2"


def test_divides_over_quadratic_ring(capsys):
    code, payload = run_json(
        capsys, "divides", "x^2+1", "x+[0+1w]", "--ring", "Q(sqrt -1)"
    )
    assert code == 0
    assert payload["verdict"] == "DIVIDES"
    assert payload["quotient"] == "[1]x - [0+1w]"


# --- pseudodiv / content / normpoly -------------------------------------------


def test_pseudodiv_reports_multiplier_and_parts(capsys):
    code, payload = run_json(capsys, "pseudodiv", "x^2", "2x+1")
    assert code == 0
    assert payload["multiplier"] == "4"
    assert payload["power"] == "2"
    assert payload["quotient"] == "2x - 1"
    assert payload["remainder"] == "1"
    assert_no_native_numbers(payload)


def test_content_splits_a_polynomial(capsys):
    code, payload = run_json(capsys, "content", "6x^2 + 4x + 2")
    assert code == 0
    assert payload["content"] == "2"
    assert payload["primitive_part"] == "3x^2 + 2x + 1"


def test_content_over_a_quadratic_ring(capsys):
    code, payload = run_json(
        capsys, "content", "[2]x + [2+2w]", "--ring", "Q(sqrt -1)"
    )
    assert code == 0
    # the content is some associate of 2; no canonical associate is chosen
    assert payload["content"] in {"[2]", "[-2]", "[0+2w]", "[0-2w]"}


def test_content_whose_gcd_needs_a_box_past_radius_64(capsys):
    p = "[296727691650+732207385456w]x + [-341487525608-595848167312w]"
    code, payload = run_json(capsys, "content", p, "--ring", "Q(sqrt 19)")
    assert code == 0
    ring = QuadRing(19)
    f = parse_poly(p, ring)
    expected = quad_gcd_reference(*f.coeffs)
    assert payload["content"] == f"[{expected}]" == "[340-78w]"
    assert Poly.constant(expected, ring) * parse_poly(payload["primitive_part"], ring) == f


def test_normpoly_projects_to_z(capsys):
    code, payload = run_json(
        capsys, "normpoly", "x - [0+1w]", "--ring", "Q(sqrt -1)"
    )
    assert code == 0
    assert payload["norm"] == "x^2 + 1"
    assert payload["conjugate"] == "[1]x + [0+1w]"


def test_normpoly_requires_a_quadratic_ring(capsys):
    code, _, err = run(capsys, "normpoly", "x^2+1", "--ring", "Z")
    assert code == 2
    assert "Q(sqrt d)" in err


# --- evalcheck -----------------------------------------------------------------


def test_evalcheck_fermat_window(capsys):
    code, payload = run_json(
        capsys, "evalcheck", "x^5-x", "5", "--from", "-100", "--to", "100"
    )
    assert code == 0
    assert payload["verdict"] == "ALL_DIVIDE"
    assert payload["checked"] == "201"
    assert payload["failures"] == []
    assert "finite sample window" in payload["note"]
    assert_no_native_numbers(payload)


def test_evalcheck_reports_failures_and_exits_one(capsys):
    code, payload = run_json(
        capsys, "evalcheck", "x+1", "2", "--from", "0", "--to", "1"
    )
    assert code == 1
    assert payload["verdict"] == "FAILED"
    assert payload["failures"] == [
        {"point": "0", "divisor_value": "2", "dividend_value": "1"}
    ]


def test_evalcheck_window_validation(capsys):
    code, _, err = run(capsys, "evalcheck", "x", "x", "--from", "5", "--to", "1")
    assert code == 2
    assert "--from" in err


CAP = str(SAMPLE_POINT_CAP)
OVER = str(SAMPLE_POINT_CAP + 1)


@pytest.mark.parametrize("argv, code", [
    (["evalcheck", "x^4+3x+1", "x+1", "--from", "-" + CAP, "--to", CAP], 1),
    (["transfer", "x^2+1", "x-[0+1w]", "--ring", "Q(sqrt -1)", "--from", "-" + CAP, "--to", CAP], 0),
    (["cheb", "--n", "3", "--certify", "--from", "-" + CAP, "--to", CAP], 0),
    (["divides", "x^2+1", "x^2+x+1", "--bound", CAP], 1),
], ids=["evalcheck", "transfer", "cheb", "divides"])
def test_sample_points_at_the_cap_run(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


# The window ends are signed and capped in absolute value; --bound is a scan
# radius, checked against 0..cap like --limit, --n and --trials.
BOUND_ERRORS = {
    OVER: f"error: --bound must not exceed {SAMPLE_POINT_CAP}\n",
    "-" + OVER: "error: --bound must be at least 0\n",
}


@pytest.mark.parametrize("argv, option", [
    (["evalcheck", "x", "x+1", "--from", "-" + OVER], "--from"),
    (["evalcheck", "x", "x+1", "--to", OVER], "--to"),
    (["transfer", "x", "x+1", "--ring", "Q(sqrt -1)", "--from", "-" + OVER], "--from"),
    (["transfer", "x", "x+1", "--ring", "Q(sqrt -1)", "--to", OVER], "--to"),
    (["cheb", "--n", "3", "--certify", "--from", "-" + OVER], "--from"),
    (["cheb", "--n", "3", "--certify", "--to", OVER], "--to"),
    (["divides", "x^2+1", "x+1", "--bound", OVER], "--bound"),
    (["divides", "x^2+1", "x+1", "--bound", "-" + OVER], "--bound"),
    (["cheb", "--n", "3", "--from", "-" + OVER], "--from"),
])
def test_sample_points_over_the_cap_are_usage_errors(capsys, monkeypatch, argv, option):
    for name in ("eval_divisibility", "norm_transfer_check", "cheb_certify", "certify_divisibility",
                 "_cheb_pair"):
        monkeypatch.setattr(cli, name, None)  # must not be reached
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    expected = f"error: |{option}| must not exceed {SAMPLE_POINT_CAP}\n"
    if option == "--bound":
        expected = BOUND_ERRORS[argv[-1]]
    assert err == expected


# --- sf -------------------------------------------------------------------------


def test_sf_lists_primes_with_roots(capsys):
    code, payload = run_json(capsys, "sf", "x^2+1", "--limit", "30")
    assert code == 0
    assert payload["records"] == [
        {"prime": "2", "root": "1"},
        {"prime": "5", "root": "2"},
        {"prime": "13", "root": "5"},
        {"prime": "17", "root": "4"},
        {"prime": "29", "root": "12"},
    ]
    assert payload["count"] == "5"


def test_sf_empty_result_is_a_negative_verdict(capsys):
    # x^2 + x + 1 has no root mod 2 or 3
    code, payload = run_json(capsys, "sf", "x^2+x+1", "--limit", "2")
    assert code == 1
    assert payload["records"] == []


def test_sf_limit_above_the_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sf", "x^2+1", "--limit", str(SF_LIMIT_CAP + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(SF_LIMIT_CAP) in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_failures_exit_two_without_a_traceback(capsys, monkeypatch, exc):
    def exhausted(*args):
        raise exc()

    monkeypatch.setattr(cli, "sf_search", exhausted)
    code, out, err = run(capsys, "sf", "x^2+1", "--limit", "30")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_running_out_of_memory_while_printing_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli.json, "dumps", exhausted)
    code, out, err = run(capsys, "divides", "x^2-1", "x-1", "--json")
    assert code == 2
    assert out == ""
    assert err == "error: out of resources (MemoryError)\n"


def test_a_failed_root_recheck_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(lab, "_least_roots_by_scan", lambda coeffs, primes: {p: 1 for p in primes})
    code, out, err = run(capsys, "sf", "x^2+1", "--limit", "30")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exact recheck" in err


def test_a_failed_re_expansion_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(lab, "exact_divide", lambda f, g: f)
    code, out, err = run(capsys, "divides", "x^2-1", "x-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "re-expansion" in err


# --- cheb ------------------------------------------------------------------------


def test_cheb_prints_the_requested_pair(capsys):
    code, payload = run_json(capsys, "cheb", "--n", "4")
    assert code == 0
    assert payload["p"] == "8x^4 - 8x^2 + 1"
    assert payload["q"] == "8x^3 - 4x"


def test_cheb_certify_passes(capsys):
    code, payload = run_json(capsys, "cheb", "--n", "4", "--certify")
    assert code == 0
    assert payload["passed"] is True
    assert payload["certificate"]["verdict"] == "DIVIDES"
    assert payload["evaluation"]["verdict"] == "ALL_DIVIDE"
    assert_no_native_numbers(payload)


@pytest.mark.parametrize("extra", [[], ["--certify"]])
def test_cheb_inverted_window_is_a_usage_error(capsys, monkeypatch, extra):
    monkeypatch.setattr(cli, "_cheb_pair", None)  # must not be reached
    monkeypatch.setattr(cli, "cheb_certify", None)
    code, out, err = run(capsys, "cheb", "--n", "3", "--from", "5", "--to", "-7", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: --from must not exceed --to\n"


def test_cheb_certify_rejects_n_zero(capsys):
    code, _, err = run(capsys, "cheb", "--n", "0", "--certify")
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("extra", [[], ["--certify"]])
def test_cheb_n_above_the_cap_is_a_usage_error(capsys, monkeypatch, extra):
    monkeypatch.setattr(cli, "_cheb_pair", None)  # must not be reached
    monkeypatch.setattr(cli, "cheb_certify", None)
    code, out, err = run(capsys, "cheb", "--n", str(CHEB_N_CAP + 1), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(CHEB_N_CAP) in err


# --- zwdemo ------------------------------------------------------------------------


def test_zwdemo_runs_clean(capsys):
    code, payload = run_json(capsys, "zwdemo", "--trials", "200", "--seed", "5")
    assert code == 0
    assert payload["trials"] == "200"
    assert payload["passes"] == "200"
    assert payload["certified"] == "200"
    assert payload["seed"] == "5"


def test_zwdemo_default_seed(capsys, monkeypatch):
    # --seed is the only way to set the seed; the environment is not read
    monkeypatch.setenv("DRINGKIT_SEED", "4242")
    code, out, err = run(capsys, "zwdemo", "--trials", "20")
    assert (code, err) == (0, "")
    assert out == f"trials: 20  passes: 20  (seed {lab.DEFAULT_DEMO_SEED})\n"
    code, payload = run_json(capsys, "zwdemo", "--trials", "20")
    assert code == 0
    assert payload == {
        "certified": "20",
        "command": "zwdemo",
        "passes": "20",
        "seed": str(lab.DEFAULT_DEMO_SEED),
        "trials": "20",
    }


def test_zwdemo_reports_an_uncertified_value_as_an_error(capsys, monkeypatch):
    # Every value is certified (see lab.zw_unit_demo); one that is not would
    # be an arithmetic bug, not a negative verdict.
    monkeypatch.setattr(lab, "_certifies_unit", lambda value, root: False)
    uncertified = r"^\(-?\d+/\d+\)\^2 \+ 1 = \d+/\d+ was not certified a unit$"
    with pytest.raises(VerificationError, match=uncertified) as raised:
        lab.zw_unit_demo(2, 11)
    code, out, err = run(capsys, "zwdemo", "--trials", "2", "--seed", "11")
    assert (code, out, err) == (2, "", f"error: {raised.value}\n")


def test_zwdemo_trials_above_the_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "zw_unit_demo", None)  # must not be reached
    code, out, err = run(capsys, "zwdemo", "--trials", str(ZWDEMO_TRIALS_CAP + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(ZWDEMO_TRIALS_CAP) in err


@pytest.mark.parametrize("argv, message, unreached", [
    (["sf", "x^2+1", "--limit", "1"], "--limit must be at least 2", ("parse_poly", "sf_search")),
    (["cheb", "--n", "-3"], "--n must be at least 0", ("_cheb_pair", "cheb_certify")),
    (["cheb", "--n", "-3", "--certify"], "--n must be at least 0", ("_cheb_pair", "cheb_certify")),
    (["zwdemo", "--trials", "0"], "--trials must be at least 1", ("zw_unit_demo",)),
], ids=["sf", "cheb", "cheb-certify", "zwdemo"])
def test_options_below_their_lower_bound_are_usage_errors(capsys, monkeypatch, argv, message,
                                                          unreached):
    for name in unreached:
        monkeypatch.setattr(cli, name, None)  # must not be reached
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# --- transfer ------------------------------------------------------------------------


def test_transfer_consistent_example(capsys):
    code, payload = run_json(
        capsys,
        "transfer", "x^2+[2-1w]x-[0+2w]", "x-[0+1w]",
        "--ring", "Q(sqrt -1)", "--from", "1", "--to", "10",
    )
    # f = (x - w)(x + 2), so g | f at every sample
    assert code == 0
    assert payload["verdict"] == "CONSISTENT"
    assert all(s["status"] == "holds" for s in payload["samples"])
    assert payload["norm_g"] == "x^2 + 1"
    assert_no_native_numbers(payload)


def test_transfer_vacuous_sample(capsys):
    code, payload = run_json(
        capsys,
        "transfer", "x", "x-[0+1w]",
        "--ring", "Q(sqrt -1)", "--from", "1", "--to", "1",
    )
    assert code == 0
    (sample,) = payload["samples"]
    assert sample["status"] == "vacuous"
    assert sample["element_divides"] is False
    assert sample["divisor_norm"] == "2"
    assert sample["dividend_norm"] == "1"


# --- harness ------------------------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_parse_errors_are_diagnosed_on_stderr(capsys):
    code, out, err = run(capsys, "divides", "x^2 $ 1", "x+1")
    assert code == 2
    assert out == ""
    assert "position" in err


def test_non_ascii_digits_are_diagnosed_with_their_position(capsys):
    code, out, err = run(capsys, "divides", "x²+1", "x+1")
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character '²' (at position 1)\n"


def module_env() -> dict:
    """The environment for `python -m dringkit.cli` on this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [src]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_module_entry_point_matches_main(capsys):
    argv = ["divides", "x^2+1", "x+1"]
    proc = subprocess.run(
        [sys.executable, "-m", "dringkit.cli", *argv],
        capture_output=True, text=True, env=module_env(),
    )
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def _stdlib_imports_of_src() -> list[str]:
    """The top-level modules that src/dringkit's files import by absolute name."""
    names = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        with open(path, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return sorted(names)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Start-up cost: dataclasses brings inspect, ast, dis and tokenize with it.
    # inspect is allowed only where the standard modules src/ imports load it
    # too, as some Python versions may.
    def loaded(imports: str) -> set[str]:
        probe = f"import sys, {imports}; print(*sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=module_env(), check=True)
        return set(proc.stdout.split())

    baseline = loaded(", ".join(_stdlib_imports_of_src()))
    modules = loaded("dringkit.cli")
    assert "dringkit.cli" in modules
    assert "dataclasses" not in modules
    assert "inspect" not in modules or "inspect" in baseline


def test_a_closed_stdout_exits_two_with_one_line():
    # About 300 KB of JSON: far more than a pipe holds once the reader is gone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dringkit.cli", "cheb", "--n", "1000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err == "error: standard output closed before all output was written\n"


def test_text_and_json_agree_on_the_verdict(capsys):
    _, out, _ = run(capsys, "divides", "x^2-1", "x-1")
    _, payload = run_json(capsys, "divides", "x^2-1", "x-1")
    assert payload["verdict"] in out
    assert payload["quotient"] in out


def test_integers_past_the_str_digit_limit_are_printed_in_full(capsys):
    divisor = "1" + "0" * 100 + "x+1"
    code, payload = run_json(capsys, "pseudodiv", "x^50", divisor)
    assert code == 0
    assert payload["multiplier"] == "1" + "0" * 5000
    assert payload["remainder"] == "1"
    code, out, err = run(capsys, "pseudodiv", "x^50", divisor)
    assert code == 0 and err == ""
    assert "multiplier: 1" + "0" * 5000 + " " in out


def test_negative_integers_past_the_str_digit_limit_are_printed_in_full(capsys):
    # (-1000)^3001 has 9,004 digits, past the 4,300-digit int-to-str limit
    code, out, err = run(capsys, "pseudodiv", "--json", "--", "x^3001", "-1000x+1")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["multiplier"] == "-1" + "0" * 9003
    assert payload["power"] == "3001"
    assert payload["remainder"] == "-1"


@pytest.mark.parametrize(
    "operand",
    [f"x^{MAX_EXPONENT + 1} + 1", "1" + "0" * MAX_LITERAL_DIGITS + "x + 1"],
    ids=["exponent", "literal"],
)
def test_operands_over_the_parse_caps_exit_two(capsys, operand):
    code, out, err = run(capsys, "divides", operand, "x + 1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "position" in err


# --- the parsed interface ----------------------------------------------------

GAUSS = "Q(sqrt -1)"
WINDOW_DEFAULTS = {"lo": -20, "hi": 20}

# subcommand -> (minimal argv, every attribute of the parsed namespace but func)
PARSED = {
    "divides": (["divides", "x^2", "x"], {
        "f": "x^2", "g": "x", "ring": "Z", "bound": 1000, "primitive_part": False,
    }),
    "pseudodiv": (["pseudodiv", "x^2", "x"], {"f": "x^2", "g": "x", "ring": "Z"}),
    "content": (["content", "2x"], {"p": "2x", "ring": "Z"}),
    "normpoly": (["normpoly", "x", "--ring", GAUSS], {"p": "x", "ring": GAUSS}),
    "evalcheck": (["evalcheck", "x^2", "x"], {
        "f": "x^2", "g": "x", "ring": "Z", **WINDOW_DEFAULTS,
    }),
    "sf": (["sf", "x^2+1", "--limit", "30"], {"f": "x^2+1", "limit": 30}),
    "cheb": (["cheb", "--n", "3"], {"n": 3, "certify": False, **WINDOW_DEFAULTS}),
    "zwdemo": (["zwdemo"], {"trials": 10_000, "seed": 1729}),
    "transfer": (["transfer", "x", "x", "--ring", GAUSS], {
        "f": "x", "g": "x", "ring": GAUSS, **WINDOW_DEFAULTS,
    }),
}

# subcommand -> every option string its help must name
HELP_OPTIONS = {
    "divides": ["--json", "--ring", "--bound", "--primitive-part"],
    "pseudodiv": ["--json", "--ring"],
    "content": ["--json", "--ring"],
    "normpoly": ["--json", "--ring"],
    "evalcheck": ["--json", "--ring", "--from", "--to"],
    "sf": ["--json", "--limit"],
    "cheb": ["--json", "--n", "--certify", "--from", "--to"],
    "zwdemo": ["--json", "--trials", "--seed"],
    "transfer": ["--json", "--ring", "--from", "--to"],
}


@pytest.mark.parametrize("command", PARSED)
def test_minimal_argv_parses_to_the_documented_defaults(command):
    argv, expected = PARSED[command]
    namespace = cli.build_parser().parse_args(argv)
    assert namespace.func is getattr(cli, f"_cmd_{command}")
    parsed = vars(namespace)
    del parsed["func"]
    assert parsed == {"command": command, "json": False, **expected}


@pytest.mark.parametrize("argv, option", [
    (["normpoly", "x"], "--ring"),
    (["transfer", "x", "x"], "--ring"),
    (["sf", "x^2+1"], "--limit"),
    (["cheb"], "--n"),
])
def test_a_missing_required_option_exits_two(capsys, argv, option):
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert f"the following arguments are required: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", HELP_OPTIONS)
def test_subcommand_help_names_every_option(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: dringkit {command} ")
    named = set(re.findall(r"(?<![\w-])(-[\w-]+)", out))
    assert {"-h", "--help", *HELP_OPTIONS[command]} <= named


def test_top_level_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert set(PARSED) <= set(re.findall(r"^ {4}(\w+)", out, re.MULTILINE))
