"""Subcommand behavior, exit codes, and JSON output discipline."""

import json

import pytest

from dringkit import cli, lab
from dringkit.cli import CHEB_N_CAP, SAMPLE_POINT_CAP, SF_LIMIT_CAP, ZWDEMO_TRIALS_CAP, main
from dringkit.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS


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


@pytest.mark.parametrize("argv, option", [
    (["evalcheck", "x", "x+1", "--from", "-" + OVER], "--from"),
    (["evalcheck", "x", "x+1", "--to", OVER], "--to"),
    (["transfer", "x", "x+1", "--ring", "Q(sqrt -1)", "--from", "-" + OVER], "--from"),
    (["transfer", "x", "x+1", "--ring", "Q(sqrt -1)", "--to", OVER], "--to"),
    (["cheb", "--n", "3", "--certify", "--from", "-" + OVER], "--from"),
    (["cheb", "--n", "3", "--certify", "--to", OVER], "--to"),
    (["divides", "x^2+1", "x+1", "--bound", OVER], "--bound"),
    (["divides", "x^2+1", "x+1", "--bound", "-" + OVER], "--bound"),
])
def test_sample_points_over_the_cap_are_usage_errors(capsys, monkeypatch, argv, option):
    for name in ("eval_divisibility", "norm_transfer_check", "cheb_certify", "certify_divisibility"):
        monkeypatch.setattr(cli, name, None)  # must not be reached
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: |{option}| must not exceed {SAMPLE_POINT_CAP}\n"


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


def test_a_failed_root_recheck_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(lab, "_least_root_mod", lambda coeffs, p: 1)
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


def test_cheb_certify_rejects_n_zero(capsys):
    code, _, err = run(capsys, "cheb", "--n", "0", "--certify")
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("extra", [[], ["--certify"]])
def test_cheb_n_above_the_cap_is_a_usage_error(capsys, monkeypatch, extra):
    monkeypatch.setattr(cli, "_cheb_pairs", None)  # must not be reached
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
    assert payload["failures"] == []
    assert payload["seed"] == "5"


def test_zwdemo_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("DRINGKIT_SEED", "4242")
    code, payload = run_json(capsys, "zwdemo", "--trials", "50")
    assert code == 0
    assert payload["seed"] == "4242"


def test_zwdemo_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("DRINGKIT_SEED", "4242")
    code, payload = run_json(capsys, "zwdemo", "--trials", "50", "--seed", "1")
    assert payload["seed"] == "1"


def test_zwdemo_trials_above_the_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "zw_unit_demo", None)  # must not be reached
    code, out, err = run(capsys, "zwdemo", "--trials", str(ZWDEMO_TRIALS_CAP + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(ZWDEMO_TRIALS_CAP) in err


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
