import ast
import json
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import test_golden
from kz_padic import asymptotic, cli, sparsepoly
from kz_padic.asymptotic import zone_request_cost
from kz_padic.cli import build_parser, main
from kz_padic.convergence import classic_cost, convergence_cost
from kz_padic.kz import KZInstance
from kz_padic.solutions import validate_mvec
from kz_padic.sparsepoly import (
    DESK_LIMIT,
    DeskEnvelopeError,
    ModulusContext,
    primality_cost,
    slice_cost,
)


def run(argv):
    return main([str(a) for a in argv])


def test_gen_artifact(tmp_path):
    out = tmp_path / "sol.json"
    code = run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", out])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "kz-padic/1"
    assert data["kind"] == "solution"
    assert data["delta"] == 1
    assert data["checks_ok"]
    assert len(data["vector"]["entries"]) == 3


def test_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", a])
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_verify_roundtrip(tmp_path):
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    run(["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--out", sol])
    code = run(["verify", "--in", sol, "--out", rep])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["pass"] and data["sum_ok"] and all(data["equations"])
    # re-verifying the written artifact reproduces the same outcome
    assert run(["verify", "--in", sol, "--out", rep]) == 0


def test_verify_tampered_file(tmp_path):
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    data["vector"]["entries"][0][0]["c"] = str(
        int(data["vector"]["entries"][0][0]["c"]) + 1)
    sol.write_text(json.dumps(data))
    code = run(["verify", "--in", sol, "--out", rep])
    assert code == 1
    report = json.loads(rep.read_text())
    assert not report["pass"]
    assert report["first_failure"] is not None


def test_verify_from_parameters(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["verify", "--p", 7, "--s", 1, "--n", 3, "--l", 1, "--out", rep]) == 0


def test_cartier_command(tmp_path):
    rep = tmp_path / "cart.json"
    code = run(["cartier", "--p", 5, "--n", 3, "--t", 2, "--verify", "--out", rep])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["degrees_ok"] and data["grading"]["pass"]


def test_asympt_command(tmp_path):
    rep = tmp_path / "asy.json"
    code = run(["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1,
                "--series", "--cutoff", 2, "--prec", 6, "--out", rep])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["factorization_ok"] and data["x_form_consistent"]
    assert data["prefactor"] == {"sign": -1, "exponents": [1, 0]}
    assert data["constant_term"] == ["1", "2", "2"]


def test_converge_command(tmp_path):
    rep = tmp_path / "conv.json"
    code = run(["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 2,
                "--samples", 6, "--seed", 0, "--prec", 8, "--out", rep])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["pass"] and data["strictly_decreasing"]


def test_converge_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 1,
            "--samples", 4, "--seed", 9, "--prec", 6]
    run(argv + ["--out", a])
    run(argv + ["--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_converge_classic_reports_failure(tmp_path):
    rep = tmp_path / "classic.json"
    code = run(["converge", "--classic", "--out", rep])
    assert code == 1
    data = json.loads(rep.read_text())
    assert data["rows"][0]["coefficientwise_equal"]
    assert not data["rows"][1]["coefficientwise_equal"]
    assert all(row["refined_ok"] for row in data["rows"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["gen", "--p", 9, "--s", 1, "--n", 3, "--l", 1])
    assert err.value.code == 2


def test_missing_converge_params_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["converge", "--p", 5])
    assert err.value.code == 2


def test_level_r_artifact_verifies_at_its_level(tmp_path):
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    assert run(["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 1, "--out", sol]) == 0
    assert run(["verify", "--in", sol, "--out", rep]) == 0
    report = json.loads(rep.read_text())
    assert report["pass"] and report["params"]["r"] == 1


def test_corrupted_level_r_artifact_fails(tmp_path):
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    run(["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 1, "--out", sol])
    data = json.loads(sol.read_text())
    entries = data["vector"]["entries"]
    mono = tuple(entries[0][0]["e"])
    for slot, delta in ((0, 1), (1, -1)):      # keeps the coordinate sum
        terms = {tuple(t["e"]): int(t["c"]) for t in entries[slot]}
        terms[mono] = terms.get(mono, 0) + delta
        entries[slot] = [{"e": list(e), "c": str(c)} for e, c in sorted(terms.items()) if c]
    sol.write_text(json.dumps(data))
    assert run(["verify", "--in", sol, "--out", rep]) == 1
    report = json.loads(rep.read_text())
    assert report["sum_ok"] and not report["pass"]


def test_verify_parameters_at_level_r(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["verify", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 1,
                "--out", rep]) == 0
    assert json.loads(rep.read_text())["params"]["r"] == 1


def test_level_outside_range_is_usage_error(tmp_path):
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    data["r"] = 3
    sol.write_text(json.dumps(data))
    for argv in (["verify", "--in", sol],
                 ["verify", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 3]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2


def test_artifact_without_level_is_usage_error(tmp_path):
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    del data["r"]
    sol.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        run(["verify", "--in", sol])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--p", 5, "--s", 2, "--n", 3],
    ["verify", "--p", 5, "--n", 3, "--l", 1],
    ["asympt", "--p", 5, "--s", 1, "--l", 1],
    ["cartier", "--n", 3],
])
def test_missing_option_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--p", 5, "--s", 2, "--n", 3, "--l", 5],
    ["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 0],
    ["verify", "--p", 5, "--s", 1, "--n", 3, "--l", 2, "--mvec", "2,2,2"],
])
def test_zero_vector_is_usage_error(argv, capsys):
    # outside l = 1..g the minimal exponent vector gives the zero vector,
    # which would pass every check vacuously; the library's warning stays inside
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    error = capsys.readouterr().err.splitlines()
    assert len(error) == 1 and error[0].startswith("kz: error: --l ")
    assert "gives the zero vector" in error[0]


@pytest.mark.parametrize("cmd", ["gen", "verify"])
def test_coefficients_past_the_string_limit_are_refused_before_extraction(
        cmd, monkeypatch, capsys):
    # 4 slice tuples are far below the desk budget, but a coefficient near
    # binom(100000, 50000) could not be written in decimal
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the digit guard")

    monkeypatch.setattr(sparsepoly, "bounded_compositions", enumerate_nothing)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    argv = [cmd, "--p", 3, "--s", 1, "--n", 3, "--l", 16667, "--mvec", "1,1,100000"]
    assert request_cost(argv) <= DESK_LIMIT
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "integer string limit of 4300 digits" in capsys.readouterr().err


def _set_schema(data):
    data["schema"] = "kz-padic/0"


def _set_kind(data):
    data["kind"] = "verify"


def _negative_exponent(data):
    data["vector"]["entries"][0][0]["e"][0] = -1


def _float_exponent(data):
    data["vector"]["entries"][0][0]["e"][0] = 1.5


def _drop_entry(data):
    data["vector"]["entries"].pop()


def _bool_exponent(data):
    data["vector"]["entries"][0][0]["e"][0] = True


def _bool_coefficient(data):
    data["vector"]["entries"][0][0]["c"] = True


@pytest.mark.parametrize("tamper,message", [
    (_set_schema, "not a kz-padic/1 solution artifact"),
    (_set_kind, "not a kz-padic/1 solution artifact"),
    (_negative_exponent, "negative exponent"),
    (_float_exponent, "non-integer number 1.5"),
    (_drop_entry, "vector length 2 != n=3"),
    (_bool_exponent, "boolean in a vector entry"),
    (_bool_coefficient, "boolean in a vector entry"),
], ids=["schema", "kind", "negative-exponent", "float-exponent", "entry-count",
        "bool-exponent", "bool-coefficient"])
def test_malformed_artifact_is_usage_error(tamper, message, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    tamper(data)
    sol.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        run(["verify", "--in", sol])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_deeply_nested_artifact_is_usage_error(tmp_path, capsys):
    # json.load raises RecursionError, not a ValueError, which read as a failed check
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run(["verify", "--in", deep])
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    message = capsys.readouterr().err
    assert str(deep) in message and "nested too deeply" in message


@pytest.mark.parametrize("params,key,value", [
    ((5, 1, 5, 1, 1), "l", 2),
    ((5, 1, 5, 1, 1), "mvec", [7, 2, 2, 2, 2]),
    ((5, 2, 3, 1, 1), "r", 2),
], ids=["l", "mvec", "r"])
def test_relabelled_artifact_is_usage_error(params, key, value, tmp_path, capsys):
    # the vector's degree sum(mvec) - l p**r must match the artifact's labels
    p, s, n, l, r = params
    sol = tmp_path / "sol.json"
    run(["gen", "--p", p, "--s", s, "--n", n, "--l", l, "--r", r, "--out", sol])
    data = json.loads(sol.read_text())
    degree = data["delta"]
    first = min(tuple(t["e"]) for t in data["vector"]["entries"][0])
    data[key] = value
    sol.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        run(["verify", "--in", sol])
    assert err.value.code == 2
    want = sum(data["mvec"]) - data["l"] * p ** data["r"]
    assert want != degree
    assert (f"term {list(first)} of entry 1 has degree {degree}, not {want}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key,value", [
    ("p", True), ("s", True), ("n", True), ("l", True), ("r", True), ("mvec", [2, 2, True]),
    ("l", "1"), ("mvec", "2,2,2"),
])
def test_non_integer_parameters_are_usage_error(key, value, tmp_path, capsys):
    # true would pass as 1: before, "l": true verified with exit 0 and echoed "l": true
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    data[key] = value
    sol.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        run(["verify", "--in", sol])
    assert err.value.code == 2
    assert f"{key} must hold integers only" in capsys.readouterr().err


def test_untagged_solution_payload_verifies(tmp_path):
    # SolutionRecord.to_json() carries no schema/kind; only present tags are checked
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    del data["schema"], data["kind"]
    sol.write_text(json.dumps(data))
    assert run(["verify", "--in", sol]) == 0


def test_desk_guard_refuses_before_enumerating(monkeypatch):
    # the guard counts the tuples in closed form, so the refusal is immediate;
    # each cartier request sums its g**2 slices, none of them alone above the limit
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the desk guard")

    monkeypatch.setattr(sparsepoly, "bounded_compositions", enumerate_nothing)
    for argv in (["gen", "--p", 5, "--s", 9, "--n", 5, "--l", 1],
                 ["cartier", "--p", 79, "--n", 5],
                 ["cartier", "--p", 83, "--n", 5],
                 ["cartier", "--p", 89, "--n", 5],
                 ["cartier", "--p", 23, "--n", 7],
                 ["cartier", "--p", 11, "--n", 9]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["asympt", "--p", 5, "--s", 4, "--n", 5, "--l", 1],     # 5.2M-tuple zone slices
    ["cartier", "--p", 97, "--n", 9],                       # a 2.5e11-tuple first entry
])
def test_every_slice_is_refused_before_enumerating(argv, monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the desk guard")

    monkeypatch.setattr(sparsepoly, "bounded_compositions", enumerate_nothing)
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    # 862,924 + 877,971 slice tuples and 1,740,895 truncation indices
    ["asympt", "--p", 7, "--s", 3, "--n", 5, "--l", 1],
    # 5,474,502 series indices
    ["asympt", "--p", 5, "--s", 1, "--n", 5, "--l", 1, "--series", "--cutoff", 400],
    ["asympt", "--p", 5, "--s", 1, "--n", 5, "--l", 1, "--series", "--cutoff", 10 ** 12],
])
def test_asympt_request_is_budgeted_as_a_whole(argv, monkeypatch, capsys):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the desk guard")

    monkeypatch.setattr(sparsepoly, "bounded_compositions", enumerate_nothing)
    monkeypatch.setattr(asymptotic, "bounded_compositions", enumerate_nothing)
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "above the desk budget" in capsys.readouterr().err


@pytest.mark.parametrize("series", [[], ["--series", "--cutoff", 3]])
def test_asympt_builds_one_truncation(series, monkeypatch, tmp_path):
    calls = []
    original = asymptotic.truncated_expansion

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(asymptotic, "truncated_expansion", counting)
    assert run(["asympt", "--p", 5, "--s", 1, "--n", 5, "--l", 1, *series,
                "--out", tmp_path / "asy.json"]) == 0
    assert len(calls) == 1


def test_converge_n5_reaches_level_three(tmp_path):
    # no index of the level-3 truncation is listed: each component is summed
    # by its per-slot generating functions
    rep = tmp_path / "conv.json"
    code = run(["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 3, "--prec", 11,
                "--out", rep])
    assert code == 0
    data = json.loads(rep.read_text())
    assert [r["measured_val"] for r in data["rows"]] == [1, 2, 3]
    assert data["pass"] and data["disjoint_domains"]["pass"]


@pytest.mark.parametrize("p,n,l,smax", [
    (5, 5, 1, 4), (5, 5, 2, 4), (7, 5, 1, 3), (7, 5, 2, 3),
    (7, 7, 1, 3), (7, 7, 2, 3), (7, 7, 3, 3),
])
def test_converge_reaches_past_the_index_walk(p, n, l, smax, tmp_path):
    # default precision smax + 8 and 50 samples; the index walk took minutes
    # or was refused at these levels
    rep = tmp_path / "conv.json"
    assert run(["converge", "--p", p, "--n", n, "--l", l, "--smax", smax,
                "--out", rep]) == 0
    data = json.loads(rep.read_text())
    assert [r["measured_val"] for r in data["rows"]] == list(range(1, smax + 1))
    assert data["strictly_decreasing"] and data["pass"]


def test_converge_desk_guard_refuses_at_once(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run(["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 2,
             "--samples", 10 ** 7])
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert "above the desk budget" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1, 2, 4])
def test_converge_refuses_a_p_that_is_not_an_odd_prime(p, capsys):
    # --p 1 used to hang in int_valuation(m, 1); 2 and 4 failed deep in the p-adic code
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run(["converge", "--p", p, "--n", 3, "--l", 1, "--smax", 2])
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert "not an odd prime" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1, 2, 4, 9])
def test_converge_n5_refuses_a_p_that_is_not_an_odd_prime(p, capsys):
    # the n = 5 request, which carries the domain probe, tests p before any work
    with pytest.raises(SystemExit) as err:
        run(["converge", "--p", p, "--n", 5, "--l", 1, "--smax", 1])
    assert err.value.code == 2
    assert "not an odd prime" in capsys.readouterr().err


def test_converge_n5_at_a_large_prime_ends_at_once(tmp_path):
    # the domain probe enumerates cells, not p Legendre symbols (18 s at this p)
    start = time.perf_counter()
    assert run(["converge", "--p", 10000019, "--n", 5, "--l", 1, "--smax", 1,
                "--out", tmp_path / "conv.json"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads((tmp_path / "conv.json").read_text())["disjoint_domains"]["pass"]


@pytest.mark.parametrize("argv", [
    ["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 4],
    ["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 2],
    ["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 1],
    ["verify", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 1],
    ["verify", "--in", "sol.json"],
    ["cartier", "--p", 5, "--n", 3],
    ["cartier", "--p", 5, "--n", 3, "--t", 3, "--verify"],
], ids=["converge-n3", "converge-n5", "gen", "verify", "verify-in", "cartier",
        "cartier-verify"])
def test_a_request_tests_p_for_primality_once(argv, monkeypatch, tmp_path):
    # every level a request uses is derived from one validated frame
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1, "--r", 1, "--out", "sol.json"]) == 0
    calls = []
    original = sparsepoly._is_prime

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(sparsepoly, "_is_prime", counting)
    assert run(argv + ["--out", "out.json"]) == 0
    assert calls == [5]


@pytest.mark.parametrize("argv,what", [
    (["gen", "--p", 999999999999999989, "--s", 1, "--n", 3, "--l", 1], "primality test"),
    (["converge", "--classic", "--p", 1000000000000000000000007, "--smax", 1],
     "primality test"),
])
def test_work_before_the_main_guard_is_refused_at_once(argv, what, capsys):
    # a primality test by trial division ran for more than 18 s before the
    # desk budget refused it
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    message = capsys.readouterr().err
    assert what in message and "above the desk budget" in message


@pytest.mark.parametrize("argv", [
    ["asympt", "--p", 3, "--s", 9, "--n", 3, "--l", 1],
    ["asympt", "--p", 3, "--s", 12, "--n", 3, "--l", 1, "--series"],
])
def test_zone_requests_with_big_coefficients_are_refused_at_once(argv, monkeypatch, capsys):
    # few indices, but truncation coefficients of about (n-1)M bits: --s 9 ran 84 s,
    # then failed to write a 5,900-digit integer
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the desk guard")

    monkeypatch.setattr(sparsepoly, "bounded_compositions", enumerate_nothing)
    monkeypatch.setattr(asymptotic, "bounded_compositions", enumerate_nothing)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert time.perf_counter() - start < 1.0
    assert "above the desk budget" in capsys.readouterr().err


@pytest.mark.parametrize("n,l", [(3, 1), (5, 2)])
def test_converge_short_precision_is_usage_error(n, l, capsys):
    # refused before sampling, naming the least precision that resolves smax
    with pytest.raises(SystemExit) as err:
        run(["converge", "--p", 5, "--n", n, "--l", l, "--smax", 4, "--prec", 6])
    assert err.value.code == 2
    assert "--prec 6 is too small for --smax 4; use --prec 7 or more" in capsys.readouterr().err
    assert run(["converge", "--p", 5, "--n", n, "--l", l, "--smax", 4, "--prec", 7,
                "--samples", 5]) == 0


@pytest.mark.parametrize("argv,message", [
    (["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 0], "--smax 0 is below 1"),
    (["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 0], "--smax 0 is below 1"),
    (["converge", "--p", 5, "--n", 3, "--l", 2, "--smax", 2], "--l 2 is outside 1..1 for --n 3"),
    (["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 2, "--samples", 0],
     "--samples 0 is below 1"),
    (["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 2, "--samples", -3],
     "--samples -3 is below 1"),
    (["converge", "--classic", "--smax", 0], "--smax 0 is below 1"),
    (["converge", "--classic", "--p", 0], "p=0 is not an odd prime"),
    (["converge", "--classic", "--p", 9], "p=9 is not an odd prime"),
    (["cartier", "--p", 5, "--n", 3, "--verify", "--t", 0], "--t 0 is below 2"),
    (["cartier", "--p", 5, "--n", 3, "--verify", "--t", 1], "--t 1 is below 2"),
    (["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--series", "--cutoff", -3],
     "--cutoff -3 is below 0"),
    (["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--series", "--prec", 0],
     "--prec 0 is below 1"),
    (["cartier", "--p", 5, "--n", 3, "--t", 0], "--t is used only with --verify"),
    (["converge", "--classic", "--n", 4], "--n is not used with --classic"),
    (["converge", "--classic", "--l", 1], "--l is not used with --classic"),
    (["converge", "--classic", "--samples", 7], "--samples is not used with --classic"),
    (["converge", "--classic", "--seed", 0], "--seed is not used with --classic"),
    (["converge", "--classic", "--prec", 8], "--prec is not used with --classic"),
    (["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--cutoff", 0],
     "--cutoff is used only with --series"),
    (["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--prec", 0],
     "--prec is used only with --series"),
], ids=["smax0-n3", "smax0-n5", "l2-n3", "samples0", "samples-negative", "classic-smax0",
        "classic-p0", "classic-p9", "cartier-t0", "cartier-t1", "series-cutoff-negative",
        "series-prec0", "cartier-t-without-verify", "classic-n", "classic-l",
        "classic-samples", "classic-seed", "classic-prec", "asympt-cutoff-without-series",
        "asympt-prec-without-series"])
def test_out_of_range_option_is_usage_error(argv, message, capsys):
    # each of these once ran vacuously, on a silent default, or ignoring the option
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [
    ("--p", 7), ("--s", 3), ("--n", 5), ("--l", 2), ("--r", 1), ("--mvec", "2,2,2"),
])
def test_parameters_beside_an_artifact_are_usage_error(option, value, tmp_path, capsys):
    # the artifact carries its own parameters; a flag beside it was ignored
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    with pytest.raises(SystemExit) as err:
        run(["verify", "--in", sol, option, value])
    assert err.value.code == 2
    assert f"{option} is not used with --in" in capsys.readouterr().err


OPTION_SURFACE = {
    "gen": ["--p", "--s", "--n", "--l", "--r", "--mvec", "--out"],
    "verify": ["--in", "--p", "--s", "--n", "--l", "--r", "--mvec", "--out"],
    "cartier": ["--p", "--n", "--t", "--verify", "--out"],
    "asympt": ["--p", "--s", "--n", "--l", "--series", "--cutoff", "--prec", "--out"],
    "converge": ["--classic", "--p", "--n", "--l", "--smax", "--samples", "--seed",
                 "--prec", "--out"],
}


def test_option_surface_is_pinned():
    # a new option is a new knob: it has to show up here, in review
    (commands,) = [a for a in build_parser()._actions if a.choices]
    surface = {name: [s for a in sub._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, sub in commands.choices.items()}
    assert surface == OPTION_SURFACE
    assert sum(map(len, surface.values())) == 37


def test_shared_parser_parses_like_fresh_ones():
    argvs = [["gen", "--p", "5", "--s", "2", "--n", "3", "--l", "1"],
             ["converge", "--classic"],
             ["gen", "--p", "7", "--s", "1", "--n", "5", "--l", "2", "--mvec", "1,2,3,4,5"]]
    assert build_parser() is build_parser()
    shared = [build_parser().parse_args(argv) for argv in argvs]
    assert shared == [build_parser.__wrapped__().parse_args(argv) for argv in argvs]


# -- the artifact writer against json.dumps(sort_keys=True, indent=2) -----------------

def _oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
INTS = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
LEAVES = (st.none() | st.booleans() | INTS | TEXT
          | st.floats(allow_nan=True, allow_infinity=True))
# same-shaped term records, as vector_to_json writes them, and near misses:
# "c" not a str, "e" lengths that differ, bools among the exponents, other keys
TERMS = st.integers(0, 4).flatmap(lambda width: st.lists(st.fixed_dictionaries(
    {"c": TEXT, "e": st.lists(INTS, min_size=width, max_size=width)}), min_size=1, max_size=4))
NEAR_TERMS = st.lists(st.dictionaries(
    st.sampled_from(["c", "e", "%s", "é"]),
    TEXT | INTS | st.lists(INTS | st.booleans(), max_size=3)
    | st.lists(INTS, max_size=2).map(tuple), max_size=3),
    min_size=1, max_size=4)
JSON = st.recursive(
    LEAVES | TERMS | NEAR_TERMS | st.lists(INTS | st.booleans()),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(JSON)
@example([{"c": "1", "e": [0, 1]}, {"c": "-2", "e": [1, 0]}])
@example([{"c": "1", "e": [0, True]}, {"c": "2", "e": [1, 0]}])
@example([{"c": "1", "e": [0]}, {"c": "2", "e": [1, 0]}])
@example([{"c": 1, "e": [0]}, {"c": "2", "e": [1]}])
@example([{"c": "1", "e": [0]}, {"c": "2", "x": [1]}])
@example([{"c": "1", "e": [0]}, {"c": "2", "e": [1], "x": "3"}])
@example({"%s": [{"%s": "%", "%d": []}, {"%s": "%%", "%d": []}]})
@example([[], {}, (), [[]], {"": {}}, [float("nan"), float("inf"), -float("inf"), -0.0]])
def test_writer_matches_json_dumps(value):
    assert cli._dumps(value) == _oracle(value)


UNSUPPORTED = [set(), frozenset({1}), b"x", 1j, object(), Decimal("1.5"), range(2)]


@settings(max_examples=50, deadline=None)
@given(JSON, st.sampled_from([1, 2.5, None, True, ("t",)]), st.sampled_from(UNSUPPORTED))
def test_writer_refuses_non_str_keys_and_unsupported_types(value, key, bad):
    with pytest.raises(TypeError):
        cli._dumps([value, {key: value}])
    with pytest.raises(TypeError):
        cli._dumps({"k": [value, bad]})
    with pytest.raises(TypeError):
        cli._dumps([{"c": "1", "e": [0]}, {"c": "2", "e": [1], key: "3"}])


@pytest.mark.parametrize("name", sorted(test_golden.COMMANDS))
def test_emit_writes_json_dumps_bytes(name, tmp_path):
    argv = [str(a) for a in test_golden.COMMANDS[name]]
    _, artifact = cli.COMMANDS[argv[0]](build_parser().parse_args(argv))
    out = tmp_path / "artifact.json"
    cli.emit(artifact, str(out))
    assert out.read_bytes() == (_oracle(artifact) + "\n").encode()


def request_cost(argv):
    """The largest work the program checks against the desk budget for a request,
    from the closed-form cost functions alone: nothing is built or enumerated."""
    args = build_parser().parse_args([str(a) for a in argv])
    if args.p is not None and primality_cost(args.p) > DESK_LIMIT:
        return primality_cost(args.p)           # every command tests p before its work
    if args.command in ("gen", "verify"):
        if getattr(args, "infile", None):
            return 0                            # the artifact carries its vector
        inst = KZInstance(args.n, ModulusContext(args.p, args.s))
        mvec = validate_mvec(inst, args.mvec and args.mvec.split(","))
        r = args.r if args.r is not None else args.s
        return slice_cost(mvec, args.l * args.p ** r, 2 * args.n)  # the slice the gradient walks
    if args.command == "cartier":
        p, n, g = args.p, args.n, (args.n - 1) // 2
        cost = sum(slice_cost(((p - 1) // 2,) * n, j * p - i)
                   for i in range(1, g + 1) for j in range(1, g + 1))
        if args.verify:                         # the level-t solutions it lowers
            t = args.t or 2
            cost = max(cost, *(slice_cost(((p ** t - 1) // 2,) * n, l * p ** t, 2 * n)
                               for l in range(1, g + 1)))
        return cost
    if args.command == "asympt":
        inst = KZInstance(args.n, ModulusContext(args.p, args.s))
        cutoff = args.cutoff if args.cutoff is not None else inst.ctx.half
        prec = args.prec if args.prec is not None else args.s + 8
        try:
            return zone_request_cost(inst, args.l, cutoff if args.series else None, prec)
        except DeskEnvelopeError:               # the series' lower bound is already above
            return float("inf")
    if args.classic:
        return sum(classic_cost(args.p or 5, s) for s in range(1, (args.smax or 3) + 1))
    return convergence_cost(args.p, args.n, args.l, args.smax, args.samples or 50,
                            args.prec or args.smax + 8)


def _benchmark_requests():
    """The requests the benchmark makes, from the literals in perfbench/workloads.py."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text())
    found = {target.id: ast.literal_eval(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name)
             and target.id in ("GRID", "GRADING", "CARTIER", "CONFIGS")}
    out = []
    for p, s, n in found["GRID"]:
        for l in range(1, (n - 1) // 2 + 1):
            out += [[cmd, "--p", p, "--s", s, "--n", n, "--l", l]
                    for cmd in ("gen", "verify", "asympt")]
    out += [["cartier", "--p", p, "--n", n, "--t", t, "--verify"] for p, n, t in found["GRADING"]]
    out += [["cartier", "--p", p, "--n", n] for p, n in found["CARTIER"]]
    out += [["converge", "--p", p, "--n", n, "--l", l, "--smax", smax, "--prec", prec]
            for p, n, l, smax, prec in found["CONFIGS"]]
    return out


REFUSED = [                                     # the argv of every refusal test
    ["gen", "--p", 5, "--s", 9, "--n", 5, "--l", 1],
    ["gen", "--p", 5, "--s", 4, "--n", 5, "--l", 1],
    ["cartier", "--p", 79, "--n", 5],
    ["cartier", "--p", 83, "--n", 5],
    ["cartier", "--p", 89, "--n", 5],
    ["cartier", "--p", 23, "--n", 7],
    ["cartier", "--p", 11, "--n", 9],
    ["cartier", "--p", 97, "--n", 9],
    ["asympt", "--p", 5, "--s", 4, "--n", 5, "--l", 1],
    ["asympt", "--p", 7, "--s", 3, "--n", 5, "--l", 1],
    ["asympt", "--p", 5, "--s", 1, "--n", 5, "--l", 1, "--series", "--cutoff", 400],
    ["asympt", "--p", 5, "--s", 1, "--n", 5, "--l", 1, "--series", "--cutoff", 10 ** 12],
    ["asympt", "--p", 3, "--s", 9, "--n", 3, "--l", 1],
    ["asympt", "--p", 3, "--s", 12, "--n", 3, "--l", 1, "--series"],
    ["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 2, "--samples", 10 ** 7],
    ["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 2, "--samples", 10 ** 7, "--prec", 10],
    ["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 300, "--prec", 308],
    ["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 3, "--prec", 3000],
    ["converge", "--classic", "--p", 7, "--smax", 6],
    ["converge", "--classic", "--p", 31, "--smax", 4],
    # trial division to sqrt(p): each ran past 20 s before any guard
    ["gen", "--p", 999999999999999989, "--s", 1, "--n", 3, "--l", 1],
    ["converge", "--classic", "--p", 1000000000000000000000007, "--smax", 1],
]

ADMITTED = [                                    # README examples and the runs tests make
    ["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1],
    ["verify", "--p", 5, "--s", 2, "--n", 3, "--l", 1],
    ["verify", "--in", "sol.json"],
    ["cartier", "--p", 5, "--n", 3, "--t", 2, "--verify"],
    ["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--series"],
    ["asympt", "--p", 3, "--s", 8, "--n", 3, "--l", 1],
    ["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 4, "--samples", 50, "--seed", 0,
     "--prec", 12],
    ["converge", "--p", 5, "--n", 5, "--l", 2, "--smax", 2],
    ["converge", "--p", 5, "--n", 5, "--l", 1, "--smax", 3, "--prec", 11],
    ["converge", "--p", 10000019, "--n", 5, "--l", 1, "--smax", 1],
    ["converge", "--classic"],
    ["converge", "--classic", "--p", 7, "--smax", 4],
    ["converge", "--classic", "--p", 5, "--smax", 5],
    *(["converge", "--p", p, "--n", n, "--l", l, "--smax", smax] for p, n, l, smax in [
        (5, 5, 1, 4), (5, 5, 2, 4), (7, 5, 1, 3), (7, 5, 2, 3),
        (7, 7, 1, 3), (7, 7, 2, 3), (7, 7, 3, 3), (5, 5, 1, 10), (7, 7, 2, 5), (5, 3, 1, 12)]),
    *test_golden.COMMANDS.values(),
    *_benchmark_requests(),
]


@pytest.mark.parametrize("argv,admitted", [(argv, False) for argv in REFUSED]
                         + [(argv, True) for argv in ADMITTED],
                         ids=lambda v: " ".join(map(str, v)) if isinstance(v, list) else None)
def test_verdicts_by_cost_alone(argv, admitted):
    # every request a test, golden pin, README example or benchmark workload makes
    # keeps the verdict it had under the tuple and multiply-add limits; the two
    # classic comparisons in REFUSED had no budget then and ran for minutes
    assert (request_cost(argv) <= DESK_LIMIT) == admitted
