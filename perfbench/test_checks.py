"""The benchmark's own checks: each accepts the program's real output and
rejects a tampered copy.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from kz_padic import cli  # noqa: E402
from kz_padic.cartier import cartier_matrix  # noqa: E402
from kz_padic.convergence import converge_T_n3  # noqa: E402
from kz_padic.kz import KZInstance  # noqa: E402
from kz_padic.solutions import extract_solution, leading_term_vector  # noqa: E402
from kz_padic.sparsepoly import ModulusContext  # noqa: E402


def _artifact(p, s, n, l, r=None) -> dict:
    inst = KZInstance(n, ModulusContext(p, s))
    return extract_solution(inst, None, l, r).to_json()


def _set(artifact: dict, slot: int, mono, coeff: int) -> dict:
    out = copy.deepcopy(artifact)
    entry = out["vector"]["entries"][slot]
    for term in entry:
        if tuple(term["e"]) == tuple(mono):
            term["c"] = str(coeff)
            return out
    entry.append({"e": list(mono), "c": str(coeff)})
    return out


def _rng():
    return random.Random(7)


@pytest.fixture(scope="module")
def genuine():
    return _artifact(5, 2, 3, 1)


# -- solution artifacts -------------------------------------------------------------


@pytest.mark.parametrize("params", [(5, 2, 3, 1, None), (7, 1, 5, 1, None), (7, 1, 5, 2, None),
                                    (5, 2, 3, 1, 1)])
def test_genuine_solutions_pass(params):
    assert checks.check_solution(_artifact(*params), _rng(), 50, 2) == []


def test_one_changed_coefficient_is_caught(genuine):
    term = genuine["vector"]["entries"][2][0]
    bad = _set(genuine, 2, term["e"], int(term["c"]) + 1)
    problems = checks.check_solution(bad, _rng(), 10 ** 6, 0)
    assert any("coordinate sum" in p for p in problems)
    assert any("closed formula" in p for p in problems)


def test_sum_preserving_change_is_caught_by_formula_and_residual(genuine):
    bad = checks.corrupt(genuine, _rng())
    assert any("closed formula" in p for p in checks.check_solution(bad, _rng(), 10 ** 6, 0))
    R = checks.residual_at(checks.entries_of(bad),
                           checks.distinct_point(_rng(), 5, 3, units=True), 25)
    assert any(any(row) for row in R)


def test_wrong_degree_is_caught(genuine):
    bad = copy.deepcopy(genuine)
    bad["delta"] += 1
    assert any("delta" in p for p in checks.check_solution(bad, _rng(), 5, 0))
    off = _set(genuine, 0, (12, 12, 0), 1)          # degree 24, not 11
    assert any("not of degree" in p for p in checks.check_solution(off, _rng(), 5, 0))


def test_zero_vector_is_caught(genuine):
    bad = copy.deepcopy(genuine)
    bad["vector"]["entries"] = [[] for _ in bad["vector"]["entries"]]
    assert checks.check_solution(bad, _rng(), 5, 0) == ["p=5 s=2 n=3 l=1 r=2: zero vector"]


def test_residual_matches_the_definition_on_a_wrong_vector():
    # I = (z1, 0, -z1) is no solution: equation 1, component 1 reads
    # 1 - 1/2 ((0 - z1)/(z1 - z2) + (-z1 - z1)/(z1 - z3)).
    entries = [{(1, 0, 0): 1}, {}, {(1, 0, 0): -1}]
    z, mod = [1, 2, 4], 25
    inv = lambda a: pow(a % mod, -1, mod)  # noqa: E731
    want = (1 - inv(2) * ((0 - 1) * inv(1 - 2) + (-1 - 1) * inv(1 - 4))) % mod
    assert checks.residual_at(entries, z, mod)[0][0] == want


# -- verdicts -----------------------------------------------------------------------


def _verify(tmp_path, artifact) -> tuple:
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(artifact))
    code = cli.main(["verify", "--in", str(src), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_verdicts(tmp_path, genuine):
    code, report = _verify(tmp_path, genuine)
    assert code == 0 and checks.check_verified(report, 3) == []
    assert checks.check_verified(dict(report, **{"pass": False}), 3)
    assert checks.check_verified(dict(report, first_failure={"equation": 1}), 3)

    bad = checks.corrupt(genuine, _rng())
    code, report = _verify(tmp_path, bad)
    assert code == 1 and checks.check_rejected(bad, report, _rng()) == []
    assert checks.check_rejected(bad, dict(report, **{"pass": True}), _rng())
    assert checks.check_rejected(bad, dict(report, first_failure={"equation": "sum"}), _rng())
    # the genuine vector has no residual, so it cannot stand in for a corrupted one
    assert any("vanishes" in p for p in checks.check_rejected(genuine, report, _rng()))


# -- leading terms and Cartier-Manin matrices ---------------------------------------------


@pytest.mark.parametrize("p,s,n,l", [(5, 2, 3, 1), (7, 1, 5, 1), (7, 1, 5, 2), (5, 2, 5, 2)])
def test_leading_term(p, s, n, l):
    want = checks.leading_term(p, s, n, l)
    assert leading_term_vector(KZInstance(n, ModulusContext(p, s)), l) == want
    entries = checks.entries_of(_artifact(p, s, n, l))
    assert checks.lex_leading(entries) == want
    top, vec = want
    entries[n - 1][top] += 1
    assert checks.lex_leading(entries) != want


@pytest.mark.parametrize("p,n", [(5, 3), (7, 3), (5, 5)])
def test_cartier(p, n):
    entries = [[dict(c.terms) for c in row] for row in cartier_matrix(p, n).entries]
    assert checks.check_cartier(p, n, entries, _rng(), 3) == []
    mono = next(iter(entries[0][0]))
    entries[0][0][mono] = (entries[0][0][mono] + 1) % p
    assert checks.check_cartier(p, n, entries, _rng(), 3)


# -- convergence reports ------------------------------------------------------------


@pytest.fixture(scope="module")
def converge_report():
    return converge_T_n3(5, 3, 8, 0, 10).to_json()


def test_converge_report_passes(converge_report):
    assert checks.check_converge(converge_report, 5, 3, 1, 3) == []


def test_converge_tampering_is_caught(converge_report):
    flat = copy.deepcopy(converge_report)
    row = next(r for r in flat["rows"] if r["s"] == 3)
    row["measured_val"] = next(r for r in flat["rows"]
                               if r["s"] == 2 and r["phase"] == row["phase"])["measured_val"]
    assert any("strictly increase" in p for p in checks.check_converge(flat, 5, 3, 1, 3))
    failed = dict(converge_report, **{"pass": False})
    assert checks.check_converge(failed, 5, 3, 1, 3)
    const = dict(converge_report, constant_term_vals={"1": 1, "2": 3, "3": 3})
    assert any("constant-term" in p for p in checks.check_converge(const, 5, 3, 1, 3))
    missing = copy.deepcopy(converge_report)
    missing["rows"] = [r for r in missing["rows"] if r["s"] != 2]
    assert any("levels" in p for p in checks.check_converge(missing, 5, 3, 1, 3))
    assert any("disjoint" in p for p in checks.check_converge(converge_report, 5, 5, 1, 3))


@pytest.mark.parametrize("p,n,l", [(5, 3, 1), (5, 5, 1), (5, 5, 2), (7, 5, 2)])
def test_constant_distance_is_exactly_p_to_the_minus_s(p, n, l):
    assert [checks.constant_distance(p, n, l, s) for s in (1, 2, 3)] == [1, 2, 3]


# -- spans ---------------------------------------------------------------------


def test_self_time_and_cover():
    def span(i, parent, name, a, b):
        out = spans.Span(i, parent, name, None, a)
        out.end = b
        return out

    rows = [span(1, None, "kz.verify_solution", 0.0, 10.0),
            span(2, 1, "kz.kz_residue", 1.0, 4.0),
            span(3, 1, "kz.kz_residue", 3.0, 6.0),        # overlaps: a pool thread
            span(4, None, "kz.verify_solution", 20.0, 21.0)]
    assert spans.self_times(rows)[1] == pytest.approx(5.0)
    assert spans.covered(rows, {"kz.verify_solution", "kz.kz_residue"}) == pytest.approx(11.0)
    assert spans.covered(rows, {"kz.kz_residue"}) == pytest.approx(6.0)


def test_tracer_sees_calls_between_layers(tmp_path, genuine):
    tracer = spans.Tracer()
    tracer.install()
    try:
        src = tmp_path / "in.json"
        src.write_text(json.dumps(genuine))
        cli.main(["verify", "--in", str(src), "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "cli.cmd_verify", "kz.verify_solution", "kz.kz_residue",
            "sparsepoly.vector_from_json"} <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["kz.verify_terms"] == sum(len(e) for e in genuine["vector"]["entries"])
    assert 0 < metrics["kz.verify_s"] <= metrics["kz.verify_cpu_s"] + 1.0
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
