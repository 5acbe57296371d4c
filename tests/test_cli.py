import json
import time

import pytest

from kz_padic.cli import main


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


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\ns = 1\nn = 3\nl = 1  # exponent index\n")
    out = tmp_path / "sol.json"
    assert run(["gen", "--config", cfg, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert (data["p"], data["s"], data["n"], data["l"]) == (5, 1, 3, 1)


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=5\ns=1\nn=3\nl=1\n")
    out = tmp_path / "sol.json"
    assert run(["gen", "--config", cfg, "--p", 7, "--out", out]) == 0
    assert json.loads(out.read_text())["p"] == 7


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
def test_zero_vector_is_usage_error(argv):
    # outside l = 1..g the minimal exponent vector gives the zero vector,
    # which would pass every check vacuously
    with pytest.raises(SystemExit) as err, pytest.warns(UserWarning, match="zero vector"):
        run(argv)
    assert err.value.code == 2


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


def test_untagged_solution_payload_verifies(tmp_path):
    # SolutionRecord.to_json() carries no schema/kind; only present tags are checked
    sol = tmp_path / "sol.json"
    run(["gen", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--out", sol])
    data = json.loads(sol.read_text())
    del data["schema"], data["kind"]
    sol.write_text(json.dumps(data))
    assert run(["verify", "--in", sol]) == 0


def test_desk_guard_refuses_before_enumerating():
    # the guard counts the tuples in closed form, so the refusal is immediate
    with pytest.raises(SystemExit) as err:
        run(["gen", "--p", 5, "--s", 9, "--n", 5, "--l", 1])
    assert err.value.code == 2


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
], ids=["smax0-n3", "smax0-n5", "l2-n3", "samples0", "samples-negative", "classic-smax0",
        "classic-p0", "classic-p9", "cartier-t0", "cartier-t1"])
def test_out_of_range_option_is_usage_error(argv, message, capsys):
    # each of these once ran vacuously or on a silent default instead
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
