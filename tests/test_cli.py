import json

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
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


def test_desk_guard_refuses_before_enumerating():
    # the guard counts the tuples in closed form, so the refusal is immediate
    with pytest.raises(SystemExit) as err:
        run(["gen", "--p", 5, "--s", 9, "--n", 5, "--l", 1])
    assert err.value.code == 2
