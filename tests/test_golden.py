"""Byte pins of the CLI artifacts: each sha256 and exit code is fixed.

A change to how a verdict is computed or shaped must leave these bytes
alone.  The converge run at smax 10 has ten ``constant_term_vals`` keys,
which stay strings: under ``sort_keys`` int keys would put 2 before 10.
"""

import hashlib
import json

import pytest

from kz_padic.cli import main

PINS = {
    "gen": (0, "3a8ab5ed501d2ce1a064ba6cf2465f8c8d8b6edbfb40784bc349c72e77b02ac0"),
    "verify": (0, "d466472f183b10603b0983e82106d03cd22fb8b6fa3f886f8c4322b2704917b8"),
    "verify-sum-broken": (1, "6d215bc7a009e94a5a63e30ccd627f214b91486426efad8318b3a5876ca2d1b3"),
    "verify-equation-broken": (1, "d3e3e47b8bb189a68b3d10989aa74112c8b74bb7553308c1f21b81731795f09b"),
    "cartier": (0, "af048474b00baae7b8254f2a1e278bc77b10408401185e42ec4728d2aee2fa35"),
    "asympt": (0, "d7b9ca7afb5055cea9a8927073960f6caff0e8564cbcb01086f2bea4a5ecb652"),
    "converge-n5": (0, "0a74e8a1c14b068d1c93635c1e8ceae03f9fa2ee306ef4f37935f4cc4f1819cd"),
    "classic": (1, "b785f77803892dea4d4d2f9da3f51c0a740bcc8e57abf59f2f39ce4c41e0aa56"),
    "converge-n3": (0, "b1555de21f1658724a1a816dd5cbea01f6a62dd2c0eff25f391875706e7747fc"),
}

COMMANDS = {
    "cartier": ["cartier", "--p", 5, "--n", 3, "--t", 3, "--verify"],
    "asympt": ["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--series"],
    "converge-n5": ["converge", "--p", 5, "--n", 5, "--l", 2, "--smax", 2],
    "classic": ["converge", "--classic"],
    "converge-n3": ["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 10,
                    "--samples", 4, "--prec", 13],
}


def _pinned(name, argv, tmp_path):
    out = tmp_path / f"{name}.json"
    code = main([str(a) for a in argv] + ["--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == PINS[name]
    return out


def _break_sum(data):
    entry = data["vector"]["entries"][0]
    entry[0]["c"] = str(int(entry[0]["c"]) + 1)


def _break_equation(data):
    # one coefficient moves from entry 1 to entry 2, so the sum still vanishes
    entries = data["vector"]["entries"]
    mono = entries[0][0]["e"]
    for slot, delta in ((0, 1), (1, -1)):
        terms = {tuple(t["e"]): int(t["c"]) for t in entries[slot]}
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + delta
        entries[slot] = [{"e": list(e), "c": str(c)} for e, c in sorted(terms.items()) if c]


def test_solution_round_trip_bytes(tmp_path):
    sol = _pinned("gen", ["gen", "--p", 5, "--s", 2, "--n", 3, "--l", 1], tmp_path)
    _pinned("verify", ["verify", "--in", sol], tmp_path)
    for name, tamper in (("verify-sum-broken", _break_sum),
                         ("verify-equation-broken", _break_equation)):
        data = json.loads(sol.read_text())
        tamper(data)
        bad = tmp_path / f"{name}-in.json"
        bad.write_text(json.dumps(data))
        report = json.loads(_pinned(name, ["verify", "--in", bad], tmp_path).read_text())
        assert report["first_failure"] is not None


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_bytes(name, tmp_path):
    _pinned(name, COMMANDS[name], tmp_path)
