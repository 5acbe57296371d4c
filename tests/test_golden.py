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
    "verify": (0, "d731a0e5a237c426fae1154dc93505f4a88c106c7f1d4ae442c84b7bef29a2d5"),
    "verify-sum-broken": (1, "07a3bd5e42d1e451b5f39839d4f9f0b142e46b95c0942e2a344910f0564529d5"),
    "verify-equation-broken": (1, "71b28bb569ce65fc91d2e803aabe2bc77cbc8b706445248e3a28d39e961b6685"),
    "cartier": (0, "af048474b00baae7b8254f2a1e278bc77b10408401185e42ec4728d2aee2fa35"),
    "asympt": (0, "d7b9ca7afb5055cea9a8927073960f6caff0e8564cbcb01086f2bea4a5ecb652"),
    "converge-n5": (0, "a5ee6ad673483804ebf053be8b48e0a44d01322b5c72817773f05adf10e61d1e"),
    "classic": (1, "b785f77803892dea4d4d2f9da3f51c0a740bcc8e57abf59f2f39ce4c41e0aa56"),
    "converge-n3": (0, "b1555de21f1658724a1a816dd5cbea01f6a62dd2c0eff25f391875706e7747fc"),
    "gen-raised": (0, "c6f33bbb098ba004b450906619f2b19c8c019464e7d04e75b8e19d4897ef9474"),
    "gen-n7": (0, "0e7ebb76f43162b7ca27e2f984f4620908e4f264610fb36f658f49c899dfaa66"),
    "cartier-n5": (0, "02a3ccec22e8ceb4e1e05e7bee1e8e3c4d74b8031011c7fc74f16ce8ff26bdc6"),
}

COMMANDS = {
    "cartier": ["cartier", "--p", 5, "--n", 3, "--t", 3, "--verify"],
    "asympt": ["asympt", "--p", 5, "--s", 1, "--n", 3, "--l", 1, "--series"],
    "converge-n5": ["converge", "--p", 5, "--n", 5, "--l", 2, "--smax", 2],
    "classic": ["converge", "--classic"],
    "converge-n3": ["converge", "--p", 5, "--n", 3, "--l", 1, "--smax", 10,
                    "--samples", 4, "--prec", 13],
    "gen-raised": ["gen", "--p", 5, "--s", 1, "--n", 5, "--l", 2, "--mvec", "2,7,2,2,2"],
    "gen-n7": ["gen", "--p", 7, "--s", 1, "--n", 7, "--l", 2],
    "cartier-n5": ["cartier", "--p", 7, "--n", 5],
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
