"""Unified command-line entry point: reproducible runs with JSON artifacts.

Subcommands: gen | verify | cartier | asympt | converge.  Every artifact is
UTF-8 JSON tagged with schema "kz-padic/1"; all randomness is seeded, so a
given configuration reproduces its artifact byte for byte.  Exit status 0
means every embedded check passed, 1 a check failure (the artifact still
carries the report), 2 a usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
import warnings

from .asymptotic import (
    constant_vector,
    factorization_report,
    limit_series,
    prefactor_truncated,
    q_consistency_report,
    zone_request_cost,
)
from .cartier import cartier_matrix_of, verify_grading_relation, verify_iterated_product
from .convergence import (
    classic_partial_sums,
    converge_Q_general,
    converge_T_n3,
    disjoint_domain_probe,
    least_precision,
)
from .kz import KZInstance, verify_solution
from .solutions import extract_solution, validate_mvec
from .sparsepoly import ModulusContext, coefficient_bits, desk_check, vector_from_json

SCHEMA = "kz-padic/1"


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required")


def _at_least(args, name: str, least: int) -> None:
    value = getattr(args, name)
    if value is not None and value < least:
        raise ValueError(f"--{name} {value} is below {least}")


def _unused(args, names, why: str) -> None:
    """An option the chosen mode ignores would read as if it had been applied."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} {why}")


def _instance(args) -> KZInstance:
    _require(args, "p", "s", "n", "l")
    return KZInstance(args.n, ModulusContext(args.p, args.s))


def _extract(args):
    """The instance and the solution record named by --p --s --n --l [--r --mvec]; refused
    before extraction if a coefficient could pass Python's integer string limit."""
    inst = _instance(args)
    mvec = validate_mvec(inst, args.mvec and args.mvec.split(","))
    r = inst.ctx.s if args.r is None else args.r
    bits = coefficient_bits(mvec, args.l * inst.ctx.level(r).modulus - 1)
    width, limit = bits * 30103 // 100000 + 1, getattr(sys, "get_int_max_str_digits", int)()
    if 0 < limit < width:               # decimal digits below 2**bits; limit 0: none
        raise ValueError(f"coefficients of up to {width} digits would pass Python's integer "
                         f"string limit of {limit} digits (sys.set_int_max_str_digits)")
    with warnings.catch_warnings():     # the zero vector is refused below
        warnings.filterwarnings("ignore", "index l=", UserWarning)
        record = extract_solution(inst, mvec, args.l, r)
    if record.vector.is_zero():         # it would pass every check vacuously
        raise ValueError(f"--l {args.l} gives the zero vector at level {record.r} "
                         f"(with the default exponents l runs over 1..{inst.g})")
    return inst, record


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kz",
        description="Exact solutions of the reduced KZ system mod p**s and their p-adic limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="artifact path (default: stdout)")

    sp = sub.add_parser("gen", help="generate a solution vector")
    sp.add_argument("--p", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--mvec", help="comma-separated exponents")
    common(sp)

    sp = sub.add_parser("verify", help="verify a solution (generated or from file)")
    sp.add_argument("--in", dest="infile", help="solution artifact to re-verify")
    sp.add_argument("--p", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--mvec")
    common(sp)

    sp = sub.add_parser("cartier", help="Cartier-Manin matrix and grading checks")
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--verify", action="store_true")
    common(sp)

    sp = sub.add_parser("asympt", help="zone expansion: prefactor and truncation")
    sp.add_argument("--p", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--series", action="store_true", help="include the limiting series")
    sp.add_argument("--cutoff", type=int, default=None)
    sp.add_argument("--prec", type=int, default=None)
    common(sp)

    sp = sub.add_parser("converge", help="seeded convergence experiments")
    sp.add_argument("--classic", action="store_true",
                    help="one-variable partial-sum comparison")
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--smax", type=int)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--prec", type=int, default=None)
    common(sp)

    return parser


def cmd_gen(args):
    _, record = _extract(args)
    checks = record.homogeneous() and record.column_sums_divisible()
    artifact = {"schema": SCHEMA, "kind": "solution", **record.to_json(),
                "checks_ok": checks}
    return (0 if checks else 1), artifact


def _reject_float(text: str):
    raise ValueError(f"non-integer number {text} in the artifact")


def _check_degree(vector, degree: int, path: str, params: dict) -> None:
    """Every term of a level-r solution has degree sum(mvec) - l*p**r."""
    for k, entry in enumerate(vector.entries, 1):
        if entry.degrees_present() - {degree}:
            mono = min(e for e in entry.terms if sum(e) != degree)
            raise ValueError(f"{path}: term {list(mono)} of entry {k} has degree {sum(mono)}, "
                             f"not {degree} as l={params['l']}, r={params['r']} require")


def cmd_verify(args):
    """Verify at the level r of the solution: an index l*p**r - 1 solves mod p**r."""
    if args.infile:
        _unused(args, ("p", "s", "n", "l", "r", "mvec"),
                "is not used with --in: the artifact carries its parameters")
        with open(args.infile, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_float=_reject_float)
            except RecursionError as exc:   # not a ValueError: it would read as a failed check
                raise ValueError(f"{args.infile}: JSON nested too deeply to read") from exc
        try:
            params = {k: data[k] for k in ("p", "s", "n", "l", "r")}
            fields = [*params.items(), *(("mvec", m) for m in data.get("mvec") or ())]
            bad = next((k for k, v in fields if type(v) is not int), None)  # true is an int too
            if bad:
                raise ValueError(f"{args.infile}: {bad} must hold integers only")
            # a bare SolutionRecord.to_json() payload carries no tags; present tags must match
            if (data.get("schema", SCHEMA), data.get("kind", "solution")) != (SCHEMA, "solution"):
                raise ValueError(f"{args.infile}: not a {SCHEMA} solution artifact")
            inst = KZInstance(data["n"], ModulusContext(data["p"], data["s"]))
            vector = vector_from_json(data["vector"])
            mvec = validate_mvec(inst, data.get("mvec"))
            level = inst.level(params["r"])
            _check_degree(vector, sum(mvec) - params["l"] * level.ctx.modulus,
                          args.infile, params)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{args.infile}: not a solution artifact ({exc!r})") from exc
    else:
        inst, record = _extract(args)
        vector = record.vector
        params = {"p": args.p, "s": args.s, "n": args.n, "l": args.l,
                  "r": record.r}
        level = inst.level(record.r)
    check = verify_solution(vector, level)
    artifact = {"schema": SCHEMA, "kind": "verify", "params": params,
                **check.to_json()}
    return (0 if check.passed else 1), artifact


def cmd_cartier(args):
    _require(args, "p", "n")
    if args.verify:
        _at_least(args, "t", 2)
    else:
        _unused(args, ("t",), "is used only with --verify")
    t = args.t if args.t is not None else 2   # the level --verify lowers from
    inst = KZInstance(args.n, ModulusContext(args.p, t))
    C = cartier_matrix_of(inst)
    ok = C.degrees_ok()
    artifact = {"schema": SCHEMA, "kind": "cartier", "matrix": C.to_json(),
                "degrees_ok": ok}
    if args.verify:
        grading = verify_grading_relation(inst, t)
        artifact["grading"] = grading.to_json()
        ok = ok and grading.passed
        if t >= 3:
            iterated = verify_iterated_product(inst, t, t - 1)
            artifact["iterated_ok"] = iterated.passed
            ok = ok and iterated.passed
    return (0 if ok else 1), artifact


def cmd_asympt(args):
    if not args.series:
        _unused(args, ("cutoff", "prec"), "is used only with --series")
    _at_least(args, "cutoff", 0)
    _at_least(args, "prec", 1)
    inst = _instance(args)
    cutoff = args.cutoff if args.cutoff is not None else inst.ctx.half
    prec = args.prec if args.prec is not None else args.s + 8
    # the whole request, before any of it is built
    desk_check(zone_request_cost(inst, args.l, cutoff if args.series else None, prec), "request")
    pre = prefactor_truncated(inst, args.l)
    fact = factorization_report(inst, args.l)
    trunc = fact.truncation
    consistent = q_consistency_report(trunc)
    artifact = {
        "schema": SCHEMA, "kind": "asympt",
        "p": args.p, "s": args.s, "n": args.n, "l": args.l,
        "prefactor": {"sign": pre.sign, "exponents": list(pre.exponents)},
        "constant_term": [str(c) for c in constant_vector(inst, args.l)],
        "factorization_ok": fact.passed,
        "x_form_consistent": consistent,
        "truncation": trunc.to_json(),
    }
    if args.series:
        artifact["series"] = limit_series(args.p, args.n, args.l, cutoff, prec).to_json()
    ok = fact.passed and consistent
    return (0 if ok else 1), artifact


def cmd_converge(args):
    _at_least(args, "smax", 1)
    _at_least(args, "samples", 1)
    if args.classic:
        _unused(args, ("n", "l", "samples", "seed", "prec"), "is not used with --classic")
        p = args.p if args.p is not None else 5
        smax = args.smax if args.smax is not None else 3
        report = classic_partial_sums(p, range(1, smax + 1))
        artifact = {"schema": SCHEMA, "kind": "classic", **report.to_json()}
        return (0 if report.passed else 1), artifact

    _require(args, "p", "n", "l", "smax")
    g = (args.n - 1) // 2
    if not 1 <= args.l <= g:
        raise ValueError(f"--l {args.l} is outside 1..{g} for --n {args.n}")
    samples = args.samples if args.samples is not None else 50
    seed = args.seed if args.seed is not None else 0
    prec = args.prec if args.prec is not None else args.smax + 8
    if prec < least_precision(args.smax):
        raise ValueError(f"--prec {prec} is too small for --smax {args.smax}; "
                         f"use --prec {least_precision(args.smax)} or more")
    if args.n == 3:
        report = converge_T_n3(args.p, args.smax, samples, seed, prec)
    else:
        report = converge_Q_general(args.p, args.n, args.l, args.smax,
                                    samples, seed, prec)
    artifact = {"schema": SCHEMA, "kind": "converge", **report.to_json()}
    ok = report.passed
    if args.n == 5:
        probe = disjoint_domain_probe()
        artifact["disjoint_domains"] = probe.to_json()
        ok = ok and probe.passed
    return (0 if ok else 1), artifact


COMMANDS = {
    "gen": cmd_gen,
    "verify": cmd_verify,
    "cartier": cmd_cartier,
    "asympt": cmd_asympt,
    "converge": cmd_converge,
}


_quote = json.encoder.encode_basestring_ascii


def _records(items, inner: str) -> str | None:
    """A list of same-shaped records as one % template, or None.

    Same-shaped: dicts with the keys of the first, each value a str or a list
    of plain ints of one fixed length per key (the term records of
    ``vector_to_json``).
    """
    first = items[0]
    if not first or set(map(type, items)) != {dict} or not all(
            map(operator.eq, map(dict.keys, items), itertools.repeat(first.keys()))):
        return None
    field, deeper = inner + "  ", inner + "    "
    keys = sorted(first)
    slots, columns = [], []
    for key in keys:
        column = list(map(operator.itemgetter(key), items))
        kinds = set(map(type, column))
        if kinds == {str}:
            slots.append("%s")
            columns.append(zip(map(_quote, column)))
        elif kinds == {list} and len(set(map(len, column))) == 1 \
                and set(map(type, itertools.chain.from_iterable(column))) <= {int}:
            width = len(column[0])
            slots.append("[" + deeper + ("," + deeper).join(["%s"] * width) + field + "]"
                         if width else "[]")
            columns.append(column)
        else:
            return None
    one = "{" + field + ("," + field).join(
        _quote(key).replace("%", "%%") + ": " + slot for key, slot in zip(keys, slots)
    ) + inner + "}"
    flat = tuple(itertools.chain.from_iterable(map(itertools.chain, *columns)))
    return ("," + inner).join([one] * len(items)) % flat


def _write(value, indent: str, out: list) -> None:
    """Append json.dumps(value, sort_keys=True, indent=2), nested at ``indent``, to out."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:      # no bools: they would read as 1 and 0
            body = ("," + inner).join(map(int.__repr__, value))
        else:
            body = _records(value, inner)
        if body is not None:
            out.append("[" + inner + body + indent + "]")
            return
        out.append("[")
        for i, item in enumerate(value):
            out.append("," + inner if i else inner)
            _write(item, inner, out)
        out.append(indent + "]")
    elif isinstance(value, dict) and value:
        out.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(("," if i else "") + inner + _quote(key) + ": ")
            _write(item, inner, out)
        out.append(indent + "}")
    else:                               # a leaf or an empty container: the C encoder
        out.append(json.dumps(value))


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), from C-level pieces.

    CPython's C encoder serves only ``indent=None``.  Here it encodes the
    leaves, a run of ints is one join and a list of term records one %
    template; only containers are walked in Python.  A key that is not a str
    raises TypeError (from sorting or from ``encode_basestring_ascii``), as
    does a value of any type outside dict, list, tuple, str, int, bool, None
    and float.
    """
    out: list = []
    _write(value, "\n", out)
    return "".join(out)


def emit(artifact: dict, out: str | None) -> None:
    """Write the bytes of json.dumps(artifact, sort_keys=True, indent=2) and a newline."""
    text = _dumps(artifact) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, artifact = COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"kz: error: {exc}\n")
    emit(artifact, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
