"""Unified command-line entry point: reproducible runs with JSON artifacts.

Subcommands: gen | verify | cartier | asympt | converge.  Every artifact is
UTF-8 JSON tagged with schema "kz-padic/1"; all randomness is seeded, so a
given configuration reproduces its artifact byte for byte.  Exit status 0
means every embedded check passed, 1 a check failure (the artifact still
carries the report), 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .asymptotic import (
    constant_vector,
    factorization_report,
    limit_series,
    prefactor_truncated,
    q_consistency_report,
    truncated_expansion,
)
from .cartier import cartier_matrix, verify_grading_relation, verify_iterated_product
from .convergence import (
    classic_partial_sums,
    converge_Q_general,
    converge_T_n3,
    disjoint_domain_probe,
)
from .kz import KZInstance, verify_solution
from .solutions import extract_solution
from .sparsepoly import ModulusContext, vector_from_json

SCHEMA = "kz-padic/1"


def load_config(path: str) -> dict:
    """Parse simple key=value lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file; explicit flags win."""
    if not getattr(args, "config", None):
        return
    conf = load_config(args.config)
    for key, value in conf.items():
        if getattr(args, key, None) is None:
            if value.lower() in ("true", "false"):
                setattr(args, key, value.lower() == "true")
            else:
                try:
                    setattr(args, key, int(value))
                except ValueError:
                    setattr(args, key, value)


def _parse_mvec(text: str | None):
    if text is None:
        return None
    return tuple(int(x) for x in text.split(","))


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required")


def _instance(args) -> KZInstance:
    _require(args, "p", "s", "n", "l")
    return KZInstance(args.n, ModulusContext(args.p, args.s))


def _extract(args):
    """The instance and the solution record named by --p --s --n --l [--r --mvec]."""
    inst = _instance(args)
    record = extract_solution(inst, _parse_mvec(args.mvec), args.l, args.r)
    if record.vector.is_zero():         # it would pass every check vacuously
        raise ValueError(f"--l {args.l} gives the zero vector at level {record.r} "
                         f"(with the default exponents l runs over 1..{inst.g})")
    return inst, record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kz",
        description="Exact solutions of the reduced KZ system mod p**s and their p-adic limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value file supplying defaults")
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


def cmd_verify(args):
    """Verify at the level r of the solution: an index l*p**r - 1 solves mod p**r."""
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            params = {k: data[k] for k in ("p", "s", "n", "l", "r")}
            inst = KZInstance(data["n"], ModulusContext(data["p"], data["s"]))
            vector = vector_from_json(data["vector"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{args.infile}: not a solution artifact ({exc!r})") from exc
    else:
        inst, record = _extract(args)
        vector = record.vector
        params = {"p": args.p, "s": args.s, "n": args.n, "l": args.l,
                  "r": record.r}
    check = verify_solution(vector, inst.level(params["r"]))
    artifact = {"schema": SCHEMA, "kind": "verify", "params": params,
                **check.to_json()}
    return (0 if check.passed else 1), artifact


def cmd_cartier(args):
    _require(args, "p", "n")
    C = cartier_matrix(args.p, args.n)
    ok = C.degrees_ok()
    artifact = {"schema": SCHEMA, "kind": "cartier", "matrix": C.to_json(),
                "degrees_ok": ok}
    if args.verify:
        t = args.t if args.t else 2
        inst = KZInstance(args.n, ModulusContext(args.p, t))
        grading = verify_grading_relation(inst, t)
        artifact["grading"] = grading.to_json()
        ok = ok and grading.passed
        if t >= 3:
            iterated = verify_iterated_product(inst, t, t - 1)
            artifact["iterated_ok"] = iterated.passed
            ok = ok and iterated.passed
    return (0 if ok else 1), artifact


def cmd_asympt(args):
    inst = _instance(args)
    pre = prefactor_truncated(inst, args.l)
    fact = factorization_report(inst, args.l)
    consistent = q_consistency_report(inst, args.l)
    trunc = truncated_expansion(inst, args.l)
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
        cutoff = args.cutoff if args.cutoff is not None else inst.ctx.half
        prec = args.prec if args.prec is not None else args.s + 8
        artifact["series"] = limit_series(args.p, args.n, args.l, cutoff, prec).to_json()
    ok = fact.passed and consistent
    return (0 if ok else 1), artifact


def cmd_converge(args):
    if args.classic:
        p = args.p if args.p else 5
        smax = args.smax if args.smax else 3
        report = classic_partial_sums(p, range(1, smax + 1))
        artifact = {"schema": SCHEMA, "kind": "classic", **report.to_json()}
        return (0 if report.passed else 1), artifact

    _require(args, "p", "n", "l", "smax")
    samples = args.samples if args.samples is not None else 50
    seed = args.seed if args.seed is not None else 0
    prec = args.prec if args.prec is not None else args.smax + 8
    if args.n == 3:
        report = converge_T_n3(args.p, args.smax, samples, seed, prec)
    else:
        report = converge_Q_general(args.p, args.n, args.l, args.smax,
                                    samples, seed, prec)
    artifact = {"schema": SCHEMA, "kind": "converge", **report.to_json()}
    ok = report.passed
    if args.n == 5:
        probe = disjoint_domain_probe(args.p, 10_000, seed)
        artifact["disjoint_domains"] = {
            "points": probe.points, "in_first": probe.in_first,
            "in_second": probe.in_second, "in_both": probe.in_both,
            "reason": probe.reason, "pass": probe.passed,
        }
        ok = ok and probe.passed
    return (0 if ok else 1), artifact


COMMANDS = {
    "gen": cmd_gen,
    "verify": cmd_verify,
    "cartier": cmd_cartier,
    "asympt": cmd_asympt,
    "converge": cmd_converge,
}


def dispatch(args) -> tuple:
    apply_config(args)
    return COMMANDS[args.command](args)


def emit(artifact: dict, out: str | None) -> None:
    text = json.dumps(artifact, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, artifact = dispatch(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"kz: error: {exc}\n")
    emit(artifact, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
