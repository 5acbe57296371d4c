"""The three workloads: inputs built from a seed, one timed pass, and the output checks.

Each workload is built once per process (its set-up), then ``run_pass`` is
called as often as the run length allows.  A pass returns one
``(operation, ok)`` pair per operation, where ``ok`` says whether the
program gave the verdict the method requires.  ``check`` then compares the
outputs of the last pass's operations that did not fail with the
independent computations of ``checks``.

Calls go through module attributes (``cli.main``, ``solutions.extract_solution``)
so that a traced run sees them.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from pathlib import Path

from kz_padic import asymptotic, cartier, cli, kz, solutions, sparsepoly

import checks

# The acceptance grid: (p, s, n), every l = 1..g.
GRID = [(5, 1, 3), (5, 2, 3), (5, 3, 3), (7, 1, 3), (7, 2, 3),
        (5, 1, 5), (5, 2, 5), (7, 1, 5)]
SOLUTIONS = [(p, s, n, l) for p, s, n in GRID for l in range(1, (n - 1) // 2 + 1)]


def _key(p, s, n, l, r=None) -> str:
    return f"{p}-{s}-{n}-l{l}" + (f"-r{r}" if r is not None else "")


def _kz(argv) -> int:
    """Run the ``kz`` command line in-process and return its exit code."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:           # argparse usage errors exit 2
        return exc.code if isinstance(exc.code, int) else 2


def _params(p, s, n, l, r=None) -> list:
    out = ["--p", p, "--s", s, "--n", n, "--l", l]
    return out + (["--r", r] if r is not None else [])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.artifact_bytes = 0         # bytes of artifacts written by the last pass
        self.last_ops: dict = {}        # operation -> ok, for the last pass
        workdir.mkdir(parents=True, exist_ok=True)

    def _op(self, name: str, fn) -> bool:
        """Run one operation; an exception counts it as failed, with its traceback."""
        if self.tracer is not None:
            self.tracer.op = name
        try:
            ok = bool(fn())
        except Exception:               # the pass goes on; the operation failed
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.last_ops[name] = ok
        return ok

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}")


class GridVerify(Workload):
    """``kz gen --out`` then ``kz verify --in`` for ten grid solutions, plus rejects."""

    name = "grid-verify"
    # Every grid solution but (5,2,5,l=1): its verification alone takes 26-35 s,
    # so a run would time one pass and the host's drift would decide run_s.
    VERIFIED = [sol for sol in SOLUTIONS if sol != (5, 2, 5, 1)]
    CORRUPT_FROM = [(5, 2, 3, 1), (7, 1, 5, 1)]
    LEVEL_R = (5, 2, 3, 1, 1)           # (p, s, n, l, r): kz gen --r 1
    SAMPLES = 100                       # closed-formula monomials per artifact, twice
    POINTS = 2                          # residual points per artifact

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        rng = self.rng("corrupt")
        self.corrupted = []             # (artifact dict, path)
        for p, s, n, l in self.CORRUPT_FROM:
            source = workdir / f"source-{_key(p, s, n, l)}.json"
            if _kz(["gen", *_params(p, s, n, l), "--out", source]) != 0:
                raise RuntimeError(f"kz gen failed while building inputs for {_key(p, s, n, l)}")
            artifact = checks.corrupt(json.loads(source.read_text()), rng)
            path = workdir / f"corrupt-{_key(p, s, n, l)}.json"
            path.write_text(json.dumps(artifact))
            self.corrupted.append((artifact, path))

    def _paths(self, key):
        return self.workdir / f"sol-{key}.json", self.workdir / f"ver-{key}.json"

    def _round_trip(self, p, s, n, l, r=None) -> bool:
        key = _key(p, s, n, l, r)
        art, rep = self._paths(key)
        if self.tracer is not None:
            self.tracer.op = f"gen {key}"
        if _kz(["gen", *_params(p, s, n, l, r), "--out", art]) != 0:
            return False
        self.artifact_bytes += art.stat().st_size
        if self.tracer is not None:
            self.tracer.op = f"verify {key}"
        return _kz(["verify", "--in", art, "--out", rep]) == 0

    def round_trips(self) -> list:
        # The level-r artifact is valid mod p**r, so the method requires exit 0;
        # the verifier checks it mod p**s instead, a known fault.
        return [(p, s, n, l, None) for p, s, n, l in self.VERIFIED] + [self.LEVEL_R]

    def run_pass(self) -> dict:
        self.artifact_bytes = 0
        for params in self.round_trips():
            self._op(f"round-trip {_key(*params)}", lambda: self._round_trip(*params))
        for _, path in self.corrupted:
            report = path.with_name("ver-" + path.name)
            self._op(f"reject {path.stem}",
                     lambda: _kz(["verify", "--in", path, "--out", report]) == 1)
        return dict(self.last_ops)

    def check(self) -> list:
        rng = self.rng("check")
        problems = []
        for params in self.round_trips():
            key = _key(*params)
            if not self.last_ops[f"round-trip {key}"]:
                continue
            art, rep = self._paths(key)
            problems += checks.check_solution(json.loads(art.read_text()), rng,
                                              self.SAMPLES, self.POINTS)
            problems += [f"{key}: {msg}" for msg in
                         checks.check_verified(json.loads(rep.read_text()), params[2])]
        for artifact, path in self.corrupted:
            if not self.last_ops[f"reject {path.stem}"]:
                continue
            report = json.loads(path.with_name("ver-" + path.name).read_text())
            problems += checks.check_rejected(artifact, report, rng)
        return problems


class GridOracle(Workload):
    """Fast extraction against the closed formula and the full-expansion oracle."""

    name = "grid-oracle"
    GRADING = [(5, 3, 2), (5, 3, 3), (7, 3, 2), (5, 5, 2)]     # (p, n, t)
    ITERATED = (5, 3, 3)                                       # (p, n, t), m = t - 1
    CARTIER = [(5, 3), (7, 3), (5, 5)]                         # (p, n)
    SAMPLES = 50
    POINTS = 3

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.fast: dict = {}            # operation -> (p, s, n, l, vector, leading_term_vector)
        self.matrices: dict = {}        # operation -> (p, n, CartierMatrix)

    def _solution(self, p, s, n, l) -> bool:
        inst = kz.KZInstance(n, sparsepoly.ModulusContext(p, s))
        fast = solutions.extract_solution(inst, None, l).vector
        formula = solutions.solution_from_formula(inst, l)
        oracle_ok = all(
            solutions.master_component(inst, None, j).slice_power("x", l * p ** s - 1)
            == fast[j - 1]
            for j in range(1, n + 1))
        lead = solutions.leading_term_vector(inst, l)
        factored = asymptotic.factorization_report(inst, l)
        self.fast[f"oracle {_key(p, s, n, l)}"] = (p, s, n, l, fast, lead)
        return (formula == fast and oracle_ok and lead == solutions.leading_vector_of(fast)
                and factored.passed)

    def _matrix(self, p, n) -> bool:
        matrix = cartier.cartier_matrix(p, n)
        self.matrices[f"cartier p={p} n={n}"] = (p, n, matrix)
        return matrix.degrees_ok()

    def run_pass(self) -> dict:
        for p, s, n, l in SOLUTIONS:
            self._op(f"oracle {_key(p, s, n, l)}", lambda: self._solution(p, s, n, l))
        for p, n, t in self.GRADING:
            self._op(f"grading p={p} n={n} t={t}", lambda: cartier.verify_grading_relation(
                kz.KZInstance(n, sparsepoly.ModulusContext(p, t)), t).passed)
        p, n, t = self.ITERATED
        self._op(f"iterated p={p} n={n} t={t}", lambda: cartier.verify_iterated_product(
            kz.KZInstance(n, sparsepoly.ModulusContext(p, t)), t, t - 1).reformulation_ok is True)
        for p, n in self.CARTIER:
            self._op(f"cartier p={p} n={n}", lambda: self._matrix(p, n))
        return dict(self.last_ops)

    def check(self) -> list:
        rng = self.rng("check")
        problems = []
        for op, (p, s, n, l, fast, lead) in self.fast.items():
            if not self.last_ops[op]:
                continue
            entries = [dict(entry.terms) for entry in fast.entries]
            want = checks.leading_term(p, s, n, l)
            if lead != want or checks.lex_leading(entries) != want:
                problems.append(f"{_key(p, s, n, l)}: leading term {lead} / "
                                f"{checks.lex_leading(entries)}, closed form {want}")
            problems += checks.check_vector((p, s, n, l, s), entries, rng, self.SAMPLES, 0)
        for op, (p, n, matrix) in self.matrices.items():
            if not self.last_ops[op]:
                continue
            entries = [[dict(c.terms) for c in row] for row in matrix.entries]
            problems += checks.check_cartier(p, n, entries, rng, self.POINTS)
        return problems


class PadicConverge(Workload):
    """``kz converge`` with 50 samples at the benchmark's seed, five parameter sets."""

    name = "padic-converge"
    CONFIGS = [(5, 3, 1, 4, 12), (5, 5, 1, 2, 10), (5, 5, 2, 2, 10),
               (7, 3, 1, 3, 11), (7, 5, 1, 2, 10)]                 # (p, n, l, smax, prec)
    SAMPLES = 50

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.runs = {}                  # operation -> (p, n, l, smax, argv, report path)
        for p, n, l, smax, prec in self.CONFIGS:
            out = workdir / f"converge-{p}-{n}-l{l}.json"
            argv = ["converge", "--p", p, "--n", n, "--l", l, "--smax", smax, "--prec", prec,
                    "--samples", self.SAMPLES, "--seed", seed, "--out", out]
            self.runs[f"converge p={p} n={n} l={l} smax={smax}"] = (p, n, l, smax, argv, out)

    def run_pass(self) -> dict:
        for op, (p, n, l, smax, argv, out) in self.runs.items():
            self._op(op, lambda: _kz(argv) == 0)
        return dict(self.last_ops)

    def check(self) -> list:
        problems = []
        for op, (p, n, l, smax, argv, out) in self.runs.items():
            if self.last_ops[op]:
                problems += checks.check_converge(json.loads(out.read_text()), p, n, l, smax)
        return problems


WORKLOADS = {w.name: w for w in (GridVerify, GridOracle, PadicConverge)}
