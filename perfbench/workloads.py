"""Seeded inputs and known answers for the four benchmark workloads.

build(name, seed, tmp) returns the workload's fixed corpus: a list of
Op, each a call into schmidtkit plus an oracle that checks its result.
The corpus depends only on the seed.  Every call goes through the
package or module attribute at call time, so a traced run sees the
wrapped functions.  Oracles use numpy and the benchmark's own helpers,
not the toolkit, except for the dataclasses that carry results.  An
oracle works out its expected answer when it first checks a result
(functools.cache), not while the inputs are built, so that setup_s
covers only the import and input construction.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io as stdio
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import isqrt, prod
from pathlib import Path
from typing import Any, Callable

import numpy as np

import schmidtkit as sk
from schmidtkit import cli, tolerances
from schmidtkit.linalg import haar_unitary

HERE = Path(__file__).resolve().parent
FALSE_REJECT = "false reject"
RT2 = 1.0 / np.sqrt(2.0)
W_SS = np.array([[1.0, 1.0], [1.0, 2.0]]) / 3.0

SMALL_DIMS = [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 4, 4),
              (2, 2, 2, 2), (2, 3, 3, 2), (3, 3, 3, 3), (4, 4, 4, 4)]
# Calls under a second are made three times in a row, so that a 20 s
# run holds enough of them for a steady median and tail.  The median
# call is then a (16,16,16) one and the p90 call a decomposable (2,)x8
# one, each well inside its shape's block of latencies.
LARGE_RANKS = [((8, 8, 8), (8, 7, 6, 4, 3, 2, 1)), ((16, 16, 16), (16, 8, 4, 2, 1)),
               ((2,) * 8, (2, 2, 2, 1, 1, 1)), ((32, 32, 32), (32,)), ((2,) * 10, (2,))]
LARGE_REPEAT = 3
PARTITION_NS = (12, 16, 20, 24, 28, 30)
STAGES = ("accept", "SpectraUnequal", "SlicesNotSimultaneouslyDiagonalizable",
          "SNotScaledUnitary", "TailNotProduct")
CLI_VERBS = ("gen", "check", "decompose", "number", "spectra", "partition",
             "purify", "link", "compose")


@dataclass
class Op:
    """One timed call, made repeat times in a row per pass.

    check(result) returns None or a failure reason.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    hard: bool = False
    repeat: int = 1


# ---------------------------------------------------------------- helpers

def rebuild(coeffs, families) -> np.ndarray:
    """sum_l c_l v_l1 x ... x v_ln, flattened row-major."""
    total = 0
    for l, c in enumerate(coeffs):
        term = np.asarray(families[0][l])
        for fam in families[1:]:
            term = np.multiply.outer(term, fam[l]).reshape(-1)
        total = total + c * term
    return np.asarray(total)


def flat_state(coeffs, families, dims) -> sk.StateTensor:
    amps = rebuild(coeffs, families)
    return sk.StateTensor(dims, amps / np.linalg.norm(amps))


def nondegenerate(dims, rank, seed) -> sk.SchmidtDecomposition:
    # as in the acceptance tests: redraw until adjacent coefficients
    # are more than 1e-3 apart
    while True:
        dec = sk.random_decomposition(dims, rank, seed)
        c = dec.coefficients
        if rank == 1 or float(np.min(c[:-1] - c[1:])) > 1e-3:
            return dec
        seed += 1000003


def local_apply(amps, dims, unitaries) -> np.ndarray:
    t = np.asarray(amps).reshape(dims)
    for k, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return t.reshape(-1)


def cut_matrix(amps, dims, left) -> np.ndarray:
    left = [i - 1 for i in left]
    right = [i for i in range(len(dims)) if i not in left]
    t = np.transpose(np.asarray(amps).reshape(dims), left + right)
    return t.reshape(prod(dims[i] for i in left), -1)


def numeric_rank(m) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tolerances.RANK_TOL * s[0]))


def partition_k(dims) -> int:
    """Best min-side product, from the set of reachable products <= sqrt."""
    total = prod(dims)
    root = isqrt(total)
    reach = {1}
    for d in dims:
        reach |= {p * d for p in reach if p * d <= root}
    return max(p for p in reach if p > 1)


def subset_sum(values, target) -> bool:
    mask = 1
    for v in values:
        mask |= mask << v
    return bool((mask >> target) & 1)


def families(dims, rank, rng) -> tuple[np.ndarray, ...]:
    """Random orthonormal families, for coefficients chosen by the caller."""
    return sk.random_decomposition(dims, rank, int(rng.integers(2**31))).vectors


def product_coefficients(a, b) -> np.ndarray:
    """Coefficients compose(a, b, ...) must give: all products, descending."""
    want = np.sort(np.outer(a.coefficients, b.coefficients).reshape(-1))[::-1]
    return want / np.linalg.norm(want)


def rebuild_error(coeffs, families, amps) -> float:
    return float(np.abs(rebuild(coeffs, families) - np.asarray(amps).reshape(-1)).max())


def coefficient_error(got, want) -> str | None:
    if got.size != want.size or np.abs(got - want).max() > 1e-12:
        return f"coefficients {got.tolist()}"
    return None


def unitarity_error(u) -> float:
    """||U U^+ - I|| (Frobenius)."""
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))


# ------------------------------------------------------------ decide_*

def _accepts(state, rank=None, coeffs=None, hard=False):
    def check(report):
        if not report.decomposable:
            return FALSE_REJECT if hard else f"rejected at {report.stage}"
        dec = report.decomposition
        err = rebuild_error(dec.coefficients, dec.vectors, state.amplitudes)
        if err > tolerances.RECONSTRUCT_TOL:
            return f"rebuild error {err:.3e}"
        got = dec.coefficients
        if rank is not None and got.size != rank:
            return f"rank {got.size}, expected {rank}"
        if coeffs is not None:
            return coefficient_error(got, np.asarray(coeffs))
        return None
    return check


def _rejects(stage=None, ss=None):
    def check(report):
        if report.decomposable:
            return "accepted a state that is not decomposable"
        if stage is not None and report.stage != stage:
            return f"rejected at {report.stage}, expected {stage}"
        if ss is not None and np.abs(report.witness["ss_dagger"] - ss).max() > 1e-12:
            return "SS+ witness differs from (1/3)[[1,1],[1,2]]"
        return None
    return check


def _check_op(name, state, check, hard=False) -> Op:
    return Op(name, "check_decomposable",
              lambda: sk.check_decomposable(state), check, hard)


def _decide_small(seed) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    states = []
    for dims in SMALL_DIMS:
        # fixed ranks, so that every seed asks for the same amount of work
        for j, rank in enumerate((min(dims), (min(dims) + 1) // 2, 1)):
            dec = nondegenerate(dims, rank, int(rng.integers(2**31)))
            st = flat_state(dec.coefficients, dec.vectors, dims)
            states.append((dims, rank, st))
            ops.append(_check_op(f"decomposable{dims}r{rank}#{j}", st,
                                 _accepts(st, rank)))
        haar = sk.haar_random_state(dims, int(rng.integers(2**31)))
        ops.append(_check_op(f"haar{dims}", haar, _rejects()))
    ops.append(_check_op("W", sk.w_state(),
                         _rejects("SNotScaledUnitary", W_SS)))
    for n in (3, 4):
        ops.append(_check_op(f"GHZ{n}", sk.ghz(n),
                             _accepts(sk.ghz(n), coeffs=[RT2, RT2])))

    # hard decomposable set: exact ties and a 1e-9 coefficient
    for dims, rank in (((3, 3, 3), 3), ((2, 2, 2, 2), 2), ((4, 4, 4), 4),
                       ((3, 3, 3), 2)):
        st = flat_state(np.ones(rank), families(dims, rank, rng), dims)
        ops.append(_check_op(f"tie{dims}r{rank}", st, _accepts(st, hard=True),
                             hard=True))
    for n in (3, 4):
        ghz = sk.ghz(n)
        amps = local_apply(ghz.amplitudes, ghz.dims,
                           [haar_unitary(2, rng) for _ in range(n)])
        st = sk.StateTensor(ghz.dims, amps / np.linalg.norm(amps))
        ops.append(_check_op(f"rotatedGHZ{n}", st, _accepts(st, hard=True),
                             hard=True))
    for j in range(6):
        top = np.sort(rng.uniform(0.2, 1.0, 2))[::-1]
        coeffs = np.array([top[0], top[1], 1e-9])
        st = flat_state(coeffs, families((3, 3, 3), 3, rng), (3, 3, 3))
        ops.append(_check_op(f"tiny(3,3,3)#{j}", st, _accepts(st, hard=True),
                             hard=True))

    # the rest of the toolbox on the same small inputs
    for dims, rank, st in states[::3]:
        us = [haar_unitary(d, rng) for d in dims]
        target = sk.StateTensor(dims, local_apply(st.amplitudes, dims, us))
        ops.append(Op(f"link{dims}r{rank}", "local_unitary_link",
                      lambda t=target, s=st: sk.local_unitary_link(t, s),
                      _link_check(target, st)))
        left = (1,)
        ops.append(Op(f"bipartite{dims}r{rank}", "schmidt_decompose_bipartite",
                      lambda s=st, n=len(dims): sk.schmidt_decompose_bipartite(
                          s, sk.Bipartition.from_left(left, n)),
                      _bipartite_check(st, left)))
    for source, verdict in ((sk.ghz(3), True), (sk.w_state(), False),
                            (states[3][2], True)):
        rho = sk.reduced_density(source, (1, 2))
        ops.append(Op(f"purification_class:{source.label or source.dims}",
                      "purification_class",
                      lambda r=rho: sk.purification_class(r),
                      _verdict_check(verdict)))
    for i in range(4):
        dims = SMALL_DIMS[i]
        phi = states[3 * i][2]
        gamma = sk.haar_random_state(dims, int(rng.integers(2**31)))
        alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        cut = sk.Bipartition.from_left((1,), len(dims))
        ops.append(Op(f"rank_inequality{dims}", "rank_inequality_check",
                      lambda p=phi, g=gamma, a=alpha, b=beta, c=cut:
                      sk.rank_inequality_check(p, g, a, b, c),
                      _inequality_check(phi, gamma, alpha, beta)))
    for da, db, sizes in (((2, 2, 3), (2, 2), (2, 1)),
                          ((2, 3, 2), (3, 2, 2), (1, 1, 1)),
                          ((2, 2, 2, 2), (2, 3), (3, 1))):
        a = sk.random_decomposition(da, int(rng.integers(1, min(da) + 1)),
                                    int(rng.integers(2**31)))
        b = sk.random_decomposition(db, int(rng.integers(1, min(db) + 1)),
                                    int(rng.integers(2**31)))
        g = sk.Grouping(sizes)
        ops.append(Op(f"compose{da}x{db}", "compose",
                      lambda a=a, b=b, g=g: sk.compose(a, b, g),
                      _compose_check(a, b)))
    return ops


def _link_check(target, source):
    def check(unitaries):
        off = max(unitarity_error(u) for u in unitaries)
        if off > 1e-8:
            return f"link unitary off by {off:.3e}"
        mapped = local_apply(source.amplitudes, source.dims, unitaries)
        err = float(np.abs(mapped - target.amplitudes).max())
        return None if err <= 1e-8 else f"link residual {err:.3e}"
    return check


def _bipartite_check(state, left):
    @functools.cache
    def want():
        m = cut_matrix(state.amplitudes, state.dims, left)
        sing = np.linalg.svd(m, compute_uv=False)
        sing = sing[sing > tolerances.RANK_TOL * sing[0]]
        return m, sing / np.linalg.norm(sing)

    def check(bi):
        m, sing = want()
        got = bi.coefficients
        if got.size != sing.size or np.abs(got - sing).max() > 1e-10:
            return f"coefficients {got.tolist()} differ from the SVD"
        dec = bi.decomposition
        err = rebuild_error(dec.coefficients, dec.vectors, m)
        return None if err <= 1e-10 else f"rebuild error {err:.3e}"
    return check


def _verdict_check(decomposable):
    def check(report):
        if report.decomposable != decomposable:
            return f"verdict {report.verdict}, expected decomposable={decomposable}"
        return None
    return check


def _inequality_check(phi, gamma, alpha, beta):
    @functools.cache
    def want():
        psi = alpha * phi.amplitudes + beta * gamma.amplitudes
        return [numeric_rank(cut_matrix(a, phi.dims, (1,)))
                for a in (phi.amplitudes, gamma.amplitudes, psi)]

    def check(report):
        got = [report.rank_phi, report.rank_gamma, report.rank_psi]
        if not (report.applicable and report.holds):
            return "inequality reported as not holding"
        return None if got == want() else f"ranks {got}, expected {want()}"
    return check


def _compose_check(a, b, coefficients=lambda merged: merged.coefficients):
    """Checks compose(a, b, ...); coefficients(result) reads the result's."""
    want = functools.cache(lambda: product_coefficients(a, b))
    return lambda result, *_: coefficient_error(coefficients(result), want())


def _decide_large(seed) -> list[Op]:
    rng = np.random.default_rng(seed)
    groups = []
    for dims, ranks in LARGE_RANKS:
        group = []
        for j, rank in enumerate(ranks):
            dec = nondegenerate(dims, rank, int(rng.integers(2**31)))
            st = flat_state(dec.coefficients, dec.vectors, dims)
            group.append(_check_op(f"decomposable{dims}r{rank}#{j}", st,
                                   _accepts(st, rank)))
        haar = sk.haar_random_state(dims, int(rng.integers(2**31)))
        group.append(_check_op(f"haar{dims}", haar, _rejects()))
        groups.append(group)
    groups[2].append(_check_op("GHZ8", sk.ghz(8),
                               _accepts(sk.ghz(8), coeffs=[RT2, RT2])))
    # Samples of one shape taken seconds apart average out the host's
    # slow and fast spells: the shapes take turns, and the four calls
    # of a second or more split the pass into four even stretches.
    cheap = [op for ops in itertools.zip_longest(*groups[:3]) for op in ops if op]
    for op in cheap:
        op.repeat = LARGE_REPEAT
    slow = [op for ops in zip(*groups[3:]) for op in ops]
    stretch = -(-len(cheap) // len(slow))
    return [op for i, big in enumerate(slow)
            for op in cheap[i * stretch:(i + 1) * stretch] + [big]]


# ------------------------------------------------------- partition_exact

def _partition_exact(seed) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in PARTITION_NS:
        # a second mixed list at n <= 16 puts the median latency inside the
        # n = 16 calls instead of on the edge between two bands
        lists = {"qubit": (2,) * n}
        for j in range(2 if n <= 16 else 1):
            lists[f"mixed{'ab'[j]}"] = tuple(int(d) for d in rng.integers(2, 10, size=n))
        for label, dims in lists.items():
            # the max_schmidt_number check of the same list comes first in
            # the pass, so k is worked out before decide is timed with it
            k = functools.cache(lambda d=dims, q=label == "qubit":
                                2 ** (len(d) // 2) if q else partition_k(d))
            tag = f"{label}{n}"
            ops.append(Op(f"max_schmidt_number:{tag}", "max_schmidt_number",
                          lambda d=dims: sk.max_schmidt_number(d),
                          _k_check(k)))
            ops.append(Op(f"decide_k:{tag}", "decide",
                          lambda d=dims, k=k: sk.decide(d, k()), _k_check(k)))
            ops.append(Op(f"decide_k+1:{tag}", "decide",
                          lambda d=dims, k=k: sk.decide(d, k() + 1),
                          lambda sol: None if sol is None else "feasible at k+1"))
        values = tuple(int(v) for v in rng.integers(1, 9, size=n - 2))
        target = int(rng.integers(1, 2 * sum(values) + 1))
        ops.append(Op(f"subset_sum:{n}", "subset_sum",
                      lambda v=values, t=target: _padded_verdict(v, t),
                      _subset_check(functools.cache(
                          lambda v=values, t=target: subset_sum(v, t)))))
    return ops


def _padded_verdict(values, target) -> bool:
    red = sk.subset_sum_to_partition(values, target)
    return sk.decide(red.padded.dims, red.padded.target) is not None


def _k_check(k):
    def check(sol):
        if sol is None:
            return f"infeasible at k={k()}"
        return None if sol.k == k() else f"k={sol.k}, expected {k()}"
    return check


def _subset_check(want):
    return lambda got: None if got == want() else f"verdict {got}, DP says {want()}"


# ------------------------------------------------------------ cli_files

GOLDEN = HERE / "golden_cli.json"
FIXTURE_FILES = ("w.json", "ghz4.json")
CUTS = {"w.json": "1|2,3", "ghz4.json": "1,2|3,4",
        "dec.json": "1|2,3", "haar.json": "1,2|3"}
# exit codes of (check, decompose, spectra --equal) per file
VERDICT_CODES = {"w.json": (1, 1, 0), "ghz4.json": (0, 0, 0),
                 "dec.json": (0, 0, 0), "haar.json": (1, 1, 1)}


def canonical_digest(text: str) -> str:
    """sha256 of the JSON document with floats rounded to 1e-9."""
    def fix(v):
        if isinstance(v, float):
            return round(v, 9) + 0.0
        if isinstance(v, list):
            return [fix(x) for x in v]
        if isinstance(v, dict):
            return {k: fix(x) for k, x in v.items()}
        return v
    doc = fix(json.loads(text))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class CliResult:
    code: int
    stdout: str
    maxrss_kb: int = 0
    written: int = 0


def run_cli(args, tmp, src) -> CliResult:
    """One `python -m schmidtkit.cli` child, waited for with its rusage."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(
            [sys.executable, "-m", "schmidtkit.cli", *args], cwd=tmp, env=env,
            stdout=subprocess.PIPE, stderr=devnull)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode(), usage.ru_maxrss)


def run_cli_inprocess(args, tmp) -> CliResult:
    """The same verb through cli.main in this process, stdout captured."""
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(stdio.StringIO()):
        code = cli.main([a if not a.endswith(".json") else str(Path(tmp) / a)
                         for a in args])
    text = buf.getvalue()
    written = len(text.encode())
    if "--out" in args:
        written += (Path(tmp) / args[args.index("--out") + 1]).stat().st_size
    return CliResult(code, text, written=written)


def write_cli_inputs(seed, tmp: Path) -> dict:
    """Write the density, purification and decomposition files."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    ent = m @ m.conj().T
    rho = sk.DensityMatrix((2, 3), ent / np.trace(ent).real)
    sk.save_density(tmp / "rho.json", rho)
    pur = sk.purify(rho)
    d = pur.reference_dim
    v = haar_unitary(d, rng)
    alt = sk.StateTensor(pur.state.dims,
                         (pur.state.amplitudes.reshape(-1, d) @ v.T).reshape(-1))
    sk.save_state(tmp / "pur_a.json", pur.state)
    sk.save_state(tmp / "pur_b.json", alt)
    left = sk.random_decomposition((2, 2, 3), 2, int(rng.integers(2**31)))
    right = sk.random_decomposition((2, 2), 2, int(rng.integers(2**31)))
    sk.save_decomposition(tmp / "left.json", left)
    sk.save_decomposition(tmp / "right.json", right)
    mixed = tuple(int(d) for d in rng.integers(2, 10, size=14))
    return {"rho": rho, "left": left, "right": right, "mixed": mixed}


def cli_commands(seed, inputs) -> list[tuple[str, list[str], Callable]]:
    """(label, argv, check(result, tmp)) for one pass, writes before reads."""
    cmds = [
        ("gen w", ["gen", "--fixture", "w", "--out", "w.json"], _file_check),
        ("gen ghz4", ["gen", "--fixture", "ghz4", "--out", "ghz4.json"], _file_check),
        ("gen dec", ["gen", "--dims", "3,3,3", "--rank", "3", "--seed", str(seed),
                     "--out", "dec.json"], _file_check),
        ("gen haar", ["gen", "--dims", "4,4,4", "--seed", str(seed),
                      "--out", "haar.json"], _file_check),
    ]
    for f, cut in CUTS.items():
        check_code, dec_code, equal_code = VERDICT_CODES[f]
        cmds += [
            (f"check {f}", ["check", f], _code(check_code, _check_doc(f))),
            (f"decompose {f}", ["decompose", f], _code(dec_code, _check_doc(f))),
            (f"decompose --cut {f}", ["decompose", f, "--cut", cut],
             _code(0, _cut_doc(f, cut))),
            (f"number {f}", ["number", f, "--cut", cut], _code(0, _number_doc(f, cut))),
            (f"spectra {f}", ["spectra", f], _code(0, _spectrum_doc(f))),
            (f"spectra --equal {f}", ["spectra", f, "--equal"], _code(equal_code)),
        ]
    mixed = inputs["mixed"]
    k = partition_k(mixed)
    cmds += [
        ("partition qubits16", ["partition", "--dims", ",".join(["2"] * 16)],
         _code(0, lambda doc, tmp: None if doc["k"] == 256 else f"k={doc['k']}")),
        ("partition mixed14", ["partition", "--dims", ",".join(map(str, mixed)),
                               "--target", str(k)],
         _code(0, lambda doc, tmp: None if doc["k"] == k else f"k={doc['k']}")),
        ("purify", ["purify", "rho.json"], _code(0, _purify_doc(inputs["rho"]))),
        ("link", ["link", "pur_a.json", "pur_b.json"], _code(0, _link_doc)),
        ("compose", ["compose", "left.json", "right.json", "--grouping", "2,1"],
         _code(0, _compose_check(inputs["left"], inputs["right"],
                                 lambda doc: np.array(doc["coefficients"])))),
    ]
    return cmds


def _file_check(result, tmp, args):
    if result.code != 0:
        return f"exit code {result.code}"
    written = (Path(tmp) / args[-1]).read_text()
    return None if written == result.stdout else "--out file differs from stdout"


def _code(want, doc_check=None):
    def check(result, tmp, args):
        if result.code != want:
            return f"exit code {result.code}, expected {want}"
        if doc_check is not None:
            return doc_check(json.loads(result.stdout), tmp)
        return None
    return check


def _load_amps(tmp, f):
    doc = json.loads((Path(tmp) / f).read_text())
    amps = np.array([complex(*p) for p in doc["amplitudes"]])
    return amps, tuple(doc["dims"])


def _doc_decomposition(dec):
    """(coefficients, families) of a decomposition document."""
    return dec["coefficients"], [np.array([[complex(*p) for p in vec] for vec in fam])
                                 for fam in dec["subsystems"]]


def _check_doc(f):
    def check(doc, tmp):
        dec = doc.get("decomposition", doc) if "verdict" in doc else doc
        if dec is None:
            return None
        amps, dims = _load_amps(tmp, f)
        err = rebuild_error(*_doc_decomposition(dec), amps)
        if err > tolerances.RECONSTRUCT_TOL:
            return f"rebuild error {err:.3e}"
        if f == "dec.json" and len(dec["coefficients"]) != 3:
            return f"rank {len(dec['coefficients'])}, expected 3"
        return None
    return check


def _cut_doc(f, cut):
    left = tuple(int(i) for i in cut.split("|")[0].split(","))

    def check(doc, tmp):
        amps, dims = _load_amps(tmp, f)
        m = cut_matrix(amps, dims, left)
        err = rebuild_error(*_doc_decomposition(doc), m)
        return None if err <= 1e-10 else f"rebuild error {err:.3e}"
    return check


def _number_doc(f, cut):
    left = tuple(int(i) for i in cut.split("|")[0].split(","))

    def check(doc, tmp):
        amps, dims = _load_amps(tmp, f)
        want = numeric_rank(cut_matrix(amps, dims, left))
        got = doc["schmidt_number"]
        return None if got == want else f"Schmidt number {got}, expected {want}"
    return check


def _spectrum_doc(f):
    def check(doc, tmp):
        amps, dims = _load_amps(tmp, f)
        sing = np.linalg.svd(cut_matrix(amps, dims, (1,)), compute_uv=False)
        got = np.array(doc["spectrum"])
        want = np.zeros(got.size)
        want[:min(sing.size, got.size)] = (sing ** 2)[:got.size]
        err = float(np.abs(got - want).max())
        return None if err <= 1e-10 else f"spectrum off by {err:.3e}"
    return check


def _purify_doc(rho):
    def check(doc, tmp):
        amps = np.array([complex(*p) for p in doc["amplitudes"]])
        m = amps.reshape(rho.entries.shape[0], -1)
        err = float(np.abs(m @ m.conj().T - rho.entries).max())
        return None if err <= 1e-9 else f"trace-back error {err:.3e}"
    return check


def _link_doc(doc, tmp):
    """The emitted unitary is unitary and maps pur_b onto pur_a."""
    u = np.array([[complex(*p) for p in row] for row in doc["unitary"]])
    off = unitarity_error(u)
    if off > 1e-8:
        return f"link unitary off by {off:.3e}"
    first, _ = _load_amps(tmp, "pur_a.json")
    second, _ = _load_amps(tmp, "pur_b.json")
    d = u.shape[0]
    err = float(np.linalg.norm(second.reshape(-1, d) @ u.T - first.reshape(-1, d)))
    return None if err <= 1e-8 else f"link residual {err:.3e}"


def _cli_files(seed, tmp: Path, src: Path, inprocess: bool) -> list[Op]:
    inputs = write_cli_inputs(seed, tmp)
    golden = functools.cache(lambda: json.loads(GOLDEN.read_text()))
    seen: dict[str, str] = {}
    ops = []
    for label, args, check in cli_commands(seed, inputs):
        if inprocess:
            run = lambda a=args: run_cli_inprocess(a, tmp)
        else:
            run = lambda a=args: run_cli(a, tmp, src)
        ops.append(Op(label, f"cli.{args[0]}", run,
                      _cli_check(label, args, check, tmp, golden, seen)))
    return ops


def _cli_check(label, args, check, tmp, golden, seen):
    """Semantic check, golden digest for fixtures, byte stability."""
    def full(result):
        reason = check(result, tmp, args)
        if reason:
            return reason
        if label in golden():
            want_code, want_digest = golden()[label]
            if (result.code, canonical_digest(result.stdout)) != (want_code, want_digest):
                return "exit code or stdout digest differs from golden"
        previous = seen.setdefault(label, result.stdout)
        return None if previous == result.stdout else "stdout bytes changed between passes"
    return full


def write_golden(tmp: Path, src: Path) -> dict:
    """Exit code and digest of every command whose output the seed cannot change."""
    fixed = tuple(f" {f}" for f in FIXTURE_FILES)
    golden = {}
    for label, args, _ in cli_commands(0, write_cli_inputs(0, tmp)):
        result = run_cli(args, tmp, src)
        if (label in ("gen w", "gen ghz4", "partition qubits16")
                or label.endswith(fixed)):
            golden[label] = [result.code, canonical_digest(result.stdout)]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return golden


# ------------------------------------------------------------------ api

WORKLOADS = ("decide_small", "decide_large", "partition_exact", "cli_files")


def build(name: str, seed: int, tmp: Path | None = None,
          src: Path | None = None, inprocess: bool = False) -> list[Op]:
    if name == "decide_small":
        return _decide_small(seed)
    if name == "decide_large":
        return _decide_large(seed)
    if name == "partition_exact":
        return _partition_exact(seed)
    if name == "cli_files":
        return _cli_files(seed, tmp, src, inprocess)
    raise ValueError(f"unknown workload {name!r}")
