"""Command-line front end over the canonical JSON file formats.

Exit codes: 0 for success or an affirmative verdict, 1 for a negative
verdict (not decomposable, infeasible, condition fails), 2 for usage
or input errors.  Each verb returns its report; main alone writes it
as deterministic JSON, to the --out file first, so that a failed write
leaves standard output empty, then to standard output.  Only gen, which
writes a random state, takes --seed (default 0); every other verb reads
its inputs alone, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import io
from .bipartite import _spectra_doc, schmidt_decompose_bipartite, schmidt_number, spectra
from .compose import Grouping, compose, rank_inequality_check
from .errors import (
    IndicesOutOfRange,
    InvalidArgs,
    MalformedCut,
    SchmidtError,
)
from .fixtures import bell, ghz, haar_random_state, w_state
from .multipartite import check_decomposable, equal_spectra_check, random_decomposable_state
from .partition import max_schmidt_number
from .purify import Purification, linking_unitary, purify
from .state import Bipartition, StateTensor

__all__ = ["main", "parse_cut", "parse_grouping"]


def parse_cut(text: str, n: int) -> Bipartition:
    """Parse "1,3|2" into a bipartition of subsystems 1..n.

    Both sides must be nonempty, indices 1-based, and together cover
    every subsystem exactly once.
    """
    parts = text.split("|")
    if len(parts) != 2:
        raise MalformedCut(f"cut {text!r} must contain exactly one '|'")
    sides = []
    for part in parts:
        items = [p.strip() for p in part.split(",")]
        if not all(items):
            raise MalformedCut(f"cut {text!r} has an empty index")
        try:
            sides.append(tuple(int(p) for p in items))
        except ValueError:
            raise MalformedCut(f"cut {text!r} has a non-integer index") from None
    left, right = sides
    if sorted(left + right) != list(range(1, n + 1)):
        raise IndicesOutOfRange(f"cut {text!r} must use each of 1..{n} exactly once")
    return Bipartition(left, right)


def parse_grouping(text: str) -> Grouping:
    return Grouping(_parse_ints(text, "grouping"))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidArgs(f"{what} {text!r} must be comma-separated integers") from None


def _parse_complex(text: str, what: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgs(f"{what} {text!r} must be 're,im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise InvalidArgs(f"{what} {text!r} must be 're,im'") from None


def _cmd_check(args) -> tuple[dict, int]:
    state = io.load_state(args.state)
    report = check_decomposable(state)
    return io.report_to_dict(report), 0 if report.decomposable else 1


def _cmd_decompose(args) -> tuple[dict, int]:
    state = io.load_state(args.state)
    if args.cut is not None or state.subsystem_count == 2:
        cut = (Bipartition((1,), (2,)) if args.cut is None
               else parse_cut(args.cut, state.subsystem_count))
        bi = schmidt_decompose_bipartite(state, cut)
        return io.decomposition_to_dict(bi.decomposition, cut), 0
    report = check_decomposable(state)
    if report.decomposable:
        return io.decomposition_to_dict(report.decomposition), 0
    return io.report_to_dict(report), 1


def _cmd_number(args) -> tuple[dict, int]:
    state = io.load_state(args.state)
    cut = parse_cut(args.cut, state.subsystem_count)
    value = schmidt_number(state, cut)
    return {"cut": io._cut_doc(cut), "schmidt_number": value}, 0


def _cmd_spectra(args) -> tuple[dict, int]:
    state = io.load_state(args.state)
    if args.equal:
        ok, table = equal_spectra_check(state)
        return {"equal": ok, "spectra": _spectra_doc(table)}, 0 if ok else 1
    if args.cut is not None:
        keep = parse_cut(args.cut, state.subsystem_count).left
    else:
        keep = (1,)
    values = spectra(state, keep)
    return {"keep": list(keep), "spectrum": values.tolist()}, 0


def _fmt_side(indices) -> str:
    return "{" + ",".join(map(str, indices)) + "}"


def _cmd_partition(args) -> tuple[dict, int]:
    dims = _parse_ints(args.dims, "--dims")
    if args.target is not None and args.target < 1:
        raise InvalidArgs(f"target must be a positive integer, got {args.target}")
    sol = max_schmidt_number(dims)
    doc = {"dims": list(dims)}
    if args.target is not None:  # decide's rule: feasible exactly when target <= K
        doc.update(target=args.target, feasible=args.target <= sol.k)
        if not doc["feasible"]:
            doc.update(max_k=sol.k, summary=f"infeasible: max K={sol.k} < {args.target}")
            return doc, 1
    left, right = map(_fmt_side, (sol.bipartition.left, sol.bipartition.right))
    doc.update(io._cut_doc(sol.bipartition), k=sol.k, left_product=sol.left_product,
               right_product=sol.right_product)
    doc["summary"] = (f"K={sol.k} left={left} right={right}" if args.target is None
                      else f"K={sol.k} >= {args.target} via left={left}")
    return doc, 0


def _cmd_compose(args) -> tuple[dict, int]:
    left = io.load_decomposition(args.left)
    right = io.load_decomposition(args.right)
    grouping = parse_grouping(args.grouping)
    merged = compose(left, right, grouping)
    return io.decomposition_to_dict(merged), 0


def _cmd_inequality(args) -> tuple[dict, int]:
    phi = io.load_state(args.phi)
    gamma = io.load_state(args.gamma)
    alpha = _parse_complex(args.alpha, "--alpha")
    beta = _parse_complex(args.beta, "--beta")
    cut = None
    if args.cut is not None:
        cut = parse_cut(args.cut, phi.subsystem_count)
    report = rank_inequality_check(phi, gamma, alpha, beta, cut)
    doc = dataclasses.asdict(report)
    if not doc["detail"]:
        del doc["detail"]
    return doc, 0 if report.applicable and report.holds else 1


def _cmd_purify(args) -> tuple[dict, int]:
    rho = io.load_density(args.density)
    pur = purify(rho, args.ref_dim)
    return io.state_to_dict(pur.state), 0


def _cmd_link(args) -> tuple[dict, int]:
    first = Purification(io.load_state(args.first))
    second = Purification(io.load_state(args.second))
    u, residual = linking_unitary(first, second)
    return {"reference_dim": second.reference_dim,
            "unitary": io.complex_pairs(u),
            "residual": residual}, 0


def _cmd_gen(args) -> tuple[dict, int]:
    if args.fixture is not None:
        if args.rank is not None or args.seed is not None:
            raise InvalidArgs("--rank and --seed need --dims, not --fixture")
        if args.fixture == "w":
            state = w_state()
        elif args.fixture == "bell":
            state = bell()
        elif args.fixture.startswith("ghz"):
            try:
                n = int(args.fixture[3:] or 3)
            except ValueError:
                raise InvalidArgs(f"unknown fixture {args.fixture!r}") from None
            state = ghz(n)
        else:
            raise InvalidArgs(f"unknown fixture {args.fixture!r}")
    else:
        dims = _parse_ints(args.dims, "--dims")
        if args.rank is not None:
            state = random_decomposable_state(dims, args.rank, args.seed or 0)
        else:
            state = haar_random_state(dims, args.seed or 0)
    if args.label is not None:
        state = StateTensor(state.dims, state.amplitudes, args.label)
    return io.state_to_dict(state), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidtkit",
        description="Schmidt decomposability toolkit for pure multipartite states")
    subs = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--out", default=None, help="also write the report here")
        return sub

    sub = add("check", _cmd_check, "decide joint decomposability of a state file")
    sub.add_argument("state")

    sub = add("decompose", _cmd_decompose,
              "compute a decomposition (joint, or across --cut)")
    sub.add_argument("state")
    sub.add_argument("--cut", default=None)

    sub = add("number", _cmd_number, "Schmidt number across a cut")
    sub.add_argument("state")
    sub.add_argument("--cut", required=True)

    sub = add("spectra", _cmd_spectra,
              "reduced spectrum (or --equal for the all-cuts comparison)")
    sub.add_argument("state")
    which = sub.add_mutually_exclusive_group()
    which.add_argument("--cut", default=None)
    which.add_argument("--equal", action="store_true")

    sub = add("partition", _cmd_partition,
              "best bipartition of given dimensions (optional --target)")
    sub.add_argument("--dims", required=True)
    sub.add_argument("--target", type=int, default=None)

    sub = add("compose", _cmd_compose,
              "tensor two decomposition files under --grouping")
    sub.add_argument("left")
    sub.add_argument("right")
    sub.add_argument("--grouping", required=True)

    sub = add("inequality", _cmd_inequality,
              "rank inequality for alpha*phi + beta*gamma")
    sub.add_argument("phi")
    sub.add_argument("gamma")
    for name in ("--alpha", "--beta"):
        sub.add_argument(name, required=True, help=f"re,im; write {name}=-1,0 when re < 0")
    sub.add_argument("--cut", default=None)

    sub = add("purify", _cmd_purify, "purify a density-matrix file")
    sub.add_argument("density")
    sub.add_argument("--ref-dim", type=int, default=None)

    sub = add("link", _cmd_link,
              "reference-side unitary linking two purification files")
    sub.add_argument("first")
    sub.add_argument("second")

    sub = add("gen", _cmd_gen, "write fixture or seeded random state files")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", default=None,
                        help="w, bell, ghz or ghzN for N parts")
    source.add_argument("--dims", default=None)
    sub.add_argument("--rank", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None, help="default 0")
    sub.add_argument("--label", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        doc, code = args.func(args)
        text = io.dumps_canonical(doc)
        if args.out:  # first, so a failed write leaves stdout empty
            Path(args.out).write_text(text)
        sys.stdout.write(text)
    except SchmidtError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing, unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to allocate
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
