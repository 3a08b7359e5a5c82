"""Command line surface: state construction, observables, and the verify suites.

Exit codes: 0 success, 1 failed checks, runtime errors, an unallocatable
array or a --n-max above _N_MAX_LIMIT, 2 empty symmetry sector, 3 malformed
input JSON. Every failure is one line on stderr.
wigner --check-symmetry N reports, from the amplitudes, the mass outside the
state's heaviest residue class mod N (0 exactly for a C_N sector state).
JSON output is the text of json.dumps(payload, indent=2) and a newline, with
complex arrays as nested [re, im] pairs, written one format per array
(fock._json_text).
"""
from __future__ import annotations

import argparse
import itertools
import json
import numbers
import sys

import numpy as np

from .fock import (
    FockVector,
    _check_numbers,
    _class_sums,
    _json_text,
    coherent,
    vector_from_dict,
)
from .cyclic import (
    CyclicSpec,
    EmptyRepresentationError,
    circle_limit,
    circle_limit_quadrature_gap,
    cyclic_erasure,
    cyclic_state,
    dihedral_state,
)
from .gaussian import GaussianParams, gaussian_to_fock
from .observables import (
    BipartiteSpec,
    bipartite_normalize,
    linear_entropy,
    linear_entropy_gram,
    mandel,
    wigner,
    write_wigner_csv,
)
from .verify import DEFAULT_SEED, SUITES, format_report, run_suites

__all__ = ["main"]

# Largest --n-max for constructed seeds. The constructors hold n_max + 1
# Python values before any check runs, so a far larger value would exhaust
# memory instead of failing with a message; the tests reach 4096.
_N_MAX_LIMIT = 2 ** 20


class InputFormatError(ValueError):
    """Input file exists but does not parse as the documented JSON shape."""


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc


def _load_state(path: str) -> FockVector:
    data = _read_json(path)
    try:
        return vector_from_dict(data)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _seed_state(args) -> FockVector:
    """The seed named by --input / --coherent / --gaussian."""
    given = [name for name in ("input", "coherent", "gaussian")
             if getattr(args, name, None) is not None]
    if len(given) != 1:
        raise InputFormatError(
            "exactly one of --input, --coherent, --gaussian must be given")
    if args.input is not None:
        return _load_state(args.input)
    if args.n_max is not None and args.n_max > _N_MAX_LIMIT:
        raise ValueError(f"--n-max must be <= {_N_MAX_LIMIT}, got {args.n_max}")
    if args.coherent is not None:
        re, im = args.coherent
        return coherent(complex(re, im), args.n_max)
    ar, ai, br, bi = args.gaussian
    return gaussian_to_fock(GaussianParams(complex(ar, ai), complex(br, bi)),
                            args.n_max)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(payload: dict, path: str | None) -> None:
    _write_text(_json_text(payload) + "\n", path)


def _write_state(state: FockVector, metadata: dict, path: str | None) -> None:
    """The state JSON, n_max and the amplitudes as [re, im] pairs, with a
    metadata block, written by _write_json."""
    _write_json({"n_max": int(state.n_max), "amplitudes": state.amplitudes,
                 "metadata": metadata}, path)


def cmd_build(args: argparse.Namespace) -> int:
    seed = _seed_state(args)
    spec = CyclicSpec(args.order, args.irrep)
    method = args.method
    if args.group == "D":
        state, record = dihedral_state(seed, spec, args.variant)
        method = f"dihedral-{args.variant}"
    else:
        state, record = cyclic_state(seed, spec)
        if method == "erasure":
            state = cyclic_erasure(seed, spec)
    _write_state(state, {
        "method": method,
        "group": args.group,
        "order": args.order,
        "irrep": args.irrep,
        "n_lambda": [record.n_lambda.real, record.n_lambda.imag],
        "raw_norm": record.raw_norm,
        "residue_class_masses": list(_class_sums(np.abs(seed.amplitudes) ** 2,
                                                 args.order)),
        "tail_flagged": state.tail_flagged,
    }, args.output)
    return 0


def _require_finite(name: str, values) -> None:
    """Raise ValueError (exit 1) before any output holding NaN or Inf is written."""
    size = int(np.size(values))
    bad = size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise ValueError(
            f"{name}: {bad} of {size} values are not finite; nothing written")


def cmd_wigner(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    for flag in ("x_min", "x_max", "p_min", "p_max"):
        value = getattr(args, flag)
        if not np.isfinite(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    order = args.check_symmetry
    if order is not None and order < 1:
        raise ValueError(f"symmetry order must be >= 1, got {order}")
    state = _load_state(args.input)
    # a zero state breaks the kernel, and _require_finite reports it; far-out
    # bounds do not, as the Hermite rows are exact zeros there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        grid = wigner(state, (args.x_min, args.x_max), (args.p_min, args.p_max),
                      args.points)
        _require_finite("Wigner grid", grid.values)
    if args.output is None:
        write_wigner_csv(grid, sys.stdout)
    else:
        with open(args.output, "w") as fh:
            write_wigner_csv(grid, fh)
    if order is not None:
        w = _class_sums(np.abs(state.amplitudes) ** 2, order)
        sys.stderr.write(f"rotation symmetry residual (order {order}): "
                         f"{(w.sum() - w.max()) / w.sum():.3e}\n")
    return 0


def cmd_mandel(args: argparse.Namespace) -> int:
    state = _load_state(args.input)
    m_q = mandel(state)
    _require_finite("Mandel parameter M_Q", m_q)
    if m_q < 1.0 - 1e-12:
        label = "subpoissonian"
    elif m_q > 1.0 + 1e-12:
        label = "superpoissonian"
    else:
        label = "poissonian"
    _write_text(f"M_Q = {m_q:.12e} ({label})\n"
                f"conventional Q = M_Q - 1 = {m_q - 1.0:.12e}\n", args.output)
    if state.tail_flagged:
        sys.stderr.write(f"warning: the state is tail_flagged at n_max {state.n_max}: "
                         "its truncation is too tight, so M_Q may not be the "
                         "untruncated state's\n")
    return 0


def _load_bipartite(path: str) -> BipartiteSpec:
    data = _read_json(path)
    try:
        _check_numbers("n", [data["n"]], numbers.Integral)
        _check_numbers("c part", itertools.chain.from_iterable(data["c"]))
        n = int(data["n"])
        c = np.array([complex(re, im) for re, im in data["c"]])
        seed_1 = vector_from_dict(data["seed_1"])
        seed_2 = vector_from_dict(data["seed_2"])
        return BipartiteSpec(n, c, seed_1, seed_2)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: malformed bipartite spec ({exc})") from exc


def cmd_entangle(args: argparse.Namespace) -> int:
    spec = bipartite_normalize(_load_bipartite(args.input))
    result = linear_entropy(spec)
    oracle = linear_entropy_gram(spec)
    for name, values in (("s_linear", result.s_linear),
                         ("s_linear_oracle", oracle),
                         ("f_matrix", result.f_matrix)):
        _require_finite(name, values)
    diff = abs(result.s_linear - oracle)
    payload = {
        "s_linear": result.s_linear,
        "s_linear_oracle": oracle,
        "difference": diff,
        "f_matrix": result.f_matrix,
    }
    _write_json(payload, args.output)
    if diff > 1e-8:
        sys.stderr.write(
            f"error: decomposition and oracle disagree by {diff:.3e}\n")
        return 1
    return 0


def cmd_circle_limit(args: argparse.Namespace) -> int:
    seed = _seed_state(args)
    state = circle_limit(seed, args.irrep)
    gap = circle_limit_quadrature_gap(seed, args.irrep)
    _write_state(state, {"irrep": args.irrep, "quadrature_gap": gap}, args.output)
    if gap > 1e-10:
        sys.stderr.write(
            f"error: analytic limit and angle-average quadrature disagree by {gap:.3e}\n")
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:  # numpy's own error would name no flag, and some suites draw nothing
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    names = None if args.suite == "all" else [args.suite]
    rows = run_suites(names, seed=args.seed)
    report = format_report(rows, timestamp=not args.no_timestamp)
    _write_text(report, args.output)
    return 0 if all(r.passed for r in rows) else 1


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="state JSON file to use as the seed")
    p.add_argument("--coherent", nargs=2, type=float, metavar=("RE", "IM"),
                   help="coherent seed with amplitude RE + i IM")
    p.add_argument("--gaussian", nargs=4, type=float,
                   metavar=("A_RE", "A_IM", "B_RE", "B_IM"),
                   help="Gaussian seed exp(-a x^2 + b x)")
    p.add_argument("--n-max", type=int, default=None,
                   help="truncation for constructed seeds (default: 64; "
                        "file input keeps its own)")
    p.add_argument("--output", help="write here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polystate",
        description="Cyclic and dihedral symmetry-adapted bosonic states "
                    "in a truncated Fock space.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, default_method in (("build", None), ("erase", "erasure")):
        p = sub.add_parser(
            name,
            help="construct a symmetry-adapted state"
                 + (" by photon-number erasure" if default_method else ""))
        _add_seed_flags(p)
        p.add_argument("--group", choices=("C", "D"), default="C",
                       help="cyclic or dihedral symmetrization")
        p.add_argument("--order", type=int, required=True, help="group order n")
        p.add_argument("--irrep", type=int, required=True,
                       help="irrep index 1..n")
        p.add_argument("--variant", choices=("sum", "difference"),
                       default="sum", help="dihedral combination (group D)")
        if default_method is None:
            p.add_argument("--method", choices=("superposition", "erasure"),
                           default="erasure",
                           help="construction route (default erasure)")
        else:
            p.set_defaults(method=default_method)
        p.set_defaults(func=cmd_build)

    p = sub.add_parser("wigner", help="evaluate a Wigner-function grid as CSV")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.add_argument("--x-min", type=float, default=-6.0)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--p-min", type=float, default=-6.0)
    p.add_argument("--p-max", type=float, default=6.0)
    p.add_argument("--points", type=int, default=201,
                   help="grid points per axis")
    p.add_argument("--check-symmetry", type=int, metavar="N",
                   help="report the mass off the heaviest residue class mod N "
                        "on stderr (0 for a C_N sector state)")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("mandel", help="photon-statistics Mandel parameter")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_mandel)

    p = sub.add_parser("entangle",
                       help="linear entropy of a two-mode rotated superposition")
    p.add_argument("--input", required=True, help="bipartite spec JSON file")
    p.add_argument("--output", help="result JSON path (default stdout)")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=["all", *SUITES],
                   help="which suite to run (default all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the randomized suites")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp line (byte-identical reruns per BLAS threads)")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("circle-limit",
                       help="the infinite-order limit state of a seed")
    _add_seed_flags(p)
    p.add_argument("--irrep", type=int, required=True,
                   help="irrep index (>= 1); the limit is |irrep - 1>")
    p.set_defaults(func=cmd_circle_limit)

    return parser


def _fail(exc: Exception, code: int) -> int:
    """Report exc as a single stderr line and return the exit code."""
    sys.stderr.write(f"error: {' '.join(str(exc).split())}\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyRepresentationError as exc:
        return _fail(exc, 2)
    except InputFormatError as exc:
        return _fail(exc, 3)
    # OSError: unreadable or unwritable paths; RuntimeError and AssertionError:
    # an oracle route did not converge or failed its self-check (verify only).
    except (OSError, ValueError, RuntimeError, AssertionError) as exc:
        return _fail(exc, 1)
    # an array too large for this machine, e.g. wigner --points 40000;
    # numpy's message names the allocation's size, shape and dtype
    except MemoryError as exc:
        return _fail(MemoryError(f"out of memory: {str(exc) or 'allocation failed'}"), 1)


if __name__ == "__main__":
    sys.exit(main())
