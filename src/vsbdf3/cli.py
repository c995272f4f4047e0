"""Command-line study harness: convergence tables, certification, sweeps.

Subcommands mirror the study workflows; all numeric output files are byte
deterministic for a fixed invocation, and no wall-clock time is recorded.
Exit codes: 0 success / property certified, 1 analyzed property violated,
2 usage error, 3 solver failure (Newton divergence or a non-converging
inner solve).  Commands raise ValueError on bad input; main prints it as
one "error:" line on stderr, as it does solver failures.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .allen_cahn import (
    NEWTON_TOL,
    NewtonDivergenceError,
    SingularJacobianError,
    SolverConfig,
    consistency_probe,
    run,
)
from .bdf_kernels import inverse_kernel_rows, kernel_weights
from .ratio_analysis import (
    SWEEP_KAPPAS,
    certify_positive_definite,
    sweep_lemma_bounds,
    sylvester_trace_A_from_ratios,
)
from .spectral import chebyshev_operator, fourier_operator
from .time_grid import (
    build_from_steps,
    build_alternating,
    build_random,
    build_uniform,
    load_grid,
    random_bounded_grid,
)

__all__ = [
    "ConvergenceRow",
    "ConvergenceReport",
    "run_convergence",
    "emit",
    "main",
    "ENERGY_TOL",
]

# Slack allowed on the E(u^n) <= E(u^0) check in the energy study.
ENERGY_TOL = 1e-10


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    error: float
    rate: float | None
    max_ratio: float | None
    min_ratio: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors and observed orders for one forcing case at one eps2."""

    case: str
    eps2: float
    m: int
    seed: int | None
    rows: tuple[ConvergenceRow, ...]


def _case_grid(case: str, n: int, seed: int | None):
    if case == "1":
        return build_alternating(n, 1.0)
    if case == "2":
        # a fresh grid per refinement level, reproducible from the base seed
        return build_random(n, 1.0, seed + n)
    if case == "uniform":
        return build_uniform(n, 1.0)
    raise ValueError(f"unknown case {case!r}")


def run_convergence(case, eps2_list, n_list, m, seed=None):
    """One manufactured-solution run per (eps2, N); a report per eps2.

    Case "1" uses the alternating grid, case "2" a random grid drawn from
    seed+N, "uniform" equal steps.  All runs share one Chebyshev operator.
    """
    eps2_list = list(eps2_list)
    n_list = sorted(set(int(n) for n in n_list))
    if (case == "2") != (seed is not None):
        raise ValueError("case 2 needs a seed" if seed is None else f"case {case} takes no seed")
    operator = chebyshev_operator(m)
    grids = {n: _case_grid(case, n, seed) for n in n_list}
    # every configuration is validated before the first solve
    configs = [[SolverConfig(grid=grid, operator=operator, eps2=eps2) for grid in grids.values()]
               for eps2 in eps2_list]
    reports = []
    for eps2, row_configs in zip(eps2_list, configs):
        rows, prev = [], None
        for (n, grid), config in zip(grids.items(), row_configs):
            err = run(config).final_error
            rate = None if prev is None else math.log(prev[1] / err) / math.log(n / prev[0])
            ratios = grid.ratios
            rows.append(ConvergenceRow(n, err, rate,
                                       max(ratios, default=None), min(ratios, default=None)))
            prev = (n, err)
        reports.append(ConvergenceReport(case=case, eps2=eps2, m=m, seed=seed,
                                         rows=tuple(rows)))
    return tuple(reports)


def _cells(row: ConvergenceRow) -> list[str]:
    """A row's five printed cells N, error, rate, max_r, min_r ("" where absent)."""
    optional = ((row.rate, ".4f"), (row.max_ratio, ".6g"), (row.min_ratio, ".6g"))
    return [str(row.n), f"{row.error:.4e}",
            *("" if x is None else format(x, spec) for x, spec in optional)]


def emit(report: ConvergenceReport, fmt: str, path) -> Path:
    """Write a report as CSV or JSON; both carry identical rounded numbers."""
    path = Path(path)
    if fmt == "csv":
        lines = ["N,error,rate,max_r,min_r", *(",".join(_cells(row)) for row in report.rows)]
        path.write_text("\n".join(lines) + "\n")
        return path
    if fmt == "json":
        data = {
            "metadata": {
                "case": report.case,
                "eps2": report.eps2,
                "M": report.m,
                "seed": report.seed,
                "newton_tol": NEWTON_TOL,
            },
            "rows": [
                {"N": row.n, **{key: float(cell) if cell else None for key, cell
                                in zip(("error", "rate", "max_r", "min_r"), _cells(row)[1:])}}
                for row in report.rows
            ],
        }
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return path
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_convergence(args) -> int:
    out, paths = args.out, [args.out] * len(args.eps2)
    if out is not None and len(paths) > 1:
        paths = [out.with_name(f"{out.stem}_eps2_{e:g}{out.suffix}") for e in args.eps2]
        if len(set(paths)) < len(paths):
            twice = next(p for p in paths if paths.count(p) > 1)
            raise ValueError(f"--eps2 values {args.eps2} would write {twice} twice")
    reports = run_convergence(args.case, args.eps2, args.n, args.m, seed=args.seed)
    for report, path in zip(reports, paths):
        print(f"case {report.case}  eps2={report.eps2:g}  M={report.m}")
        for n, error, rate, *_ in map(_cells, report.rows):
            print(f"  N={n:<5} error={error} rate={rate or '-'}")
        if path is not None:
            emit(report, args.format, path)
            print(f"  wrote {path}")
    return 0


def cmd_ratio_figure(args) -> int:
    if args.length < 2:
        raise ValueError("--length must be at least 2")
    trace = sylvester_trace_A_from_ratios([args.ratio] * (args.length - 1))
    lines = ["j,p", *(f"{j},{pj!r}" for j, pj in enumerate(trace.p, start=1))]
    Path(args.out).write_text("\n".join(lines) + "\n")
    if trace.first_negative is None:
        print(f"ratio {args.ratio:g}: all {len(trace.p)} pivots positive")
    else:
        print(f"ratio {args.ratio:g}: first nonpositive pivot at j={trace.first_negative}")
    print(f"wrote {args.out}")
    return 0


def cmd_validate_lemmas(args) -> int:
    result = sweep_lemma_bounds(resolution=args.resolution)
    print(f"resolution {result.resolution:g}, kappas {list(SWEEP_KAPPAS)}")
    print(f"  transfer factor   in [{result.transfer_min:.12f}, {result.transfer_max:.12f}]"
          f"  (certified [1, 2.7])")
    print(f"  subdiag cert      in [{result.subdiag_min:.6e}, {result.subdiag_max:.6e}]"
          f"  (certified <= 0)")
    print(f"  pivot lower cert  in [{result.pivot_lower_min:.6e}, {result.pivot_lower_max:.6e}]"
          f"  (certified >= 0)")
    print(f"  pivot upper cert  in [{result.pivot_upper_min:.6e}, {result.pivot_upper_max:.6e}]"
          f"  (certified <= 0)")
    print("all bounds hold" if result.passed else "BOUND VIOLATION")
    return 0 if result.passed else 1


def cmd_certify(args) -> int:
    grid = load_grid(args.grid)
    ok, trace = certify_positive_definite(grid)
    print(f"grid: {grid.n_steps} steps, horizon {grid.horizon:g}, "
          f"max ratio {max(grid.ratios, default=None)}")
    if ok:
        print("certified: all pivots positive")
        return 0
    print(f"NOT certified: first nonpositive pivot at level {trace.first_negative}")
    return 1


def cmd_energy(args) -> int:
    if args.seed is None:
        grid = build_from_steps((args.tau,) * args.steps)
    else:
        grid = random_bounded_grid(args.steps, args.tau, args.seed)
    operator = fourier_operator(args.m)
    config = SolverConfig(grid=grid, operator=operator, eps2=args.eps2, forcing="none")
    result = run(config)
    e0 = result.energies[0]
    worst = float(np.max(result.energies - e0))
    if args.out is not None:
        lines = ["t,energy"]
        for t, e in zip(grid.levels, result.energies):
            lines.append(f"{float(t)!r},{float(e)!r}")
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    print(f"E(u^0) = {e0:.12f}; max excess over E(u^0): {worst:.3e}")
    ok = worst <= ENERGY_TOL
    print("energy bounded by its initial value" if ok else "ENERGY EXCEEDED E(u^0)")
    return 0 if ok else 1


def cmd_kernels(args) -> int:
    grid = load_grid(args.grid)
    if grid.n_steps > _KERNELS_MAX_STEPS:
        raise ValueError(f"kernels needs a grid of at most {_KERNELS_MAX_STEPS} steps, "
                         f"got {grid.n_steps}")
    out = Path(args.out)
    # a directory in a file's place would stop the moves below after some files had moved
    if blocked := [path for path in (out / f"{name}.csv" for name in "BAD") if path.is_dir()]:
        raise ValueError(f"{blocked[0]} is a directory, not a file kernels can replace")
    b = kernel_weights(grid).tolist()
    root = [math.sqrt(t) for t in grid.steps]
    # written on out's file system, moved in after the last row: a failed dump leaves out as it was
    near = next(path for path in (out, *out.parents) if path.is_dir())
    with tempfile.TemporaryDirectory(dir=near) as scratch:
        paths = [Path(scratch, f"{name}.csv") for name in "BAD"]
        with open(paths[0], "w") as fb, open(paths[1], "w") as fa, open(paths[2], "w") as fd:
            for f in (fb, fa, fd):
                f.write("row,col,value\n")
            for i, d in enumerate(inverse_kernel_rows(b), start=1):
                # b_{i, i-j} for the banded columns j = i-2..i
                band = [(j, b[i - 1][i - j]) for j in range(max(1, i - 2), i + 1)]
                fb.writelines(f"{i},{j},{v!r}\n" for j, v in band)
                fa.writelines(f"{i},{j},{root[i - 1] * v * root[j - 1]!r}\n" for j, v in band)
                fd.writelines(f"{i},{j},{v!r}\n" for j, v in enumerate(d, start=1))
        out.mkdir(parents=True, exist_ok=True)
        for path in paths:
            os.replace(path, out / path.name)
    print(f"wrote B.csv, A.csv, D.csv to {out}")
    return 0


_PROBE_FUNCTIONS = {
    "t3": (lambda t: t**3, lambda t: 3.0 * t**2),
    "t4": (lambda t: t**4, lambda t: 4.0 * t**3),
    "sin": (math.sin, math.cos),
}


def cmd_consistency(args) -> int:
    if min(args.levels) < 3:
        raise ValueError(f"level counts must be >= 3, got {[n for n in args.levels if n < 3]}")
    v, v_prime = _PROBE_FUNCTIONS[args.function]
    lines = ["N,tau,max_eta"]
    for n in sorted(set(args.levels)):
        grid = build_uniform(n, 1.0)
        eta = consistency_probe(grid, v, v_prime)
        max_eta = float(np.max(np.abs(eta[2:])))
        lines.append(f"{n},{1.0 / n!r},{max_eta!r}")
        print(f"  N={n:<5d} tau={1.0 / n:.6g} max residual (3-step levels) {max_eta:.6e}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


# Largest grid kernels dumps: its output grows as N^2, about 105 MB of CSV
# at 3,000 steps; rows are written as they are computed.
_KERNELS_MAX_STEPS = 3000


class _Parser(argparse.ArgumentParser):
    """Refuses counts over LIMITS and negative seeds; at m = 512 the GMRES basis is 1 GiB."""
    LIMITS = dict.fromkeys(("n", "steps", "length", "levels"), 10**6) | {"m": 512}

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        top = {k: int(max(np.ravel(v))) for k, v in vars(namespace).items() if k in self.LIMITS}
        for key, value in top.items():
            if value > self.LIMITS[key]:
                self.error(f"{key} = {value} is above the limit {self.LIMITS[key]}")
        if (getattr(namespace, "seed", None) or 0) < 0:
            self.error(f"--seed must be non-negative, got {namespace.seed}")
        return namespace, extras


def _parse_list(kind, text: str) -> list:
    """A nonempty comma-separated list of kind, as an argparse type."""
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty {kind.__name__} list {text!r}")
    return values


_float_list, _int_list = partial(_parse_list, float), partial(_parse_list, int)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="vsbdf3",
        description="Variable-step three-step integration studies for the Allen-Cahn equation.",
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("convergence", help="manufactured-solution error table")
    pc.add_argument("--case", choices=("1", "2", "uniform"), required=True,
                    help="1: alternating steps, 2: random steps (needs --seed), uniform")
    pc.add_argument("--eps2", type=_float_list, default=[0.16, 0.36],
                    help="comma-separated interface parameters (default 0.16,0.36)")
    pc.add_argument("--n", type=_int_list, default=[20, 40, 80, 160],
                    help="comma-separated step counts (default 20,40,80,160)")
    pc.add_argument("--m", type=int, default=20, help="spatial resolution (default 20)")
    pc.add_argument("--seed", type=int, default=None, help="base seed for case 2")
    pc.add_argument("--out", type=Path, default=None,
                    help="output path; multiple eps2 values get per-value suffixes")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.set_defaults(func=cmd_convergence)

    pr = sub.add_parser("ratio-figure", help="pivot sequence at a constant step ratio")
    pr.add_argument("--ratio", type=float, required=True)
    pr.add_argument("--length", type=int, required=True, help="number of levels to trace")
    pr.add_argument("--out", type=Path, required=True)
    pr.set_defaults(func=cmd_ratio_figure)

    pv = sub.add_parser("validate-lemmas", help="sweep the certificate bounds on the ratio box")
    pv.add_argument("--resolution", type=float, default=0.005)
    pv.set_defaults(func=cmd_validate_lemmas)

    pk = sub.add_parser("certify", help="positive-definiteness certification of a grid")
    pk.add_argument("--grid", type=Path, required=True, help="grid JSON file")
    pk.set_defaults(func=cmd_certify)

    pe = sub.add_parser("energy", help="unforced run checking energy stays below E(u^0)")
    pe.add_argument("--eps2", type=float, required=True)
    pe.add_argument("--tau", type=float, required=True, help="largest step size")
    pe.add_argument("--steps", type=int, required=True)
    pe.add_argument("--seed", type=int, default=None,
                    help="random-ratio grid seed; omit for uniform steps")
    pe.add_argument("--m", type=int, default=32, help="periodic resolution (default 32)")
    pe.add_argument("--out", type=Path, default=None, help="energy trace CSV")
    pe.set_defaults(func=cmd_energy)

    pm = sub.add_parser("kernels", help="dump kernel matrices B, A, D for a grid")
    pm.add_argument("--grid", type=Path, required=True, help="grid JSON file")
    pm.add_argument("--out", type=Path, required=True, help="output directory")
    pm.set_defaults(func=cmd_kernels)

    ps = sub.add_parser("consistency", help="discrete-derivative residuals on uniform grids")
    ps.add_argument("--function", choices=tuple(_PROBE_FUNCTIONS), required=True)
    ps.add_argument("--levels", type=_int_list, required=True,
                    help="comma-separated step counts")
    ps.add_argument("--out", type=Path, required=True)
    ps.set_defaults(func=cmd_consistency)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with redirect_stdout(io.StringIO()) if args.quiet else nullcontext():
            return args.func(args)
    except (NewtonDivergenceError, SingularJacobianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # unreadable or malformed input files, and argument values the
        # package rejects, are usage errors, not failed properties
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
