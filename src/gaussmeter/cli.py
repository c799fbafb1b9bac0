"""Command-line front end.

Subcommands:
  er-gauge    entropy reduction of a phase-insensitive measurement
  er-general  entropy reduction of a general Gaussian measurement
  capacity    energy-constrained assisted capacity (multimode optimizer)
  sweep       one-mode capacity/gain table as CSV (optionally an SVG chart)
  verify      run the Fock-engine cross-check suites

Matrix inputs are JSON documents ``{"s": modes, "re": [[...]], "im": [[...]]}``
with the imaginary part optional.  JSON results carry ``"schema": "1"``.
Exit codes: 0 success, 2 invalid input, 3 numerical failure or a capacity
whose Frank-Wolfe gap exceeds ``capacity.GAP_TOL``, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from .capacity import EnergyConstraint, _sweep_columns, cea_multimode
from .errors import NumericalError, ValidationError
from .gauge import GaugeMeasurement, GaugeState, entropy_reduction_gauge, posterior_params
from .matfun import LogBase
from .symplectic import (
    GeneralMeasurement,
    RealCovariance,
    entropy_reduction_general,
    posterior_covariance,
)
from .verify import CASES, run_cases

SCHEMA = "1"


# One CSV row of five values, each to 12 significant digits, which
# round-trip through parsing idempotently.  N and E come in as text, each
# distinct value formatted once by _distinct_text.
_NUMBER = "%.11e"
_CSV_ROW = "%s,%s," + ",".join([_NUMBER] * 3) + "\n"

# Size of the sweep's SVG chart, in pixels.
_SVG_WIDTH, _SVG_HEIGHT = 640, 440


def _load_json(path: str):
    """Parse a JSON file, reporting the position of a syntax error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")


def load_matrix_file(path: str, side: int | None = None) -> tuple[np.ndarray, int]:
    """Parse a matrix JSON file, reporting positions of malformed rows.

    Returns ``(matrix, modes)``; ``side`` optionally fixes the expected
    matrix size as a multiple of the mode count (1 for gauge parameters,
    2 for covariance blocks).
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or "re" not in doc or "s" not in doc:
        raise ValueError(f"{path}: expected an object with keys 're' and 's'")
    modes = doc["s"]
    if not isinstance(modes, int) or isinstance(modes, bool):
        raise ValueError(f"{path}: mode count must be an integer, got {modes!r}")
    if modes < 1:
        raise ValueError(f"{path}: mode count must be positive, got {modes}")
    re_part = doc["re"]
    im_part = doc.get("im")
    for label, rows in (("re", re_part), ("im", im_part)):
        if rows is not None and not (
            isinstance(rows, list) and all(isinstance(row, list) for row in rows)
        ):
            raise ValueError(f"{path}: '{label}' must be a list of rows")
    n = len(re_part)
    for label, rows in (("re", re_part), ("im", im_part)):
        if rows is None:
            continue
        if len(rows) != n:
            raise ValueError(f"{path}: '{label}' has {len(rows)} rows, expected {n}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(
                    f"{path}: '{label}' row {i} has {len(row)} entries, expected {n}"
                )
    try:
        matrix = np.asarray(re_part, dtype=float).astype(complex)
        if im_part is not None:
            matrix = matrix + 1j * np.asarray(im_part, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: matrix entries must be numbers")
    if matrix.ndim > 2:
        raise ValueError(f"{path}: matrix entries must be numbers")
    if side is not None and n != side * modes:
        raise ValueError(
            f"{path}: matrix is {n}x{n} but s={modes} requires {side * modes}x{side * modes}"
        )
    return matrix, modes


def _matrix_json(matrix: np.ndarray) -> dict:
    arr = np.asarray(matrix)
    out = {"re": np.real(arr).tolist()}
    if np.iscomplexobj(arr) and np.abs(arr.imag).max(initial=0.0) > 0.0:
        out["im"] = np.imag(arr).tolist()
    return out


def cmd_er_gauge(args) -> int:
    lam, _ = load_matrix_file(args.lambda_file, side=1)
    noise, _ = load_matrix_file(args.noise, side=1)
    state, meas = GaugeState(lam), GaugeMeasurement(noise)
    base = LogBase(args.base)
    post = posterior_params(state, meas)
    result = {
        "schema": SCHEMA,
        "base": base.value,
        "er": entropy_reduction_gauge(state, meas, base),
        "ntilde": _matrix_json(post.correlation),
        "k": _matrix_json(post.gain),
    }
    print(json.dumps(result))
    return 0


def cmd_er_general(args) -> int:
    alpha_m, _ = load_matrix_file(args.alpha, side=2)
    beta_m, _ = load_matrix_file(args.beta, side=2)
    for name, matrix in (("alpha", alpha_m), ("beta", beta_m)):
        if np.abs(matrix.imag).max(initial=0.0) > 0.0:
            raise ValueError(f"{name} must be a real covariance matrix")
    alpha = RealCovariance(alpha_m.real)
    beta = RealCovariance(beta_m.real)
    base = LogBase(args.base)
    meas = GeneralMeasurement(beta=beta)
    tilde = posterior_covariance(alpha, beta)
    result = {
        "schema": SCHEMA,
        "base": base.value,
        "er": entropy_reduction_general(alpha, meas, base),
        "alpha_tilde": _matrix_json(tilde.cov),
        "spectrum_alpha": alpha.spectrum.tolist(),
        "spectrum_alpha_tilde": tilde.spectrum.tolist(),
    }
    print(json.dumps(result))
    return 0


def cmd_capacity(args) -> int:
    noise, _ = load_matrix_file(args.noise, side=1)
    eps, _ = load_matrix_file(args.epsilon, side=1)
    base = LogBase(args.base)
    constraint = EnergyConstraint(hamiltonian=eps, budget=args.energy)
    report = cea_multimode(GaugeMeasurement(noise), constraint, base)
    result = {
        "schema": SCHEMA,
        "base": base.value,
        "cea": report.assisted,
        "c_unassisted": report.unassisted,
        "gain": report.gain,
        "optimizer_lambda": _matrix_json(report.best_state.correlation),
        "energy_used": report.energy_used,
        "energy_budget": constraint.budget,
        "converged": report.converged,
        "iterations": report.iterations,
        "grad_norm": report.grad_norm,
        "gap": report.gap,
    }
    print(json.dumps(result))
    return 0 if report.converged else 3


def load_sweep_spec(path: str):
    doc = _load_json(path)
    try:
        noises = [float(v) for v in doc["N"]]
        espec = doc["E"]
        count = espec["count"]
        emin, emax = float(espec["min"]), float(espec["max"])
        scale = espec.get("scale", "log")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: a sweep spec needs a list 'N' and an object 'E' with numeric "
            f"'min', 'max' and 'count' ({exc!r})"
        )
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"{path}: energy grid count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"{path}: energy grid count must be >= 1, got {count}")
    for name, energy in (("min", emin), ("max", emax)):
        if not 0.0 < energy < math.inf:
            raise ValueError(
                f"{path}: energy grid {name} must be positive and finite, got {energy}"
            )
    if scale not in ("log", "linear"):
        raise ValueError(f"{path}: grid scale must be 'log' or 'linear', got {scale!r}")
    if count == 1:
        energies = [emin]
    elif scale == "log":
        energies = list(np.geomspace(emin, emax, count))
    else:
        energies = list(np.linspace(emin, emax, count))
    base = LogBase.from_name(doc.get("base", "bits"))
    return noises, energies, base


def _distinct_text(column: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for every entry of a float column, as an object array,
    formatting each distinct value once.  Values are told apart by bit
    pattern, so that -0.0 and 0.0 keep their own text."""
    keys, index = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([fmt % v for v in keys.view(float).tolist()], dtype=object)[index]


def _sweep_csv(noise, energy, assisted, unassisted, gain) -> str:
    """The sweep table, given as its five float columns, as CSV."""
    values = [None] * (5 * len(noise))
    values[0::5] = _distinct_text(noise, _NUMBER).tolist()
    values[1::5] = _distinct_text(energy, _NUMBER).tolist()
    values[2::5] = assisted.tolist()
    values[3::5] = unassisted.tolist()
    values[4::5] = gain.tolist()
    return "N,E,C_ea,C,G\n" + _CSV_ROW * len(noise) % tuple(values)


def format_sweep_csv(rows) -> str:
    """The table of :class:`SweepPoint` rows as CSV, one ``_CSV_ROW`` each."""
    return _sweep_csv(*np.array(rows, dtype=float).reshape(len(rows), 5).T)


def _svg_chart(noise, energy, gain) -> str:
    """Line chart of the gain vs energy (log x axis), one polyline per noise,
    from the sweep's noise, energy and gain columns."""
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, 60
    # x is taken once per distinct energy
    distinct, at_energy = np.unique(energy.view(np.int64), return_inverse=True)
    xs = list(map(math.log10, distinct.view(float).tolist()))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, float(gain.max()) * 1.05
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    # px and py take a number for a tick or an array for a whole polyline,
    # with the same operations in the same order either way
    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" '
        f'stroke="black"/>',
    ]
    for exp in range(math.floor(x_lo), math.floor(x_hi) + 1):
        parts.append(
            f'<text x="{px(exp):.1f}" y="{height-margin+18}" font-size="11" '
            f'text-anchor="middle">1e{exp}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{margin-8}" y="{py(yv):.1f}" font-size="11" '
            f'text-anchor="end">{yv:.2f}</text>'
        )
    parts.append(
        f'<text x="{width/2:.0f}" y="{height-12}" font-size="12" '
        f'text-anchor="middle">E (log scale)</text>'
    )
    parts.append(
        f'<text x="16" y="{height/2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {height/2:.0f})">gain</text>'
    )
    x_text = np.array(["%.2f" % x for x in px(np.array(xs)).tolist()], dtype=object)
    pairs = list(map("%s,%.2f".__mod__, zip(x_text[at_energy].tolist(), py(gain).tolist())))
    # one curve per noise value, grouped by a dict on the value: -0.0 joins
    # 0.0, the first key inserted labels the curve, and the curves go in
    # increasing noise.  Rows of one noise come in runs, appended whole
    starts = np.flatnonzero(np.diff(noise, prepend=np.nan)).tolist()
    points = {}
    for start, end in zip(starts, starts[1:] + [len(pairs)]):
        points.setdefault(noise[start].item(), []).extend(pairs[start:end])
    for idx, value in enumerate(sorted(points)):
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(points[value])}"/>'
        )
        parts.append(
            f'<text x="{width-margin+6}" y="{margin+14*idx+10}" font-size="11" '
            f'fill="{color}">N={value:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_sweep(args) -> int:
    noises, energies, base = load_sweep_spec(args.spec)
    noise, energy, assisted, unassisted, gain = _sweep_columns(noises, energies, base)
    csv_text = _sweep_csv(noise, energy, assisted, unassisted, gain)
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_svg_chart(noise, energy, gain))
    return 0


def cmd_verify(args) -> int:
    names = list(CASES) if args.case == "all" else [args.case]
    results = run_cases(names, seed=args.seed)
    width = max(len(r.name) for r in results)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name:<{width}}  {status}  {res.detail}")
        all_passed &= res.passed
    return 0 if all_passed else 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="gaussmeter",
        description="Entropy reduction and assisted capacity of Gaussian measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("er-gauge", help="phase-insensitive entropy reduction")
    p.add_argument("--lambda", dest="lambda_file", required=True,
                   help="state correlation matrix (JSON)")
    p.add_argument("--noise", required=True, help="measurement noise matrix (JSON)")
    p.add_argument("--base", choices=["bits", "nats"], default="bits")

    p = sub.add_parser("er-general", help="general Gaussian entropy reduction")
    p.add_argument("--alpha", required=True, help="state covariance (JSON, 2s x 2s)")
    p.add_argument("--beta", required=True, help="noise covariance (JSON, 2s x 2s)")
    p.add_argument("--base", choices=["bits", "nats"], default="bits")

    p = sub.add_parser("capacity", help="energy-constrained assisted capacity")
    p.add_argument("--noise", required=True, help="measurement noise matrix (JSON)")
    p.add_argument("--epsilon", required=True, help="energy matrix (JSON)")
    p.add_argument("--energy", type=float, required=True, help="mean-energy budget")
    p.add_argument("--base", choices=["bits", "nats"], default="bits")

    p = sub.add_parser("sweep", help="one-mode capacity table")
    p.add_argument("--spec", required=True, help="sweep specification (JSON)")
    p.add_argument("--out", default="-", help="CSV output path ('-' for stdout)")
    p.add_argument("--svg", default=None, help="optional SVG chart path")

    p = sub.add_parser("verify", help="run Fock-engine cross-checks")
    p.add_argument("--case", choices=[*CASES, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so that a replaced cmd_* function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
