"""Command-line surface: measure, sweep, verify, plot-gain, risk-aversion.

Input is one self-describing JSON document holding either a prior plus a
channel or a joint matrix::

    {"p_x": [0.5, 0.5], "channel": [[0.9, 0.1], [0.1, 0.9]]}
    {"joint": [[0.45, 0.05], [0.05, 0.45]]}

Labels are optional (``labels_x``/``labels_y``, defaulting to x0..,
y0..).  All outputs are in nats (flagged in every header), rendered
with 12 significant digits, as JSON (default) or CSV.  Exit codes:
0 success, 1 verification failure, 2 input error.

The environment variable ``ALPHALEAK_OUTPUT_DIR`` may set the directory
that relative ``--out`` paths resolve against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import AlphaleakError, InvalidOrder, ParseError, ValidationError
from .leakage import alpha_mi_via_leakage, arrow_pratt
from .optimize import DEFAULT_CONFIG
from .qcalc import q_log
from .renyi import MiVariant, _check_alpha, alpha_mi
from .simplex import Channel, JointDist, Pmf, joint_from_matrix, make_channel, make_pmf
from .verify import DEFAULT_ALPHAS, DEFAULT_SIZES, DEFAULT_TOLERANCES, run_verify

OUTPUT_DIR_ENV = "ALPHALEAK_OUTPUT_DIR"
_PLOT_INF_PROXY = 1e6  # stands in for the infinite-order column


def load_distribution(path):
    """Read a distribution document: (Pmf, Channel) or a JointDist."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    labels_x = doc.get("labels_x")
    labels_y = doc.get("labels_y")
    try:
        if "joint" in doc:
            return joint_from_matrix(doc["joint"], labels_x, labels_y)
        if "p_x" in doc and "channel" in doc:
            p = make_pmf(doc["p_x"], labels=labels_x)
            W = make_channel(doc["channel"], x_labels=p.labels, y_labels=labels_y)
            return p, W
    except AlphaleakError as e:
        raise ValidationError(str(e)) from e
    raise ParseError(f"{path}: need either 'joint' or 'p_x'+'channel'")


def serialize_distribution(obj) -> dict:
    """Full-precision document; load(serialize(x)) is bit-identical."""
    if isinstance(obj, JointDist):
        return {
            "labels_x": list(obj.x_labels),
            "labels_y": list(obj.y_labels),
            "joint": [[float(v) for v in row] for row in obj.matrix],
        }
    p, W = obj
    return {
        "labels_x": list(p.labels),
        "labels_y": list(W.y_labels),
        "p_x": [float(v) for v in p.probs],
        "channel": [[float(v) for v in row] for row in W.matrix],
    }


def save_distribution(obj, path):
    with open(path, "w") as fh:
        json.dump(serialize_distribution(obj), fh, indent=2)
        fh.write("\n")


def _as_pair(dist) -> tuple[Pmf, Channel]:
    if isinstance(dist, JointDist):
        return dist.decompose()
    return dist


def _sig12(v: float) -> float:
    return float(f"{v:.12g}")


def _parse_alphas(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise ParseError(f"bad alpha list {text!r}") from e


def _parse_variants(text: str) -> list[MiVariant]:
    if text == "all":
        return list(MiVariant)
    try:
        return [MiVariant(t.strip()) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise ParseError(f"unknown variant in {text!r}") from e


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(t) for t in text.split(","))
        if min(sizes) < 1:
            raise ValueError("alphabet sizes must be positive")
    except ValueError as e:
        raise ParseError(f"bad size list {text!r}: {e}") from e
    return sizes


def _parse_overrides(text: str) -> dict[str, float]:
    """A JSON object mapping known identity ids to tolerances >= 0."""
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad tolerance overrides: {e}") from e
    if not isinstance(overrides, dict):
        raise ParseError(f"tolerance overrides must be a JSON object, got {text!r}")
    for key, value in overrides.items():
        if key not in DEFAULT_TOLERANCES:
            raise ParseError(f"unknown identity id {key!r} in tolerance overrides")
        if type(value) not in (int, float) or not value >= 0.0:
            raise ParseError(f"tolerance of {key!r} must be a number >= 0, got {value!r}")
    return overrides


def _domain_error(variant: MiVariant, alpha: float) -> str | None:
    try:
        _check_alpha(alpha, variant)
    except InvalidOrder as e:
        return str(e)
    return None


def _split_domain(variants, alphas) -> tuple[list, list[dict]]:
    """(variant, orders inside its domain) per variant, and the skipped
    pairs.  An order no requested variant accepts is kept, so that it
    still fails as an input error."""
    plan, skipped = [], []
    for variant in variants:
        keep = []
        for alpha in alphas:
            reason = _domain_error(variant, alpha)
            if reason is None or all(_domain_error(v, alpha) for v in variants):
                keep.append(alpha)
            else:
                skipped.append({"variant": variant.value, "alpha": alpha, "reason": reason})
        plan.append((variant, keep))
    return plan, skipped


def run_measure(dist, variants, alphas, method: str, via_leakage: bool, cfg) -> list[dict]:
    """One row per (variant, alpha): value in nats plus diagnostics."""
    p, W = _as_pair(dist)
    rows = []
    for variant in variants:
        for alpha in alphas:
            t0 = time.perf_counter()
            if via_leakage:
                value = alpha_mi_via_leakage(variant, p, W, alpha,
                                             method="auto" if method == "closed_form" else method,
                                             cfg=cfg)
            else:
                value = alpha_mi(variant, p, W, alpha, method=method, cfg=cfg)
            wall = time.perf_counter() - t0
            residual = 0.0 if method == "closed_form" else (
                cfg.grid_resolution if method == "oracle" else cfg.tolerance
            )
            rows.append({
                "variant": variant.value if isinstance(variant, MiVariant) else str(variant),
                "alpha": alpha,
                "value_nats": _sig12(value),
                "method": ("via_leakage:" if via_leakage else "") + method,
                "residual": residual,
                "wall_time_s": round(wall, 6),
            })
    return rows


def _emit(rows: list[dict], fmt: str, out, header_note: str = "units: nats",
          skipped: list[dict] | None = None):
    if fmt == "json":
        doc = {"units": "nats", "rows": rows}
        if skipped is not None:
            doc["skipped"] = skipped
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    # csv
    out.write(f"# {header_note}\n")
    for s in skipped or ():
        out.write(f"# skipped: {s['variant']} alpha={s['alpha']:.12g} ({s['reason']})\n")
    if not rows:
        return
    cols = list(rows[0].keys())
    out.write(",".join(cols) + "\n")
    for row in rows:
        out.write(",".join(
            f"{v:.12g}" if isinstance(v, float) else str(v) for v in (row[c] for c in cols)
        ) + "\n")


def _open_out(path):
    if path is None:
        return sys.stdout, False
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return open(path, "w"), True


def emit_plot_gain(alphas, grid: int, include_risk: bool = False) -> list[dict]:
    """Transformed-gain curves r -> q_log(r, 1/alpha) on r = k/grid."""
    if grid < 2:
        raise ValidationError("grid must be at least 2")
    if any(not a > 0.0 for a in alphas):
        raise InvalidOrder("curve orders must be positive")
    rows = []
    for k in range(1, grid + 1):
        r = k / grid
        row = {"r": _sig12(r)}
        for alpha in alphas:
            q = 0.0 if np.isinf(alpha) else 1.0 / alpha
            row[f"g[alpha={alpha:g}]"] = _sig12(float(q_log(r, q)))
        if include_risk:
            for alpha in alphas:
                if np.isinf(alpha):
                    row[f"A[alpha={alpha:g}]"] = 0.0
                else:
                    row[f"A[alpha={alpha:g}]"] = _sig12(arrow_pratt(alpha, r, "closed"))
        rows.append(row)
    return rows


def emit_risk_aversion(alphas, grid: int, mode: str = "both") -> list[dict]:
    """Arrow-Pratt risk aversion of the transformed gain on r = k/grid."""
    if grid < 2:
        raise ValidationError("grid must be at least 2")
    rows = []
    for k in range(1, grid + 1):
        r = k / grid
        row = {"r": _sig12(r)}
        for alpha in alphas:
            if mode in ("closed", "both"):
                row[f"A_closed[alpha={alpha:g}]"] = _sig12(arrow_pratt(alpha, r, "closed"))
            if mode in ("finite_diff", "both") and r >= 1e-3:
                row[f"A_fd[alpha={alpha:g}]"] = _sig12(arrow_pratt(alpha, r, "finite_diff"))
        rows.append(row)
    return rows


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alphaleak",
        description="order-alpha information measures and leakage representations (nats)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def solver(p):
        p.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tolerance)
        p.add_argument("--grid-res", type=float, default=DEFAULT_CONFIG.grid_resolution)
        p.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
        common(p)

    m = sub.add_parser("measure", help="compute measures on one input")
    m.add_argument("--input", required=True)
    m.add_argument("--variant", default="all")
    m.add_argument("--alpha", default="2.0")
    m.add_argument("--method", choices=("closed_form", "optimize", "oracle"),
                   default="closed_form")
    m.add_argument("--via-leakage", action="store_true")
    solver(m)

    s = sub.add_parser("sweep", help="alpha sweep across variants")
    s.add_argument("--input", required=True)
    s.add_argument("--variant", default="all")
    s.add_argument("--alpha", default="0.3,0.6,2.0,4.0")
    s.add_argument("--method", choices=("closed_form", "optimize", "oracle"),
                   default="closed_form")
    s.add_argument("--via-leakage", action="store_true")
    solver(s)

    v = sub.add_parser("verify", help="run the identity-verification suite")
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--alpha", default=",".join(str(a) for a in DEFAULT_ALPHAS))
    v.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES))
    v.add_argument("--tolerance-overrides", default=None,
                   help="JSON object mapping identity ids to tolerances")
    solver(v)

    g = sub.add_parser("plot-gain", help="emit transformed-gain curve data")
    g.add_argument("--alpha", default="0.5,1,2,5,1000000")
    g.add_argument("--grid", type=int, default=100)
    g.add_argument("--risk-aversion", action="store_true",
                   help="append closed-form risk-aversion columns")
    common(g)

    r = sub.add_parser("risk-aversion", help="emit risk-aversion table")
    r.add_argument("--alpha", default="0.5,1,2,5")
    r.add_argument("--grid", type=int, default=20)
    r.add_argument("--mode", choices=("closed", "finite_diff", "both"), default="both")
    common(r)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("measure", "sweep", "verify"):
            cfg = DEFAULT_CONFIG.with_(tolerance=args.tol, grid_resolution=args.grid_res,
                                       seed=args.seed)
        if args.command in ("measure", "sweep"):
            dist = load_distribution(args.input)
            variants = _parse_variants(args.variant)
            alphas = _parse_alphas(args.alpha)
            if args.variant == "all":
                plan, skipped = _split_domain(variants, alphas)
            else:
                plan, skipped = [(v, alphas) for v in variants], []
            rows = [row for variant, keep in plan
                    for row in run_measure(dist, [variant], keep, args.method,
                                           args.via_leakage, cfg)]
            out, close = _open_out(args.out)
            _emit(rows, args.output, out, skipped=skipped)
            if close:
                out.close()
            return 0
        if args.command == "verify":
            overrides = None
            if args.tolerance_overrides:
                overrides = _parse_overrides(args.tolerance_overrides)
            report = run_verify(
                trials=args.trials, seed=args.seed,
                sizes=_parse_sizes(args.sizes),
                alphas=tuple(_parse_alphas(args.alpha)),
                tolerances=overrides, cfg=cfg,
            )
            out, close = _open_out(args.out)
            if args.output == "json":
                json.dump(report.to_dict(), out, indent=2)
                out.write("\n")
            else:
                rows = [  # one row per record
                    {k: (f"{v:.12g}" if isinstance(v, float) else v)
                     for k, v in vars(rec).items()}
                    for rec in report.records
                ]
                _emit(rows, "csv", out)
            if close:
                out.close()
            summary = report.summary()
            print(
                f"verify: {summary['total'] - summary['failures']}/{summary['total']} "
                f"checks passed (seed={report.seed}, trials={report.trials})",
                file=sys.stderr,
            )
            for rec in report.failures[:20]:
                print(
                    f"  FAIL {rec.identity} [{rec.instance}] lhs={rec.lhs:.12g} "
                    f"rhs={rec.rhs:.12g} err={rec.abs_err:.3g} tol={rec.tolerance:.3g}",
                    file=sys.stderr,
                )
            return 0 if report.passed else 1
        if args.command == "plot-gain":
            alphas = _parse_alphas(args.alpha)
            rows = emit_plot_gain(alphas, args.grid, include_risk=args.risk_aversion)
            out, close = _open_out(args.out)
            _emit(rows, args.output, out)
            if close:
                out.close()
            return 0
        if args.command == "risk-aversion":
            alphas = _parse_alphas(args.alpha)
            rows = emit_risk_aversion(alphas, args.grid, args.mode)
            out, close = _open_out(args.out)
            _emit(rows, args.output, out)
            if close:
                out.close()
            return 0
        raise ParseError(f"unknown command {args.command!r}")
    except AlphaleakError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
