"""Command-line front end: shapes, analysis, flow runs, solitons, oracles.

Commands
--------
shape    build a named body and write it as a snapshot
analyze  entropy suite of a snapshot, as JSON
flow     integrate the flow; trace CSV + final snapshot + run manifest
soliton  drive a body to a self-similar endpoint; report as JSON
verify   run the named verification checks over the documented corpus
oracle   Monte Carlo cross-check of the log-integral against quadrature

File formats are deliberately plain: snapshots are schema-versioned JSON
(support values in fixed node order; floats serialized via ``repr`` so a
write/read round-trip is bit-exact), traces are CSV with the pinned header
of ``flow.TRACE_COLUMNS``.  Identical invocations produce byte-identical
outputs except for the ``created`` timestamp, which consumers should strip
before hashing.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 unreadable or malformed file, 4 numerical failure.  Thread count of the
underlying linear algebra follows the usual BLAS environment variables
(e.g. OMP_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .body import ConvexBody, make_shape
from .entropy import _z_score, entropy_report, mc_log_integral
from .errors import (
    BodyValidityError,
    GcflabError,
    ParameterError,
    SnapshotError,
)
from .flow import FlowConfig, harnack_monitor, run
from .soliton import solve_soliton
from .sphere import _KINDS, average, build_grid
from .verify import CHECK_NAMES, run_checks, suite_report

SNAPSHOT_SCHEMA = 1

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_INVALID_INPUT = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# snapshot and manifest I/O
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def snapshot_dict(body: ConvexBody, metadata: dict = None) -> dict:
    grid = body.grid
    return {
        "schema_version": SNAPSHOT_SCHEMA,
        "dim": grid.dim,
        "grid": dict(zip(grid._desk, grid.shape)),
        "support": [float(v) for v in body.support],
        "metadata": dict(metadata or {}),
    }


def write_snapshot(path, body: ConvexBody, metadata: dict = None):
    meta = dict(metadata or {})
    meta.setdefault("created", _timestamp())
    with open(path, "w") as fh:
        json.dump(snapshot_dict(body, meta), fh, indent=2)
        fh.write("\n")


def read_snapshot(path):
    """Load a snapshot; returns (body, metadata).

    Structural problems (bad schema, missing keys, node-count mismatch)
    raise SnapshotError; a support function that fails the body invariants
    raises BodyValidityError, which is an input problem, not a file one.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SnapshotError(f"{path}: expected a JSON object")
    if doc.get("schema_version") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"{path}: unsupported schema_version {doc.get('schema_version')!r}"
        )
    try:
        dim = doc["dim"]
        resolution = doc["grid"]
        support = np.asarray(doc["support"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: missing or malformed field ({exc})") from exc
    try:
        grid = build_grid(dim, **resolution)
    except (ParameterError, TypeError) as exc:
        raise SnapshotError(f"{path}: bad grid parameters ({exc})") from exc
    if support.shape != (grid.n_nodes,):
        raise SnapshotError(
            f"{path}: {support.size} support values for a {grid.n_nodes}-node grid"
        )
    return ConvexBody(grid, support), doc.get("metadata", {})


def write_manifest(path, command: str, config: dict, seeds, outputs):
    """Record what a run produced; every referenced output must exist."""
    missing = [str(p) for p in outputs if not Path(p).exists()]
    if missing:
        raise GcflabError(f"manifest lists missing outputs: {missing}")
    doc = {
        "tool": "gcflab",
        "version": __version__,
        "command": command,
        "config": config,
        "seeds": list(seeds),
        "outputs": [str(p) for p in outputs],
        "created": _timestamp(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _dump(doc, path=None):
    text = json.dumps(doc, indent=2, default=_jsonable)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _floats(text: str, count: int, what: str):
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"{what}: expected comma-separated numbers, got {text!r}") from exc
    if len(values) != count:
        raise ParameterError(f"{what}: expected {count} numbers, got {len(values)}")
    return values


def _parse_harmonic(grid, entry: str):
    """One --harmonic entry, in the grid kind's form ``grid._spec``."""
    try:
        return grid._parse_spec(entry)
    except ValueError as exc:
        raise ParameterError(f"--harmonic {entry!r}: expected {grid._spec!r} ({exc})") from exc


def _make_grid(args):
    """The --dim grid: a size flag left unset takes the kind's desk size, and a
    size of another kind reaches build_grid, which rejects it."""
    sizes = dict(_KINDS[args.dim]._desk)
    for kind in _KINDS.values():
        sizes.update({s: getattr(args, s) for s in kind._desk if getattr(args, s) is not None})
    return build_grid(args.dim, **sizes)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_shape(args) -> int:
    grid = _make_grid(args)
    if args.ellipsoid:
        semiaxes = _floats(args.ellipsoid, args.dim + 1, "--ellipsoid")
        body = make_shape(grid, "ellipsoid", semiaxes=semiaxes, normalize=args.normalize)
        label = f"ellipsoid{semiaxes}"
    elif args.harmonic:
        modes = [_parse_harmonic(grid, s) for s in args.harmonic]
        body = make_shape(grid, "harmonic", base=args.base, modes=modes,
                          normalize=args.normalize)
        label = f"harmonic{modes}"
    elif args.random_seed is not None:
        body = make_shape(grid, "random_valid", seed=args.random_seed,
                          amplitude=args.amplitude, normalize=args.normalize)
        label = f"random(seed={args.random_seed})"
    elif args.center:
        center = _floats(args.center, args.dim + 1, "--center")
        body = make_shape(grid, "translated_ball", radius=args.ball, center=center,
                          normalize=args.normalize)
        label = f"ball({args.ball})+{center}"
    else:
        body = make_shape(grid, "ball", radius=args.ball, normalize=args.normalize)
        label = f"ball({args.ball})"
    write_snapshot(args.out, body, {"shape": label})
    print(f"wrote {args.out}: dim {args.dim}, {grid.n_nodes} nodes, volume {body.volume()!r}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    body, _ = read_snapshot(args.snapshot)
    report = entropy_report(body)
    doc = asdict(report)
    doc["all_checks_pass"] = report.all_ok()
    _dump(doc, args.out)
    return EXIT_OK


def _flow_config(args) -> FlowConfig:
    return FlowConfig(
        mode=args.mode,
        t_end=args.t_end,
        project_volume=False if args.no_project else None,
        output_stride=args.output_stride,
        soliton_tol=args.soliton_tol,
        fixed_dt=args.fixed_dt,
        recenter=args.recenter,
    )


def cmd_flow(args) -> int:
    body, _ = read_snapshot(args.snapshot)
    cfg = _flow_config(args)
    trace, final = run(body, cfg)
    trace.to_csv(args.trace)
    t_final = float(trace.t[-1])
    write_snapshot(
        args.final, final,
        {"flow_time": t_final, "mode": cfg.mode, "converged": trace.converged},
    )
    outputs = [args.trace, args.final]
    summary = {
        "t_final": t_final,
        "steps": trace.steps,
        "rejections": trace.rejections,
        "converged": trace.converged,
        "soliton_residual": trace.last("soliton_residual"),
    }
    if cfg.mode == "unnormalized" and len(trace.rows) >= 3:
        summary["harnack"] = asdict(harnack_monitor(trace))
    _dump(summary)
    write_manifest(args.manifest, "flow", asdict(cfg), [], outputs)
    return EXIT_OK


def cmd_soliton(args) -> int:
    body, _ = read_snapshot(args.snapshot)
    final, report = solve_soliton(body, tol=args.tol, t_end=args.t_end)
    write_snapshot(
        args.final, final,
        {"flow_time": report.t_final, "converged": report.converged},
    )
    doc = asdict(report)
    doc["final_snapshot"] = str(args.final)
    _dump(doc, args.out)
    write_manifest(args.manifest, "soliton",
                   {"tol": args.tol, "t_end": args.t_end}, [], [args.final])
    return EXIT_OK


def cmd_verify(args) -> int:
    only = args.only.split(",") if args.only else None
    k_scale = 0.98 if args.inject_bug else 1.0
    results = run_checks(only=only, seed=args.seed, k_scale=k_scale)
    for result in results:
        print(result.line())
    if args.out:
        _dump(suite_report(results, args.seed), args.out)
    all_pass = all(r.ok for r in results)
    print(f"{'all checks pass' if all_pass else 'SUITE FAILED'} "
          f"({sum(r.ok for r in results)}/{len(results)})")
    return EXIT_OK if all_pass else EXIT_SUITE_FAIL


def cmd_oracle(args) -> int:
    body, _ = read_snapshot(args.snapshot)
    z = _floats(args.z, body.dim + 1, "--z") if args.z else np.zeros(body.dim + 1)
    # raises ParameterError unless z is interior and the seed and sample count are valid
    estimate, stderr = mc_log_integral(body, z=z, samples=args.samples, seed=args.seed)
    quadrature = float(average(body.grid, np.log(body.support_about(z)))) * body.grid.area
    z_score = _z_score(estimate - quadrature, stderr)
    agree = bool(z_score <= 3.0)
    _dump({
        "quadrature": quadrature,
        "mc_estimate": estimate,
        "mc_stderr": stderr,
        "z_score": z_score,
        "samples": args.samples,
        "seed": args.seed,
        "agree_3sigma": agree,
    }, args.out)
    return EXIT_OK if agree else EXIT_SUITE_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_grid_flags(p):
    p.add_argument("--dim", type=int, choices=tuple(_KINDS), required=True)
    for dim, kind in _KINDS.items():
        for size, desk in kind._desk.items():
            p.add_argument(f"--{size.replace('_', '-')}", type=int,
                           help=f"S^{dim} grid size (default {desk})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcflab",
        description="Gauss curvature flow laboratory for convex bodies",
    )
    parser.add_argument("--version", action="version", version=f"gcflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shape", help="build a body and write a snapshot")
    _add_grid_flags(p)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--ellipsoid", metavar="A,B[,C]", help="semiaxes")
    kind.add_argument("--harmonic", action="append", metavar="SPEC",
                      help=", ".join(f"{k._spec!r} on S^{d}" for d, k in _KINDS.items())
                      + "; repeatable")
    kind.add_argument("--random-seed", type=int, metavar="SEED",
                      help="seeded random valid body")
    p.add_argument("--ball", type=float, default=1.0, metavar="R",
                   help="ball radius (default shape)")
    p.add_argument("--center", metavar="X,Y[,Z]", help="translate the ball")
    p.add_argument("--base", type=float, default=1.0, help="harmonic base level")
    p.add_argument("--amplitude", type=float, default=0.3, help="random-shape size")
    p.add_argument("--normalize", action="store_true", help="rescale to unit-ball volume")
    p.add_argument("--out", default="shape.json")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("analyze", help="entropy suite of a snapshot")
    p.add_argument("snapshot")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("flow", help="integrate the flow from a snapshot")
    p.add_argument("snapshot")
    p.add_argument("--mode", choices=("normalized", "unnormalized"), default="normalized")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--soliton-tol", type=float, default=1e-6)
    p.add_argument("--output-stride", type=int, default=10)
    p.add_argument("--fixed-dt", type=float, default=None)
    p.add_argument("--recenter", action="store_true",
                   help="keep the Steiner point at the origin (no degree-1 velocity)")
    p.add_argument("--no-project", action="store_true",
                   help="disable the volume projection (normalized mode)")
    p.add_argument("--trace", default="trace.csv")
    p.add_argument("--final", default="final.json")
    p.add_argument("--manifest", default="run_manifest.json")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("soliton", help="relax a snapshot to a self-similar endpoint")
    p.add_argument("snapshot")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--final", default="soliton.json")
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.add_argument("--manifest", default="run_manifest.json")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", metavar="NAME[,NAME...]",
                   help=f"subset of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the machine-readable report here")
    p.add_argument("--inject-bug", action="store_true",
                   help="negative control: deliberately mis-scale the curvature")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="Monte Carlo cross-check of the log integral")
    p.add_argument("snapshot")
    p.add_argument("--z", metavar="X,Y[,Z]", help="reference point (default origin)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BodyValidityError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GcflabError as exc:  # StiffnessError, SolverError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
