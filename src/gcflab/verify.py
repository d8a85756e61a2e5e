"""End-to-end verification suite shared by ``gcflab verify`` and the tests.

Each named check exercises one documented claim of the package at desk
scale (S^1 at 256 nodes, S^2 at 32 x 64) and returns a small result record
with a headline number, so the CLI can print one line per check and emit a
machine-readable report.  The corpus of bodies and every random draw are
seeded, which makes the suite reproducible run to run.

The twenty-body corpus is volume-normalized and translation-free: the
random shapes start their spectra at degree 2, so the origin sits within
O(amplitude^2) of the entropy point and the full entropy chain, including
the origin-anchored term, holds with quantifiable margin.  Translated
bodies are exercised by the checks where translation is the point (the
gauge tests in the flow suite), not by the chain check.

``k_scale`` deliberately mis-scales the curvature used by the entropy
chain check.  It exists as a negative control: ``k_scale=0.98`` must make
the suite fail, demonstrating that the harness can reject a broken build.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .body import ConvexBody, make_shape
from .constants import ball_volume
from .entropy import (
    _z_score,
    chow_entropy,
    entropy_point,
    firey_entropy,
    mc_log_integral,
    mc_polar_mass_center,
)
from .errors import ParameterError, _check_integer
from .flow import (
    FlowConfig,
    dissipation_identity_residual,
    harnack_monitor,
    monitor_bounds,
    run,
)
from .soliton import (
    j1_first_variation,
    j1_value,
    remove_first_harmonics,
    solve_soliton,
    stability_form,
)
from .sphere import _KINDS, average, build_grid


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: a verdict, a headline number, prose."""

    name: str
    ok: bool
    value: float
    detail: str
    elapsed: float

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict}  {self.name:<22} {self.value:12.4e}  {self.detail}"


@lru_cache(maxsize=None)
def desk_grid(dim: int):
    """The fixed desk-scale grid for each dimension."""
    return build_grid(dim, **_KINDS[dim]._desk)


def corpus():
    """The documented twenty-body corpus: (label, body) pairs.

    Two ball fixtures, an ellipse/ellipsoid pair, a harmonic pair, and
    seven seeded random bodies per dimension; all volume-normalized, all
    free of degree-1 content (see the module docstring).
    """
    g1, g2 = desk_grid(1), desk_grid(2)
    bodies = [
        ("ball-1", make_shape(g1, "ball")),
        ("ball-2", make_shape(g2, "ball")),
        ("ellipse-3:2", make_shape(g1, "ellipsoid", semiaxes=(1.5, 1.0), normalize=True)),
        ("ellipsoid-2", make_shape(g2, "ellipsoid", semiaxes=(1.3, 1.0, 0.85), normalize=True)),
        ("wavy-1", make_shape(g1, "harmonic", modes=((2, 0.10, 0.05), (3, 0.0, 0.04)), normalize=True)),
        ("wavy-2", make_shape(g2, "harmonic", modes=((2, 1, 0.08), (4, 2, 0.03)), normalize=True)),
    ]
    for seed in range(11, 18):
        bodies.append((f"random-1-s{seed}", make_shape(g1, "random_valid", seed=seed, normalize=True)))
    for seed in range(21, 28):
        bodies.append((f"random-2-s{seed}", make_shape(g2, "random_valid", seed=seed, normalize=True)))
    return bodies


# ---------------------------------------------------------------------------
# shared flow runs
# ---------------------------------------------------------------------------

# label -> t_end; five normalized corpus runs reused by the monotonicity and
# monitor checks.  Those checks read every recorded row, so these runs and the
# shrinking-ball, Harnack and fixed-point runs record every accepted step
# (output_stride=1): a monotonicity claim is checked at each step.
_FLOW_CASES = {
    "ellipse-3:2": 1.2,
    "wavy-1": 1.2,
    "random-1-s11": 1.2,
    "ellipsoid-2": 0.8,
    "random-2-s21": 0.8,
}


@lru_cache(maxsize=1)
def corpus_runs():
    """The five corpus runs as (label, trace, final body) triples; shared with
    the flow tests."""
    by_label = dict(corpus())
    runs = []
    for label, t_end in _FLOW_CASES.items():
        cfg = FlowConfig(mode="normalized", t_end=t_end, output_stride=1, soliton_tol=0.0)
        runs.append((label, *run(by_label[label], cfg)))
    return tuple(runs)


@lru_cache(maxsize=None)
def shrinking_ball_run(dim: int):
    """The shrinking-ball check's run: (trace, final body), to 0.8 of extinction."""
    cfg = FlowConfig(mode="unnormalized", t_end=0.8 / (dim + 1), output_stride=1)
    return run(make_shape(desk_grid(dim), "ball"), cfg)


@lru_cache(maxsize=None)
def dissipation_run(spacing: float):
    """The dissipation-identity check's trace with records every ``spacing``
    (1e-3 or 5e-4): fixed ETDRK4 steps of that size, each one recorded."""
    modes = ((2, 0.03, 0.0), (4, 0.0, 0.01))
    body = make_shape(desk_grid(1), "harmonic", modes=modes, normalize=True)
    cfg = FlowConfig(mode="normalized", t_end=0.3, fixed_dt=spacing, output_stride=1,
                     soliton_tol=0.0)
    return run(body, cfg)[0]


@lru_cache(maxsize=1)
def round_convergence_run():
    """The round-convergence check's run to tol 1e-5: (trace, final body)."""
    semiaxes = (1.2, 1.0, 1.0 / 1.2)
    body = make_shape(desk_grid(2), "ellipsoid", semiaxes=semiaxes, normalize=True)
    cfg = FlowConfig(mode="normalized", t_end=20.0, soliton_tol=1e-5, output_stride=50)
    return run(body, cfg)


@lru_cache(maxsize=None)
def fixed_point_run(dim: int):
    """The unit ball flowed in normalized mode to t = 5 with no early stop;
    returns (trace, final body).  Shared by the fixed-point check and the
    flow tests."""
    cfg = FlowConfig(mode="normalized", t_end=5.0, soliton_tol=0.0, output_stride=1)
    return run(make_shape(desk_grid(dim), "ball"), cfg)


@lru_cache(maxsize=1)
def soliton_solves():
    """The soliton-report solves: an even random dim-1 body and an asymmetric
    dim-2 harmonic body, both flowed to tol 1e-5 within t = 15.  Returns a
    (final body, SolitonReport) pair per body; shared with the soliton tests.
    """
    g1, g2 = desk_grid(1), desk_grid(2)
    cases = (
        make_shape(g1, "random_valid", seed=5, amplitude=0.15, parity="even", normalize=True),
        make_shape(g2, "harmonic", modes=((3, 1, 0.05), (3, -2, 0.03)), normalize=True),
    )
    return tuple(solve_soliton(body, tol=1e-5, t_end=15.0) for body in cases)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _check_fixed_point(seed, k_scale):
    worst = 0.0
    for dim in (1, 2):
        trace, final = fixed_point_run(dim)
        drift = max(
            float(np.max(np.abs(trace.column("u_min") - 1.0))),
            float(np.max(np.abs(trace.column("u_max") - 1.0))),
            float(np.max(np.abs(final.support - 1.0))),
        )
        worst = max(worst, drift)
    return worst <= 1e-10, worst, "sup |u - 1| over t in [0, 5] from the round start, both dims"


def _check_shrinking_ball(seed, k_scale):
    worst_err = 0.0
    worst_t = 0.0
    for dim in (1, 2):
        trace, _ = shrinking_ball_run(dim)
        radius = (1.0 - (dim + 1) * trace.t) ** (1.0 / (dim + 1))
        err = max(
            float(np.max(np.abs(trace.column("u_min") - radius))),
            float(np.max(np.abs(trace.column("u_max") - radius))),
        )
        t_rel = abs(harnack_monitor(trace).t_extinction_estimate * (dim + 1) - 1.0)
        worst_err = max(worst_err, err)
        worst_t = max(worst_t, t_rel)
    ok = worst_err <= 1e-7 and worst_t <= 0.01
    return ok, worst_err, f"max closed-form radius error; extinction-time rel. error {worst_t:.2e}"


def _check_entropy_chain(seed, k_scale):
    slack = np.inf
    smallest = np.inf
    ball_ok = True
    for label, body in corpus():
        e_c = chow_entropy(body) + float(np.log(k_scale))
        e = entropy_point(body)[1]
        e_f = firey_entropy(body)
        slack = min(slack, e_c - e, e - e_f, e_f)
        if label.startswith("ball"):
            ball_ok = ball_ok and abs(e) <= 1e-12
        else:
            smallest = min(smallest, e)
    ok = slack >= -1e-8 and ball_ok and smallest > 1e-7
    detail = f"min chain slack over 20 bodies; smallest non-ball entropy {smallest:.2e}"
    if k_scale != 1.0:
        detail += f" [curvature deliberately mis-scaled by {k_scale}]"
    return ok, float(slack), detail


def _check_entropy_monotone(seed, k_scale):
    worst_rise = -np.inf
    worst_gap = -np.inf
    for label, trace, _ in corpus_runs():
        values = {c.name: c.value for c in monitor_bounds(trace).checks}
        worst_rise = max(worst_rise, values["entropy-monotone"])
        worst_gap = max(worst_gap, values["dissipation-integral-dominates"])
    ok = worst_rise <= 1e-9 and worst_gap <= 1e-6
    return ok, worst_rise, (
        f"max recorded entropy increase over 5 runs; integrated-inequality rise {worst_gap:.2e}"
    )


def _check_dissipation_identity(seed, k_scale):
    # the residual is dominated by the O(spacing^2) error of differencing the
    # records; the step's own error lies far below it
    res = {h: dissipation_identity_residual(dissipation_run(h)) for h in (1e-3, 5e-4)}
    ratio = res[1e-3] / res[5e-4]
    ok = res[1e-3] <= 1e-4 and ratio >= 3.99
    return ok, res[1e-3], (
        f"identity residual at record spacing 1e-3; halving the spacing reduces it {ratio:.4f}x"
    )


def _check_round_convergence(seed, k_scale):
    trace, final = round_convergence_run()
    resid = trace.last("soliton_residual")
    round_err = float(np.max(np.abs(final.support - 1.0)))
    ok = trace.converged and resid <= 1e-5 and round_err <= 1e-3
    return ok, round_err, (
        f"sup |u - 1| at stop; residual {resid:.2e} reached at t = {trace.t[-1]:.3f} <= 20"
    )


def _check_monitor_bounds(seed, k_scale):
    grad_slack = np.inf
    failed = []
    for label, trace, _ in corpus_runs():
        report = monitor_bounds(trace)
        failed += [f"{label}:{c.name}" for c in report.checks if not c.ok]
        grad_slack = min(grad_slack, trace.gradient_slack)
    harnack_slack = np.inf
    ellipse = make_shape(desk_grid(1), "ellipsoid", semiaxes=(1.2, 0.9))
    traces = {
        "ball": shrinking_ball_run(2)[0],  # the shrinking-ball check's run
        "ellipsoid": run(ellipse, FlowConfig(mode="unnormalized", t_end=0.35, output_stride=1))[0],
    }
    for kind, trace in traces.items():
        h = harnack_monitor(trace)
        harnack_slack = min(harnack_slack, h.worst_monotonicity_slack)
        if h.lower_constant <= 0.0:
            failed.append(f"harnack-{kind}:lower")
    ok = not failed and grad_slack >= -1e-8 and harnack_slack >= -1e-6
    detail = (
        f"min gradient-bound slack; Harnack monotonicity slack {harnack_slack:.2e}"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )
    return ok, float(grad_slack), detail


_MC_LABELS = (
    "ball-1", "ellipse-3:2", "wavy-1", "random-1-s11", "random-1-s12",
    "ball-2", "ellipsoid-2", "wavy-2", "random-2-s21", "random-2-s22",
)


def _check_mc_oracle(seed, k_scale):
    by_label = dict(corpus())
    worst = 0.0
    for i, label in enumerate(_MC_LABELS):
        body = by_label[label]
        quad = float(average(body.grid, np.log(body.support))) * body.grid.area
        est, se = mc_log_integral(body, samples=100_000, seed=seed + i)
        worst = max(worst, _z_score(est - quad, se))
    for j, label in enumerate(("random-1-s13", "random-2-s22")):
        body = by_label[label]
        # the polar mass center vanishes at the entropy point
        m, se = mc_polar_mass_center(body, entropy_point(body)[0], samples=100_000,
                                     seed=seed + 100 + j)
        worst = max(worst, _z_score(m, se))
    return worst <= 3.0, worst, "largest z-score: 10 log-integral oracles + 2 mass-center checks"


def _check_soliton_report(seed, k_scale):
    worst_origin = 0.0
    worst_dual = np.inf
    all_converged = True
    for final, report in soliton_solves():
        all_converged = all_converged and report.converged
        worst_dual = min(worst_dual, report.dual_volume_at_origin - ball_volume(final.dim))
        g = final.grid
        origin_cond = max(
            abs(float(average(g, g._linear(e) / final.support))) for e in np.eye(final.dim + 1)
        )
        worst_origin = max(worst_origin, origin_cond)
    ok = all_converged and worst_dual >= -1e-6 and worst_origin <= 1e-6
    return ok, worst_origin, (
        f"max origin condition |avg x_j/u| at 2 endpoints; dual-volume slack {worst_dual:.2e}"
    )


def _check_stability_form(seed, k_scale):
    rng = np.random.default_rng(seed + 17)
    margin = np.inf
    ok = True
    for dim in (1, 2):
        g = desk_grid(dim)
        bound = 2 * (dim + 1) - (dim + 1) - 1e-6  # second nonzero Laplace eigenvalue is 2(n+1)
        for _ in range(25):
            eta = remove_first_harmonics(g, g.lowpass(rng.normal(size=g.n_nodes), 0.5))
            margin = min(margin, stability_form(g, eta) - bound * float(average(g, eta * eta)))
        ok = ok and stability_form(g, g._linear(np.eye(dim + 1)[0])) < 0.0
        const = 0.7 * np.ones(g.n_nodes)
        ok = ok and abs(stability_form(g, const) - (dim + 1) ** 2 * 0.49) <= 1e-9
    ok = ok and margin >= 0.0
    return ok, float(margin), (
        "min spectral-gap margin over 50 projected directions; "
        "translation directions negative, constants exact"
    )


def _check_first_variation(seed, k_scale):
    rng = np.random.default_rng(seed + 23)
    worst = 0.0
    ball_resid = 0.0
    eps = 1e-5
    for dim in (1, 2):
        g = desk_grid(dim)
        for i in range(5):
            body = make_shape(
                g, "random_valid", seed=1000 + 31 * dim + i, amplitude=0.2, normalize=True
            )
            rho = g.lowpass(rng.normal(size=g.n_nodes), 0.5)
            rho /= float(np.max(np.abs(rho)))
            fd = (
                j1_value(ConvexBody(g, body.support + eps * rho))
                - j1_value(ConvexBody(g, body.support - eps * rho))
            ) / (2.0 * eps)
            worst = max(worst, abs(j1_first_variation(body, rho) - fd))
        ball = make_shape(g, "ball")
        ball_resid = max(ball_resid, abs(j1_first_variation(ball, rho)))
    ok = worst <= 1e-7 and ball_resid <= 1e-9
    return ok, worst, (
        f"max |analytic - finite difference| over 10 pairs; round-body residual {ball_resid:.2e}"
    )


_CHECKS = {
    "fixed-point": _check_fixed_point,
    "shrinking-ball": _check_shrinking_ball,
    "entropy-chain": _check_entropy_chain,
    "entropy-monotone": _check_entropy_monotone,
    "dissipation-identity": _check_dissipation_identity,
    "round-convergence": _check_round_convergence,
    "monitor-bounds": _check_monitor_bounds,
    "mc-oracle": _check_mc_oracle,
    "soliton-report": _check_soliton_report,
    "stability-form": _check_stability_form,
    "first-variation": _check_first_variation,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(only=None, seed: int = 0, k_scale: float = 1.0):
    """Run the named checks (all by default); returns a list of CheckResult.

    ``only`` is an iterable of names from CHECK_NAMES.  ``seed`` (an integer
    >= 0) feeds every stochastic ingredient; two runs with the same seed
    produce identical numbers.  ``k_scale`` is the injected-bug control (see module docstring).
    """
    _check_integer("seed", seed, 0)
    if only is None:
        names = CHECK_NAMES
    else:
        names = tuple(only)
        unknown = [n for n in names if n not in _CHECKS]
        if unknown:
            raise ParameterError(
                f"unknown check(s) {unknown}; valid names: {', '.join(CHECK_NAMES)}"
            )
    results = []
    for name in names:
        start = time.perf_counter()
        ok, value, detail = _CHECKS[name](seed, k_scale)
        results.append(CheckResult(name, bool(ok), float(value), detail, time.perf_counter() - start))
    return results


def suite_report(results, seed: int) -> dict:
    """Machine-readable summary of a check run."""
    return {
        "suite": "gcflab-verify",
        "seed": seed,
        "all_pass": all(r.ok for r in results),
        "checks": [asdict(r) for r in results],
    }
