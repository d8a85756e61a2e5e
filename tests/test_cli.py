"""Command-line front end: snapshots, exit codes, determinism.

Commands are driven through main() in-process; the exit-code contract
(0 ok, 1 verification failure, 2 invalid input, 3 unreadable file,
4 numerical failure) is what scripts depend on, so each path gets a test.
"""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from gcflab.body import make_shape
from gcflab.cli import main, read_snapshot, snapshot_dict, write_snapshot
from gcflab.constants import ball_volume
from gcflab.errors import AliasingWarning, SnapshotError
from gcflab.flow import TRACE_COLUMNS, FlowConfig
from gcflab.sphere import build_grid


def shape(tmp_path, name, *flags):
    out = tmp_path / name
    code = main(["shape", "--out", str(out), *flags])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_round_trip_is_bit_exact(tmp_path, dim):
    grid = build_grid(1, n=64) if dim == 1 else build_grid(2, n_theta=16, n_phi=32)
    body = make_shape(grid, "random_valid", seed=4, normalize=True)
    path = tmp_path / "b.json"
    write_snapshot(path, body, {"note": "fixture"})
    loaded, meta = read_snapshot(path)
    assert np.array_equal(loaded.support, body.support)  # not merely close
    assert loaded.grid.shape == grid.shape
    assert meta["note"] == "fixture"
    # and a second generation stays identical
    path2 = tmp_path / "b2.json"
    write_snapshot(path2, loaded, {"note": "fixture"})
    l2, _ = read_snapshot(path2)
    assert np.array_equal(l2.support, body.support)


def test_snapshot_of_a_grid_built_from_numpy_integers(tmp_path):
    # build_grid takes numpy integers, and the grid keeps plain ints for JSON
    grid = build_grid(np.int64(2), n_theta=np.int64(16), n_phi=np.int64(32))
    assert repr(grid) == "SphereGrid(dim=2, shape=(16, 32))"
    write_snapshot(tmp_path / "b.json", make_shape(grid, "ball"))
    loaded, _ = read_snapshot(tmp_path / "b.json")
    assert loaded.grid.shape == (16, 32)


def test_snapshot_grid_sizes_in_shape_order():
    # the kind's size names, zipped with grid.shape: the key order is part of
    # the snapshot bytes
    for grid, sizes in ((build_grid(1, n=64), [("n", 64)]),
                        (build_grid(2, n_theta=16, n_phi=32), [("n_theta", 16), ("n_phi", 32)])):
        assert list(snapshot_dict(make_shape(grid, "ball"))["grid"].items()) == sizes


def test_snapshot_structural_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 99, "dim": 1, "grid": {"n": 64}, "support": []}')
    with pytest.raises(SnapshotError):
        read_snapshot(bad)
    bad.write_text('{"schema_version": 1, "dim": 1, "grid": {"n": 64}, "support": [1.0, 2.0]}')
    with pytest.raises(SnapshotError):
        read_snapshot(bad)
    bad.write_text("{ not json")
    with pytest.raises(SnapshotError):
        read_snapshot(bad)
    # sizes of the other grid kind are rejected, not dropped
    for dim, grid, nodes in ((1, {"n": 16, "n_phi": 3}, 16),
                             (2, {"n": 7, "n_theta": 8, "n_phi": 16}, 128)):
        doc = {"schema_version": 1, "dim": dim, "grid": grid, "support": [1.0] * nodes}
        bad.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError):
            read_snapshot(bad)


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------


def test_shape_normalized_ellipsoid_volume(tmp_path):
    out = shape(tmp_path, "e.json", "--dim", "2",
                "--ellipsoid", "1.2,1.0,0.8333", "--normalize")
    body, _ = read_snapshot(out)
    assert abs(body.volume() - ball_volume(2)) <= 1e-12


def test_shape_harmonic_circle(tmp_path):
    out = shape(tmp_path, "h.json", "--dim", "1", "--harmonic", "3:0.1")
    body, _ = read_snapshot(out)
    assert body.dim == 1
    assert float(np.min(body.curvature.det_a)) > 0.0


def test_shape_harmonic_sphere(tmp_path):
    out = shape(tmp_path, "h.json", "--dim", "2",
                "--harmonic", "2,1:0.1", "--harmonic", "3,-2:0.05")
    body, meta = read_snapshot(out)
    modes = [(2, 1, 0.1), (3, -2, 0.05)]
    assert np.array_equal(body.support, 1.0 + body.grid._harmonic_field(modes))
    assert meta["shape"] == f"harmonic{modes}"


@pytest.mark.parametrize("dim,spec", [("1", "2,1:0.1"), ("2", "3:0.1")])
def test_shape_harmonic_spec_of_the_other_kind_exits_2(tmp_path, capsys, dim, spec):
    # each kind reads its own entry form, so the entry fails as a bad spec,
    # not later as an invalid body
    out = tmp_path / "x.json"
    assert main(["shape", "--dim", dim, "--harmonic", spec, "--out", str(out)]) == 2
    assert f"--harmonic {spec!r}: expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--dim", "1", "--n-theta", "8", "--n-phi", "7"],
                                   ["--dim", "2", "--n", "17"]])
def test_shape_sizes_of_the_other_kind_exit_2(tmp_path, capsys, flags):
    # unset sizes take the kind's desk sizes; a size of the other kind is an
    # error, not silently dropped
    out = tmp_path / "x.json"
    assert main(["shape", *flags, "--out", str(out)]) == 2
    assert "grids take" in capsys.readouterr().err
    assert not out.exists()


def test_shape_extreme_ellipsoid_fails_validity(tmp_path, capsys):
    with pytest.warns(AliasingWarning):
        code = main(["shape", "--dim", "2", "--ellipsoid", "5,1,0.04",
                     "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "convexity" in capsys.readouterr().err


def test_shape_translated_ball(tmp_path):
    out = shape(tmp_path, "t.json", "--dim", "1", "--ball", "1.0", "--center", "0.2,0.1")
    body, _ = read_snapshot(out)
    expected = 1.0 + body.grid.nodes @ np.array([0.2, 0.1])
    assert np.max(np.abs(body.support - expected)) == 0.0


def test_shape_conflicting_kinds_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["shape", "--dim", "1", "--ellipsoid", "1.2,1.0", "--harmonic", "2:0.1"])
    assert exc.value.code == 2


def test_shape_determinism_modulo_timestamp(tmp_path):
    docs = []
    for name in ("d1.json", "d2.json"):
        out = shape(tmp_path, name, "--dim", "1", "--random-seed", "9", "--normalize")
        doc = json.loads(out.read_text())
        doc["metadata"].pop("created")
        docs.append(doc)
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_unit_ball_report(tmp_path, capsys):
    out = shape(tmp_path, "ball.json", "--dim", "1")
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("entropy", "firey", "chow"):
        assert abs(doc[key]) <= 1e-10
    assert doc["all_checks_pass"]
    assert all(c["ok"] for c in doc["checks"])


def test_analyze_corrupted_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text('{"schema_version": 1,')
    assert main(["analyze", str(bad)]) == 3
    assert main(["analyze", str(tmp_path / "missing.json")]) == 3
    # a grid size of the other kind is a structural error, not silently dropped
    bad.write_text(json.dumps({"schema_version": 1, "dim": 1, "grid": {"n": 16, "n_phi": 3},
                               "support": [1.0] * 16}))
    assert main(["analyze", str(bad)]) == 3


def test_analyze_invalid_body_exits_2(tmp_path, capsys):
    grid = build_grid(1, n=64)
    doc = {
        "schema_version": 1,
        "dim": 1,
        "grid": {"n": 64},
        # deep cosine dent: positive but badly non-convex
        "support": list(1.0 + 0.8 * np.cos(4 * grid.thetas)),
        "metadata": {},
    }
    bad = tmp_path / "nonconvex.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", str(bad)]) == 2
    assert "convexity" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def test_flow_ball_trace_and_manifest(tmp_path, capsys):
    snap = shape(tmp_path, "ball.json", "--dim", "1")
    trace = tmp_path / "t.csv"
    final = tmp_path / "f.json"
    manifest = tmp_path / "m.json"
    capsys.readouterr()
    code = main(["flow", str(snap), "--t-end", "0.3", "--soliton-tol", "0",
                 "--output-stride", "500", "--trace", str(trace),
                 "--final", str(final), "--manifest", str(manifest)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["t_final"] == pytest.approx(0.3)
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    u_max = [float(r[TRACE_COLUMNS.index("u_max")]) for r in rows[1:]]
    assert max(abs(v - 1.0) for v in u_max) <= 1e-12
    body, meta = read_snapshot(final)
    assert meta["flow_time"] == pytest.approx(0.3)
    man = json.loads(manifest.read_text())
    assert man["config"]["t_end"] == 0.3
    # exactly the FlowConfig fields; the first-step safety factor and the
    # step budget are module constants
    assert list(man["config"]) == [f.name for f in fields(FlowConfig)]
    assert not {"dt_safety", "max_steps"} & set(man["config"])
    assert set(man["outputs"]) == {str(trace), str(final)}


@pytest.mark.parametrize("flags", [("--t-end", "nan"), ("--t-end", "inf"),
                                   ("--soliton-tol", "nan"), ("--soliton-tol", "-1"),
                                   ("--fixed-dt", "inf")])
def test_flow_rejects_bad_run_parameters(tmp_path, capsys, flags):
    snap = shape(tmp_path, "ball.json", "--dim", "1")
    outputs = [tmp_path / name for name in ("t.csv", "f.json", "m.json")]
    code = main(["flow", str(snap), *flags, "--trace", str(outputs[0]),
                 "--final", str(outputs[1]), "--manifest", str(outputs[2])])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


def test_flow_determinism_modulo_timestamp(tmp_path):
    # the same flags give a byte-identical trace and the same final snapshot
    # apart from its creation time, over a run of adaptive steps
    snap = shape(tmp_path, "r.json", "--dim", "1", "--n", "64", "--random-seed", "3",
                 "--normalize")
    traces, finals = [], []
    for run in ("a", "b"):
        trace, final = tmp_path / f"t{run}.csv", tmp_path / f"f{run}.json"
        assert main(["flow", str(snap), "--t-end", "0.2", "--output-stride", "3",
                     "--trace", str(trace), "--final", str(final),
                     "--manifest", str(tmp_path / f"m{run}.json")]) == 0
        traces.append(trace.read_bytes())
        doc = json.loads(final.read_text())
        doc["metadata"].pop("created")
        finals.append(doc)
    assert traces[0] == traces[1]
    assert len(traces[0].splitlines()) > 3
    assert finals[0] == finals[1]


def test_flow_stiff_fixed_dt_exits_4(tmp_path, capsys):
    # a fixed step past the extinction time (t = 1/2) leaves the valid cone
    snap = shape(tmp_path, "w.json", "--dim", "1", "--harmonic", "2:0.1")
    code = main(["flow", str(snap), "--mode", "unnormalized", "--fixed-dt", "0.6",
                 "--t-end", "1",
                 "--trace", str(tmp_path / "t.csv"),
                 "--final", str(tmp_path / "f.json"),
                 "--manifest", str(tmp_path / "m.json")])
    assert code == 4
    assert "collapsed" in capsys.readouterr().err


def test_flow_unnormalized_reports_harnack(tmp_path, capsys):
    snap = shape(tmp_path, "ball.json", "--dim", "1")
    capsys.readouterr()
    code = main(["flow", str(snap), "--mode", "unnormalized", "--t-end", "0.3",
                 "--output-stride", "1", "--trace", str(tmp_path / "t.csv"),
                 "--final", str(tmp_path / "f.json"),
                 "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["harnack"]["ok"]
    assert summary["harnack"]["t_extinction_estimate"] == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# soliton
# ---------------------------------------------------------------------------


def test_soliton_command_relaxes_ellipse(tmp_path, capsys):
    snap = shape(tmp_path, "e.json", "--dim", "1",
                 "--ellipsoid", "1.2,0.8333", "--normalize")
    final = tmp_path / "sol.json"
    capsys.readouterr()
    code = main(["soliton", str(snap), "--tol", "1e-4", "--t-end", "10",
                 "--final", str(final), "--manifest", str(tmp_path / "m.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"]
    assert doc["residual"] <= 1e-4
    body, _ = read_snapshot(final)
    assert np.max(np.abs(body.support - 1.0)) <= 1e-2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_agrees_on_ellipse(tmp_path, capsys):
    snap = shape(tmp_path, "e.json", "--dim", "1", "--ellipsoid", "1.5,1.0")
    capsys.readouterr()
    assert main(["oracle", str(snap), "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["z_score"] <= 3.0
    assert doc["agree_3sigma"]


def test_oracle_exact_on_ball(tmp_path, capsys):
    snap = shape(tmp_path, "b.json", "--dim", "2")
    capsys.readouterr()
    assert main(["oracle", str(snap)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["z_score"] == 0.0


def test_oracle_non_interior_z_exits_2(tmp_path, capsys):
    snap = shape(tmp_path, "e.json", "--dim", "1", "--ellipsoid", "1.5,1.0")
    assert main(["oracle", str(snap), "--z", "3.0,0.0"]) == 2
    assert "interior" in capsys.readouterr().err


def test_negative_seeds_exit_2(tmp_path, capsys):
    snap = shape(tmp_path, "e.json", "--dim", "1", "--ellipsoid", "1.5,1.0")
    assert main(["oracle", str(snap), "--seed", "-1"]) == 2
    assert main(["shape", "--dim", "1", "--random-seed", "-3",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()
    # the suite rejects the seed up front, also for checks that draw nothing
    assert main(["verify", "--only", "mc-oracle", "--seed", "-2"]) == 2
    assert main(["verify", "--only", "entropy-chain", "--seed", "-2"]) == 2
    assert capsys.readouterr().err.count("seed must be an integer >= 0") == 4


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_subset_passes_and_reports(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["verify", "--only", "entropy-chain,stability-form",
                 "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    doc = json.loads(report.read_text())
    assert doc["all_pass"]
    assert [c["name"] for c in doc["checks"]] == ["entropy-chain", "stability-form"]


def test_verify_injected_bug_fails_suite(capsys):
    code = main(["verify", "--only", "entropy-chain", "--inject-bug"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_check_exits_2(capsys):
    assert main(["verify", "--only", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err
