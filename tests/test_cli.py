import json

import numpy as np
import pytest

from finsler_billiards import cli

DISK_SEARCH = {
    "mode": "search",
    "metric": {"kind": "euclidean"},
    "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]},
    "r": 3,
    "search": {"seeds": 15, "rng_seed": 0},
}

SPHERE_SEARCH = {
    "mode": "search",
    "metric": {"kind": "euclidean"},
    "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0, 1.0]},
    "r": 3,
    "search": {"seeds": 10, "rng_seed": 0},
}

MAGNETIC_TRACE = {
    "mode": "trace",
    "metric": {"kind": "magnetic", "B": 0.1},
    "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]},
    "trace": {"kind": "billiard", "start": [1.0, 0.0],
              "direction": [-0.8, 0.6], "steps": 50},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_betti_subcommand(tmp_path, capsys):
    code = cli.main(["betti", "4", "3"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[: out.index("degree")])
    assert payload["betti"] == [1, 1, 2, 2, 1, 1]
    assert "degree  betti" in out


def test_verify_subcommand(capsys):
    code = cli.main(["verify", "3", "3"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 1, 1, 1]
    assert payload["bound_general"] == 3
    assert payload["bound_generic"] == 4
    assert all(payload["checks"].values())


def test_verify_rejects_composite_period(capsys):
    code = cli.main(["verify", "3", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_search_skips_bound_in_dimension_two(tmp_path, capsys):
    code = cli.main(["search", "--config", write_config(tmp_path, DISK_SEARCH)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["bound_check"].startswith("skipped")
    assert report["classes"] >= 1
    assert "classes_by_rotation" in report


def test_search_flags_continuum_and_skips_bound(tmp_path, capsys):
    # the round sphere carries rotational continua of triangles, so the
    # bound check must be skipped as non-generic
    code = cli.main(["search", "--config", write_config(tmp_path, SPHERE_SEARCH)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["bound_check"] == "skipped: non-generic"
    assert any("continuum-suspect" in orbit["flags"] for orbit in report["orbits"])


def test_search_reports_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, DISK_SEARCH)
    cli.main(["search", "--config", path])
    first = capsys.readouterr().out
    cli.main(["search", "--config", path])
    second = capsys.readouterr().out
    assert first == second


def test_search_rejects_unknown_search_parameter(tmp_path, capsys):
    config = dict(DISK_SEARCH, search={"jobs": 2})
    code = cli.main(["search", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert "unknown search parameters" in capsys.readouterr().err


def test_search_rejects_zero_cluster_tol(tmp_path, capsys):
    config = dict(DISK_SEARCH, search={"cluster_tol": 0})
    code = cli.main(["search", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key", ["grad_tol", "epsilon", "cluster_tol"])
def test_search_rejects_boolean_tolerance(tmp_path, capsys, key):
    # true used to run as 1.0 and was written into the report
    config = dict(DISK_SEARCH, search=dict(DISK_SEARCH["search"], **{key: True}))
    code = cli.main(["search", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert f"{key} must be a finite number > 0, got True" in capsys.readouterr().err


def test_search_rejects_non_finite_riemannian_tensor(tmp_path, capsys):
    # json reads Infinity; the search used to run on NaN and exit with
    # "invalid config (SVD did not converge in Linear Least Squares)"
    metric = {"kind": "riemannian", "tensor": [[float("inf"), 0.0], [0.0, 1.0]]}
    config = dict(DISK_SEARCH, metric=metric)
    code = cli.main(["search", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert capsys.readouterr().err == "error: metric tensor entries must be finite\n"


@pytest.mark.parametrize("key,value", [
    ("r", 3.7), ("r", True), ("seeds", 2.9), ("seeds", "20"), ("rng_seed", 0.5),
    ("rng_seed", False), ("max_iter", True), ("max_iter", 60.5),
])
def test_search_rejects_non_integer_values(tmp_path, capsys, key, value):
    # before, int() ran r = 3.7 as 3, seeds = 2.9 as 2 and max_iter = true as 1
    if key == "r":
        config = dict(DISK_SEARCH, r=value)
    else:
        config = dict(DISK_SEARCH, search=dict(DISK_SEARCH["search"], **{key: value}))
    code = cli.main(["search", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert f"'{key}' must be an integer" in capsys.readouterr().err


def test_integral_float_values_are_accepted(tmp_path, capsys):
    config = dict(DISK_SEARCH, r=3.0, search={"seeds": 15.0, "rng_seed": 0})
    cli.main(["search", "--config", write_config(tmp_path, config)])
    first = json.loads(capsys.readouterr().out)
    cli.main(["search", "--config", write_config(tmp_path, DISK_SEARCH)])
    assert first == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("steps", [2.5, True, "50"])
def test_trace_rejects_non_integer_steps(tmp_path, capsys, steps):
    config = dict(MAGNETIC_TRACE, trace=dict(MAGNETIC_TRACE["trace"], steps=steps))
    code = cli.main(["trace", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert "'steps' must be an integer" in capsys.readouterr().err


def test_search_seed_override_changes_config(tmp_path, capsys):
    path = write_config(tmp_path, DISK_SEARCH)
    cli.main(["search", "--config", path, "--seed", "9"])
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["search"]["rng_seed"] == 9


def test_search_invalid_config_exits_one(tmp_path, capsys):
    missing_r = dict(DISK_SEARCH)
    missing_r.pop("r")
    # json.dumps writes NaN, and json.loads reads it back
    nan_field = dict(DISK_SEARCH, metric={"kind": "magnetic", "B": float("nan")})
    for bad in (missing_r, nan_field):
        code = cli.main(["search", "--config", write_config(tmp_path, bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err


def test_search_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "search",\n  "metric": }\n')
    code = cli.main(["search", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert ":2:" in err


def test_trace_json_states_on_boundary(tmp_path, capsys):
    code = cli.main(["trace", "--config", write_config(tmp_path, MAGNETIC_TRACE)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert len(payload["states"]) == 50
    for state in payload["states"]:
        x = np.array(state["x"])
        assert abs(float(x @ x) - 1.0) <= 1e-9


def test_trace_csv_row_count(tmp_path, capsys):
    code = cli.main(["trace", "--config", write_config(tmp_path, MAGNETIC_TRACE),
                     "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,x1,x2,v1,v2"
    assert len(lines) == 51


def test_trace_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, MAGNETIC_TRACE)
    cli.main(["trace", "--config", path])
    first = capsys.readouterr().out
    cli.main(["trace", "--config", path])
    second = capsys.readouterr().out
    assert first == second


def test_trace_euclidean_vs_weak_field_diverge(tmp_path, capsys):
    # identical starts; a weak field must visibly bend the orbit
    base = {
        "mode": "trace",
        "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]},
        "trace": {"kind": "billiard", "start": [1.0, 0.0],
                  "direction": [-0.8, 0.6], "steps": 10},
    }
    euclid = dict(base, metric={"kind": "euclidean"})
    magnet = dict(base, metric={"kind": "magnetic", "B": 0.05})
    cli.main(["trace", "--config", write_config(tmp_path, euclid, "e.json")])
    out_e = json.loads(capsys.readouterr().out)
    cli.main(["trace", "--config", write_config(tmp_path, magnet, "m.json")])
    out_m = json.loads(capsys.readouterr().out)
    gaps = [
        np.linalg.norm(np.array(a["x"]) - np.array(b["x"]))
        for a, b in zip(out_e["states"], out_m["states"])
    ]
    assert max(gaps) > 1e-3


def test_trace_geodesic_csv(tmp_path, capsys):
    config = {
        "mode": "trace",
        "metric": {"kind": "magnetic", "B": 0.2},
        "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]},
        "trace": {"kind": "geodesic", "start": [0.0, 0.0],
                  "direction": [1.0, 0.0], "t_max": 1.0, "dt": 0.01},
    }
    code = cli.main(["trace", "--config", write_config(tmp_path, config),
                     "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x1,x2,v1,v2"
    assert len(lines) == 102


@pytest.mark.parametrize("t_max, dt", [(float("inf"), 0.01), (1.0, float("inf")), (1e308, 1e-10)],
                         ids=["t_max", "dt", "steps-overflow"])
def test_trace_geodesic_rejects_infinite_time(tmp_path, capsys, t_max, dt):
    # json.load reads Infinity, so a config file can carry it
    trace = {"kind": "geodesic", "start": [0.0, 0.0], "direction": [1.0, 0.0],
             "t_max": t_max, "dt": dt}
    config = {"mode": "trace", "metric": {"kind": "magnetic", "B": 0.2},
              "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]}, "trace": trace}
    code = cli.main(["trace", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: t_max and dt must be finite")


GEODESIC = {"kind": "geodesic", "start": [0.0, 0.0], "direction": [1.0, 0.0],
            "t_max": 0.2, "dt": 0.01}
DISK_TABLE = {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]}


@pytest.mark.parametrize("change, message", [
    ({"metric": {"kind": "magnetic", "B": "0.1"}}, "magnetic field B must be a number"),
    ({"metric": {"kind": "magnetic", "B": True}}, "magnetic field B must be a number"),
    ({"table": dict(DISK_TABLE, perturbation={"eps": "0.02"})}, "perturbation eps must be a number"),
    ({"table": dict(DISK_TABLE, perturbation={"eps": True})}, "perturbation eps must be a number"),
    ({"table": dict(DISK_TABLE, perturbation=[0.02])}, "'perturbation' must be an object"),
    ({"table": dict(DISK_TABLE, perturbation=5)}, "'perturbation' must be an object"),
    ({"trace": dict(GEODESIC, t_max="0.2")}, "t_max must be a number"),
    ({"trace": dict(GEODESIC, dt=True)}, "dt must be a number"),
], ids=["B-string", "B-bool", "eps-string", "eps-bool", "perturbation-list",
        "perturbation-number", "t_max-string", "dt-bool"])
def test_float_fields_reject_strings_and_booleans(tmp_path, capsys, change, message):
    # float() used to read "0.1" as 0.1 and True as 1.0
    config = dict(MAGNETIC_TRACE, **change)
    code = cli.main(["trace", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("change", [
    {"metric": {"kind": "minkowski", "alpha": "ab"}},
    {"metric": {"kind": "minkowski", "alpha": [0.1, "0.2"]}},
    {"trace": dict(MAGNETIC_TRACE["trace"], start=["1.0", 0.0])},
    {"trace": dict(MAGNETIC_TRACE["trace"], direction=[True, 0.6])},
], ids=["alpha-string", "alpha-entry-string", "start-string", "direction-bool"])
def test_coordinates_reject_strings_and_booleans(tmp_path, capsys, change):
    # "0.2" and True used to be read as numbers, and "ab" to exit with
    # "invalid config (could not convert string to float: 'ab')"
    config = dict(MAGNETIC_TRACE, **change)
    code = cli.main(["trace", "--config", write_config(tmp_path, config)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: coordinate must be a number")


def test_mode_mismatch_rejected(tmp_path, capsys):
    code = cli.main(["trace", "--config", write_config(tmp_path, DISK_SEARCH)])
    assert code == 1


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = cli.main(["betti", "3", "5", "--out", str(target)])
    assert code == 0
    assert "degree  betti" in target.read_text()


def test_metric_table_dimension_mismatch(tmp_path, capsys):
    bad = dict(DISK_SEARCH, metric={"kind": "minkowski", "alpha": [0.1, 0.0, 0.0]})
    code = cli.main(["search", "--config", write_config(tmp_path, bad)])
    assert code == 1


def test_search_exits_two_when_bound_missed(tmp_path, capsys):
    starved = {
        "mode": "search",
        "metric": {"kind": "euclidean"},
        "table": {"kind": "ellipsoid", "semi_axes": [1.0, 1.3, 1.7],
                  "perturbation": {"eps": 0.02, "coeffs": [1.0, 1.0, 1.0]}},
        "r": 3,
        "bound": "generic",
        "search": {"seeds": 2, "rng_seed": 1},
    }
    code = cli.main(["search", "--config", write_config(tmp_path, starved)])
    report = json.loads(capsys.readouterr().out)
    assert report["bound_check"] == "fail"
    assert report["classes"] < report["bound"]
    assert code == 2
