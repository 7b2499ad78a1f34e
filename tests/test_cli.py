import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaseless
from phaseless.cli import _canonical, _report_text, main
from phaseless.fieldio import read_field
from phaseless.grids import GridSpec
from phaseless.potentials import PotentialSpec, rasterize
from phaseless.solver import WaveVector, plane_wave

GOLDEN = Path(__file__).parent / "golden" / "forward_amplitudes.csv"

BALL = {
    "dim": 2,
    "components": [{"kind": "ball", "center": [0.3, -0.2], "radius": 0.25, "amplitude": 1.0}],
}
REFS = [
    {"dim": 2, "components": [{"kind": "ball", "center": [-0.93, -0.61], "radius": 0.3, "amplitude": 1.0}]},
    {"dim": 2, "components": [{"kind": "ball", "center": [0.88, 0.79], "radius": 0.45, "amplitude": 1.0}]},
]


def write_config(tmp_path, name="cfg.json", **doc):
    base = {
        "schema": "phaseless-experiment/1",
        "dimension": 2,
        "grid": {"n": 32, "box": 1.5},
        "target": BALL,
        "energies": [4.0, 9.0],
    }
    base.update(doc)
    path = tmp_path / name
    path.write_text(json.dumps(base, indent=2))
    return str(path)


def test_synthesize_smoke(tmp_path):
    cfg = write_config(tmp_path, references=REFS, probe_grid={"n": 8, "box": 2.0})
    out = tmp_path / "run"
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "dataset.json").exists()
    report = json.loads((out / "synthesize_report.json").read_text())
    assert report["schema"] == "phaseless-bundle/1"
    assert report["command"] == "synthesize"
    assert report["results"]["n_refs"] == 2
    assert "dataset.csv" in report["outputs_sha256"]
    assert report["config"]["schema"] == "phaseless-experiment/1"


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_key=True)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        None,
        {"convergence": {"slope_window": ["a", 1]}},
        {"convergence": {"slope_window": [None, 1]}},
        {"grid": {"n": 32, "box_min": [-1.5, "x"], "box_max": [1.5, 1.5]}},
        {"grid": {"n": 32, "box_min": [-1.5, -1.5], "box_max": [1.5, "x"]}},
        {"shift": [0.5, "x"]},
        {"energies": [4.0, "x"]},
        {"energies": {"list": [4.0, "x"]}},
        {"energies": {"E_min": -1, "E_max": 4, "count": 3}},
        {"seed": 0},
        {"convergence": {"probe_grid": {"n": 8, "box": 2.0}}},
        {"energies": {"list": [4.0, 9.0], "mode": "unbounded"}},
        {"energies": {"list": [4.0, 9.0], "accumulation": 10.0}},
        {"solver": {"max_iterations": 2.7}},
        {"energies": {"E_min": 4.0, "E_max": 9.0, "count": 2.9}},
        {"grid": {"n": "32", "box": 1.5}},
        {"solver": {"dense_limit": True}},
        {"solver": {"tolerance": "1e-3"}},
        {"solver": {"resolution_factor": True}},
        {"shift": [0.5, False]},
        {"reconstruction": {"restrict_support": "false"}},
        {"reconstruction": {"declared_real": 1}},
        {"solver": []},
        {"reconstruction": {"estimator": "magic"}},
        {"bounds": {"sigma": 1.0}},
        {"bounds": {"a0": -1}},
    ],
    ids=[
        "missing-file", "window-string", "window-null", "box-min", "box-max", "shift",
        "energy-list", "energies-list", "geometric-negative", "seed", "probe-grid",
        "energies-mode", "energies-accumulation", "int-fraction", "count-fraction",
        "int-string", "int-bool", "float-string", "float-bool", "float-list-bool",
        "bool-string", "bool-int", "object-list", "estimator", "sigma-diverges", "a0-negative",
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, doc):
    # "seed" to "energies-accumulation" set keys that nothing reads:
    # unknown keys, like a typo; from "int-fraction" to "object-list", a
    # value of the wrong JSON type is rejected, not coerced; from
    # "estimator" on, a value that a later command would reject is
    # rejected when the config loads
    cfg = str(tmp_path / "missing.json") if doc is None else write_config(tmp_path, **doc)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_reconstruct_requires_references(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "reference" in capsys.readouterr().err


def test_missing_output_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", cfg]) == 2
    assert "output" in capsys.readouterr().err


def test_solver_failure_exit_code(tmp_path, capsys):
    strong = {
        "dim": 2,
        "components": [{"kind": "ball", "center": [0.0, 0.0], "radius": 0.4, "amplitude": 60.0}],
    }
    cfg = write_config(
        tmp_path,
        target=strong,
        grid={"n": 48, "box": 1.5},
        energies=[4.0],
        solver={"method": "born", "max_iterations": 2},
    )
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_unresolved_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, grid={"n": 16, "box": 1.5}, energies=[400.0])
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "resolution" in capsys.readouterr().err


def test_convergence_threshold_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        energies=[25.0, 50.0, 75.0, 100.0],
        mode="full-solver",
        probe_grid={"n": 8, "box": 2.0},
        solver={"resolution_factor": 4.0},
        convergence={"slope_window": [-10.0, -9.0]},
    )
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 4
    assert "threshold failure" in capsys.readouterr().err
    report = json.loads((out / "convergence_report.json").read_text())
    assert report["results"]["within_window"] is False
    # the measurement table is still written for post-mortems
    assert (out / "convergence.csv").exists()


def test_forward_matches_golden_amplitudes(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n": 48, "box": 1.5},
        energies=[25.0],
        solver={"method": "dense"},
    )
    out = tmp_path / "fwd"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0

    def load(path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    got = load(out / "forward_amplitudes.csv")
    want = load(GOLDEN)
    assert len(got) == len(want) == 72
    for g, w in zip(got, want):
        assert g["E"] == w["E"]
        np.testing.assert_allclose(float(g["l_1"]), float(w["l_1"]), atol=1e-12)
        np.testing.assert_allclose(float(g["l_2"]), float(w["l_2"]), atol=1e-12)
        np.testing.assert_allclose(float(g["re_f"]), float(w["re_f"]), atol=1e-10)
        np.testing.assert_allclose(float(g["im_f"]), float(w["im_f"]), atol=1e-10)


def test_forward_3d_amplitudes_are_direct_sums_and_repeat(tmp_path):
    ball = {"kind": "ball", "center": [0.3, -0.2, 0.1], "radius": 0.5, "amplitude": 1.5}
    cfg = write_config(
        tmp_path,
        dimension=3,
        grid={"n": 16, "box": 1.5},
        target={"dim": 3, "components": [ball]},
        energies=[4.0, 9.0],
    )
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(f.name for f in runs[0].iterdir())
    assert names == sorted(f.name for f in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    text = (runs[0] / "forward_amplitudes.csv").read_text()
    assert "np." not in text
    with open(runs[0] / "forward_amplitudes.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 2 * 288
    grid = GridSpec(3, 16, (-1.5,) * 3, (1.5,) * 3)
    v = rasterize(PotentialSpec.ball((0.3, -0.2, 0.1), 0.5, 1.5), grid)
    support = v.values != 0
    coords = grid.nodes()[support.reshape(-1)]
    for i, E in enumerate((4.0, 9.0)):
        rows = [r for r in table if float(r["E"]) == E]
        psi = read_field(runs[0] / f"forward_psi_E{i}")
        l = np.array([[float(r["l_1"]), float(r["l_2"]), float(r["l_3"])] for r in rows])
        got = np.array([complex(float(r["re_f"]), float(r["im_f"])) for r in rows])
        terms = np.exp(-1j * (l @ coords.T)) * (v.values[support] * psi.values[support])
        want = (2.0 * np.pi) ** -3 * grid.cell_volume * terms.sum(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_forward_zero_potential_is_plane_wave(tmp_path):
    cfg = write_config(
        tmp_path,
        target={"dim": 2, "components": []},
        grid={"n": 32, "box": 1.0},
        energies=[9.0],
    )
    out = tmp_path / "zero"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    psi = read_field(out / "forward_psi_E0")
    grid = GridSpec(2, 32, (-1.0, -1.0), (1.0, 1.0))
    expected = plane_wave(grid, WaveVector((0.0, 3.0)))
    assert np.array_equal(psi.values, expected)
    report = json.loads((out / "forward_report.json").read_text())
    assert report["results"]["target_is_zero"] is True


def test_synthesize_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, references=REFS, probe_grid={"n": 8, "box": 2.0})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["synthesize", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("dataset.csv", "dataset.json", "synthesize_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    cfg = write_config(
        tmp_path,
        mode="full-solver",
        energies=[9.0],
        probe_grid={"n": 8, "box": 2.0},
    )
    out1, out2 = tmp_path / "w1", tmp_path / "w3"
    assert main(["synthesize", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["synthesize", "--config", cfg, "--out", str(out2), "--workers", "3"]) == 0
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_reconstruct_writes_both_one_ref_branches(tmp_path):
    cfg = write_config(
        tmp_path,
        references=REFS[:1],
        energies=[25.0],
        grid={"n": 32, "box": 1.5},
    )
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    for tag in ("_plus", "_minus"):
        assert (out / f"recon_spectrum{tag}.bin").exists()
        assert (out / f"recon_potential{tag}.json").exists()
    report = json.loads((out / "reconstruct_report.json").read_text())
    branches = [b["branch"] for b in report["results"]["branches"]]
    assert branches == ["one-reference-plus", "one-reference-minus"]


def test_reconstruct_consumes_saved_dataset(tmp_path):
    cfg = write_config(
        tmp_path,
        references=REFS,
        energies=[25.0, 50.0],
        grid={"n": 32, "box": 1.5},
    )
    synth_out = tmp_path / "syn"
    assert main(["synthesize", "--config", cfg, "--out", str(synth_out)]) == 0
    rec_out = tmp_path / "rec"
    code = main(
        ["reconstruct", "--config", cfg, "--out", str(rec_out), str(synth_out / "dataset")]
    )
    assert code == 0
    report = json.loads((rec_out / "reconstruct_report.json").read_text())
    assert "dataset_csv" in report["input_sha256"]
    assert report["results"]["branches"][0]["branch"] == "two-reference"


def test_mode_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, probe_grid={"n": 8, "box": 2.0}, energies=[9.0])
    out = tmp_path / "full"
    assert main(["synthesize", "--config", cfg, "--out", str(out), "--mode", "full"]) == 0
    header = json.loads((out / "dataset.json").read_text())
    assert header["mode"] == "full-solver"


def test_ambiguity_demo_needs_shift(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["ambiguity-demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "shift" in capsys.readouterr().err


def test_ambiguity_demo_reports_zero_gap(tmp_path, capsys):
    cfg = write_config(tmp_path, shift=[0.5, -0.25], probe_grid={"n": 8, "box": 2.0})
    out = tmp_path / "amb"
    assert main(["ambiguity-demo", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "ambiguity-demo_report.json").read_text())
    assert report["results"]["max_relative_discrepancy"] < 1e-12
    assert (out / "ambiguity_shifted_potential.bin").exists()


def test_ambiguity_demo_passes_the_convention(tmp_path, monkeypatch):
    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs.get("convention"))
        return 0.0

    monkeypatch.setattr("phaseless.cli.translation_twin_demo", record)
    cfg = write_config(tmp_path, shift=[0.5, -0.25], probe_grid={"n": 8, "box": 2.0},
                       convention="mirror")
    assert main(["ambiguity-demo", "--config", cfg, "--out", str(tmp_path / "amb")]) == 0
    assert seen == ["mirror"]


def test_bounds_consumes_error_table(tmp_path):
    table = tmp_path / "errors.csv"
    energies = [10.0, 20.0, 40.0, 80.0]
    lines = ["E,error"] + [f"{e},{0.01 * e ** -0.5}" for e in energies]
    table.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, bounds={"errors_csv": str(table), "sigma": 4.0})
    out = tmp_path / "bnd"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "bounds_report.json").read_text())
    assert abs(report["results"]["slope"] + 0.5) < 1e-10
    assert report["results"]["bound_holds"] is True
    assert (out / "bounds_errors.csv").exists()
    assert "errors_csv" in report["input_sha256"]


def test_report_text_keeps_canonical_values_with_flat_lists_on_one_line():
    obj = {
        "mask": {"target_null": list(range(5)), "ref_null": [[], [7, 9]], "fraction": 0.25},
        "empty": {},
        "rows": ({"E": 4.0, "p": (1.5, -2.0)}, {"E": 9.0, "p": (0.0, "nan")}),
        "flag": True,
        "none": None,
    }
    text = _report_text(obj)
    assert json.loads(text) == json.loads(_canonical(obj))
    assert '"target_null": [0, 1, 2, 3, 4]' in text
    assert '"p": [1.5, -2.0]' in text
    assert text.startswith('{\n  "empty": {},\n')


def test_cli_import_skips_quadrature_and_optimizers(tmp_path):
    # the runtime is numpy only: importing the CLI and running each kind of
    # workload (2-D full solver on the dense route, which method "dense"
    # forces; 2-D oracle with the Richardson estimator; 3-D oracle with one
    # reference) loads no scipy module
    ball_3d = {
        "dim": 3,
        "components": [{"kind": "ball", "center": [0.3, -0.2, 0.1], "radius": 0.25, "amplitude": 1.0}],
    }
    ref_3d = {
        "dim": 3,
        "components": [{"kind": "ball", "center": [-0.75, -0.6, -0.5], "radius": 0.3, "amplitude": 1.0}],
    }
    configs = [
        write_config(
            tmp_path, "full.json", references=REFS, energies=[25.0], mode="full-solver",
            solver={"method": "dense"},
        ),
        write_config(
            tmp_path, "oracle.json", references=REFS, energies=[25.0, 50.0, 100.0, 200.0],
            reconstruction={"estimator": "richardson"},
        ),
        write_config(
            tmp_path, "oracle3.json", dimension=3, grid={"n": 12, "box": 1.5}, target=ball_3d,
            references=[ref_3d], energies=[9.0, 16.0],
        ),
    ]
    code = (
        "import sys, phaseless.cli\n"
        "for cfg in sys.argv[1:]:\n"
        "    out = f'{cfg}.out'\n"
        "    assert phaseless.cli.main(['synthesize', '--config', cfg, '--out', out]) == 0\n"
        "    rec = ['reconstruct', '--config', cfg, '--out', out, out + '/dataset']\n"
        "    assert phaseless.cli.main(rec) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(phaseless.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, *configs],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_config_load_skips_numpy_random(tmp_path):
    # loading a two-reference config checks that the references differ on
    # a fixed probe set, which needs no random generator: numpy.random
    # (and the secrets, hmac and base64 modules it pulls in) stays unloaded
    cfg = write_config(tmp_path, references=REFS, mode="full-solver")
    code = (
        "import sys, phaseless.cli\n"
        "from phaseless.config import load_config\n"
        "assert load_config(sys.argv[1]).references.count == 2\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(phaseless.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, cfg],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_traced_names_exist():
    # perfbench/tracing.py wraps each of its targets by module and name;
    # a target the package no longer has would break a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing._TARGETS) >= 25
    for module, attr, _, _ in tracing._TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
