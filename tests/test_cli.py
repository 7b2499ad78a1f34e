import csv
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phaseless
import phaseless.exceptions
from phaseless.cli import _json_safe, _report_text, main
from phaseless.fieldio import read_field
from phaseless.grids import GridSpec
from phaseless.jsonread import canonical
from phaseless.potentials import PotentialSpec, rasterize
from phaseless.solver import WaveVector

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
        {"solver": {"resolution_factor": 0}},
        {"solver": {"max_iterations": 0}},
    ],
    ids=[
        "missing-file", "window-string", "window-null", "box-min", "box-max", "shift",
        "energy-list", "energies-list", "geometric-negative", "seed", "probe-grid",
        "energies-mode", "energies-accumulation", "int-fraction", "count-fraction",
        "int-string", "int-bool", "float-string", "float-bool", "float-list-bool",
        "bool-string", "bool-int", "object-list", "estimator", "sigma-diverges", "a0-negative",
        "resolution-zero", "iterations-zero",
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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"solver": {"method": "dense"}},
         "config.solver: unknown solver method 'dense'; expected 'auto' or 'born'"),
        ({"energies": [1e-320, 4.0, 9.0]},
         "config.energies: energies must lie in [2.2250738585072014e-308, inf)"),
    ],
    ids=["retired-dense-method", "subnormal-energy"],
)
def test_solver_path_config_is_rejected_at_load(tmp_path, capsys, doc, message):
    # both are rejected as the config loads, before any solve: at a
    # subnormal E the solver's singular cell weight 1/k^2 would overflow
    cfg = write_config(tmp_path, mode="full-solver", **doc)
    for command in ("synthesize", "forward"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


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


def _ball_with(**fields):
    return {"dim": 2, "components": [{**BALL["components"][0], **fields}]}


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"target": _ball_with(radius="0.25")}, "config.target.components[0].radius"),
        ({"target": _ball_with(center=["0.3", -0.2])}, "config.target.components[0].center"),
        ({"target": {**BALL, "dim": 2.5}}, "config.target.dim"),
        ({"target": _ball_with(colour="red")}, "config.target.components[0]"),
        ({"target": _ball_with(amplitude=float("nan"))}, "config.target.components[0].amplitude"),
        ({"target": _ball_with(amplitude=float("inf"))}, "config.target.components[0].amplitude"),
        ({"shift": [float("nan"), 0.0]}, "config.shift"),
        ({"solver": {"tolerance": float("inf")}}, "config.solver.tolerance"),
        ({"reconstruction": {"p_cut": float("nan")}}, "config.reconstruction.p_cut"),
        ({"bounds": {"a0": float("inf")}}, "config.bounds.a0"),
        ({"grid": {"n": 32, "box": 1e-320}}, "config.grid"),
        ({"grid": {"n": 1e300, "box": 1.5}}, "config.grid"),
    ],
    ids=[
        "radius-string", "center-string", "dim-fraction", "component-extra-key", "amplitude-nan",
        "amplitude-inf", "shift-nan", "tolerance-inf", "p-cut-nan", "a0-inf",
        "box-dual-not-finite", "n-beyond-index",
    ],
)
def test_config_probe_exits_2_naming_its_key_path(tmp_path, capsys, doc, path):
    cfg = write_config(tmp_path, references=REFS, **doc)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["eps_zero", "eps_pair"])
def test_singular_node_thresholds_are_not_settings(tmp_path, capsys, key):
    # the thresholds derive from the target and the references alone
    cfg = write_config(tmp_path, references=REFS, reconstruction={key: 1e-3})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config.reconstruction: unknown keys ['{key}']\n"


@pytest.mark.parametrize("target", [_ball_with(amplitude=0.0), {"dim": 2, "components": []}],
                         ids=["zero-amplitude", "no-components"])
def test_zero_target_reconstruct_is_a_threshold_failure(tmp_path, capsys, target):
    # a zero target modulus masks every node it reaches: no phase to recover
    cfg = write_config(tmp_path, target=target, references=REFS, probe_grid={"n": 8, "box": 2.0})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "threshold failure: 100.0% of reachable probe nodes are masked\n"


def test_vanishing_reference_reconstruct_is_a_threshold_failure(tmp_path, capsys):
    # a reference of radius 1e-320 has a transform that underflows to 0 at
    # every node: the reference is null there, as a zero target is
    tiny = {"dim": 2, "components": [{**REFS[0]["components"][0], "radius": 1e-320}]}
    cfg = write_config(tmp_path, references=[tiny, REFS[1]], grid={"n": 24, "box": 1.5})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "threshold failure: 100.0% of reachable probe nodes are masked\n"


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("amplitude", [1e-320, 1e-310])
def test_subnormal_reference_is_null_without_a_warning(tmp_path, capsys, slot, amplitude):
    # a subnormal transform: its unit phase would overflow a complex
    # division, and 1e-3 of its peak underflows to a threshold of 0
    refs = list(REFS)
    refs[slot] = {"dim": 2, "components": [{**REFS[slot]["components"][0], "amplitude": amplitude}]}
    cfg = write_config(tmp_path, references=refs, grid={"n": 24, "box": 1.5}, energies=[9.0, 16.0])
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    err = capsys.readouterr().err
    assert err == f"warning: reference {slot + 1} transform is below threshold on 100.0% of probe nodes\n"
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "r")]) == 4
    err = capsys.readouterr().err
    assert err == "threshold failure: 100.0% of reachable probe nodes are masked\n"


@pytest.mark.parametrize("command", ["bounds", "convergence"])
def test_overflowing_intensity_is_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, target=_ball_with(amplitude=1e300), bounds={"sigma": 4.0})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: an intensity overflows a float: too strong a potential\n"


@pytest.mark.parametrize("command", ["convergence", "bounds"])
def test_born_oracle_errors_are_exactly_zero_so_no_decay_is_fitted(tmp_path, capsys, command):
    # a born-oracle row is the closed-form transform at its node, which
    # analytic_hat reproduces bit for bit: no error is left to fit a slope to
    cfg = write_config(tmp_path, grid={"n": 40, "box": 1.5}, energies=[9.0, 16.0, 25.0, 36.0, 49.0],
                       bounds={"sigma": 4.0})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: errors must be positive and finite\n"


@pytest.mark.parametrize("command", ["convergence", "bounds", "ambiguity-demo"])
def test_ball_radius_with_an_overflowing_square_is_config_error(tmp_path, capsys, command):
    # the closed-form transform scales with radius^2: 1e300 squared is no float
    cfg = write_config(tmp_path, target=_ball_with(radius=1e300), shift=[0.5, -0.25])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: config.target.components[0]: "
                   "ball radius must be positive, with a finite power 2\n")


def test_box_with_overflowing_squares_is_config_error_without_a_warning(tmp_path, capsys):
    # pytest turns a RuntimeWarning into an error: the box is rejected
    # before rasterize squares its coordinates
    cfg = write_config(tmp_path, grid={"n": 16, "box": 1e300}, mode="full-solver")
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.grid: ") and err.count("\n") == 1
    assert "squared distance on the box or its dual overflows" in err


@pytest.mark.parametrize("command", ["synthesize", "reconstruct"])
def test_too_strong_reference_is_config_error(tmp_path, capsys, command):
    # a transform peaking above sqrt(float max) has an intensity that
    # overflows: the reference scan rejects it before any phase algebra
    strong = {"dim": 2, "components": [{**REFS[0]["components"][0], "amplitude": 1e157}]}
    cfg = write_config(tmp_path, references=[strong, REFS[1]], grid={"n": 16, "box": 1.5},
                       energies=[9.0, 16.0], mode="full-solver")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: reference 1 is too strong")


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


@pytest.mark.parametrize(
    "name, code, prefix",
    [
        ("ConfigError", 2, "config error"),
        ("BackgroundValidationError", 2, "config error"),
        ("GridMismatchError", 2, "config error"),
        ("UnresolvedGridError", 2, "config error"),
        ("SupportOutsideBoxError", 2, "config error"),
        ("OutOfBallError", 2, "input error"),
        ("EnergyShellError", 2, "config error"),
        ("NoDataError", 2, "config error"),
        ("DegenerateFitError", 2, "config error"),
        ("InputFileError", 2, "input error"),
        ("SolverConvergenceError", 3, "solver failure"),
        ("DegenerateDataError", 4, "threshold failure"),
    ],
)
def test_error_class_sets_exit_code_and_prefix(tmp_path, capsys, monkeypatch, name, code, prefix):
    error = getattr(phaseless.exceptions, name)

    def fail(path):
        raise error("boom")

    monkeypatch.setattr("phaseless.cli.load_config", fail)
    assert main(["synthesize", "--config", str(tmp_path / "cfg.json")]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


COMMAND_LIST = "{forward,synthesize,reconstruct,convergence,ambiguity-demo,bounds}"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 2, "", f"usage: phaseless [-h] {COMMAND_LIST} ...\n"
                    "phaseless: error: the following arguments are required: command\n"),
        (["synth"], 2, "", f"usage: phaseless [-h] {COMMAND_LIST} ...\n"
                           "phaseless: error: argument command: invalid choice: 'synth'"),
        (["--help"], 0, f"usage: phaseless [-h] {COMMAND_LIST} ...\n", ""),
        # an unknown option after a command is reported against the top-level
        # usage, which lists every command although only one parser was built
        (["bounds", "--config", "c.json", "--bogus"], 2, "",
         f"usage: phaseless [-h] {COMMAND_LIST} ...\nphaseless: error: unrecognized arguments: --bogus\n"),
        (["reconstruct", "-h"], 0, "usage: phaseless reconstruct [-h] --config CONFIG", ""),
    ],
    ids=["no-command", "unknown-command", "help", "unknown-option", "command-help"],
)
def test_usage_lists_every_command(capsys, argv, code, out, err):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    got = capsys.readouterr()

    def words(text):  # argparse wraps the usage at the terminal's width
        return " ".join(text.split())

    assert words(got.out).startswith(words(out)) and words(got.err).startswith(words(err))


def test_forward_matches_golden_amplitudes(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"n": 48, "box": 1.5},
        energies=[25.0],
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
        # every cell is its value's shortest repr, and |f|^2 is Python's abs(f) ** 2
        assert all(cell == repr(float(cell)) for cell in g.values())
        assert g["abs2_f"] == repr(abs(complex(float(g["re_f"]), float(g["im_f"]))) ** 2)


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
    expected = grid.wave(WaveVector((0.0, 3.0)).k)
    assert np.array_equal(psi.values, expected)
    report = json.loads((out / "forward_report.json").read_text())
    assert report["results"]["target_is_zero"] is True


@pytest.mark.parametrize("method", ["auto", "born"])
def test_forward_reports_the_contraction_ratio(tmp_path, method):
    cfg = write_config(tmp_path, energies=[9.0], solver={"method": method})
    out = tmp_path / "fwd"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads((out / "forward_report.json").read_text())["results"]["per_energy"]["9.0"]
    assert "converged" not in entry
    # the median ratio of successive updates of the iteration; the direct route has none
    ratio = entry["contraction_ratio"]
    assert ratio is None if method == "auto" else 0.0 < ratio < 1.0


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
    text = (out / "reconstruct_report.json").read_text()
    report = json.loads(text)
    branches = [b["branch"] for b in report["results"]["branches"]]
    assert branches == ["one-reference-plus", "one-reference-minus"]
    # the branches share one mask, and the report writes it twice, alike
    blocks = re.findall(r'\n {8}"mask": (\{\n.*?\n {8}\})', text, re.S)
    assert len(blocks) == 2 and blocks[0] == blocks[1]
    assert json.loads(blocks[0]) == report["results"]["branches"][1]["mask"]


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


def test_ambiguity_demo_names_failed_solves(tmp_path, capsys):
    cfg = write_config(tmp_path, shift=[0.1, 0.0], mode="full-solver", energies=[9.0, 16.0],
                       solver={"method": "born", "max_iterations": 3})
    assert main(["ambiguity-demo", "--config", cfg, "--out", str(tmp_path / "amb")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"solver failure: \d+ channel\(s\) failed at energy 16\n", err)


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


def _missing_dataset(tmp_path):
    cfg = write_config(tmp_path, references=REFS)
    return ["reconstruct", "--config", cfg, str(tmp_path / "nowhere" / "dataset")], "dataset.json"


def _edited_dataset(name, edit):
    """A saved dataset whose file ``name`` is replaced by ``edit`` of its text."""
    def case(tmp_path):
        cfg = write_config(tmp_path, references=REFS, probe_grid={"n": 8, "box": 2.0})
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "syn")]) == 0
        path = tmp_path / "syn" / name
        path.write_text(edit(path.read_text()))
        return ["reconstruct", "--config", cfg, str(tmp_path / "syn" / "dataset")], name

    return case


def _header(edit):
    """A text edit of a dataset header: ``edit`` changes its parsed JSON in place."""
    def apply(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header)

    return apply


def _first_component(header):
    return header["references"][0]["components"][0]


def _malformed_csv(edit):
    """A saved dataset whose CSV lines are replaced by ``edit`` of them, hash re-stamped."""
    def case(tmp_path):
        argv, _ = _edited_dataset("dataset.csv", lambda text: text)(tmp_path)
        csv_path, json_path = tmp_path / "syn" / "dataset.csv", tmp_path / "syn" / "dataset.json"
        text = "\n".join(edit(csv_path.read_text().split("\n")))
        csv_path.write_text(text)
        header = json.loads(json_path.read_text())
        header["csv_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        json_path.write_text(json.dumps(header))
        return argv, "dataset.csv"

    return case


def _cell_moved(lines):
    head, _, flag = lines[1].rpartition(",")
    return [lines[0], head, lines[2] + "," + flag, *lines[3:]]


def _set_cell(row, col, cell):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = cell
        return [*lines[:row], ",".join(cells), *lines[row + 1 :]]

    return edit


def _corner_transfer(lines):
    # the probe grid's first node, |p| = 8.9, lies outside the ball of either energy
    corner = repr(float(GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual().axis(0)[0]))
    return _set_cell(1, 2, corner)(_set_cell(1, 1, corner)(lines))


def _error_table_row(row):
    def case(tmp_path):
        table = tmp_path / "errors.csv"
        table.write_text(f"E,error\n10.0,0.003\n{row}\n40.0,0.0015\n")
        cfg = write_config(tmp_path, bounds={"errors_csv": str(table), "sigma": 4.0})
        return ["bounds", "--config", cfg], "errors.csv"

    return case


@pytest.mark.parametrize(
    "case",
    [
        _missing_dataset,
        _edited_dataset("dataset.csv", lambda text: text.replace("4.0", "4.1", 1)),
        _edited_dataset("dataset.json", lambda text: text.replace("phaseless-dataset", "other")),
        _edited_dataset("dataset.json", lambda text: text[:-3]),
        _error_table_row("20.0"),
        _error_table_row("20.0,abc"),
        _error_table_row("0,0.002"),
        _error_table_row("-1,0.002"),
        _error_table_row("nan,0.002"),
        _error_table_row("inf,0.002"),
        _malformed_csv(_cell_moved),
        _malformed_csv(_set_cell(2, -1, "1.5")),
        _malformed_csv(_set_cell(3, 1, "abc")),
        _malformed_csv(_set_cell(4, -2, "-1.0")),
        _malformed_csv(_corner_transfer),
        _edited_dataset("dataset.json", _header(lambda h: _first_component(h).update(
            center=[-0.9, 0.7]))),
        _edited_dataset("dataset.json", _header(lambda h: h.pop("pgrid"))),
        _edited_dataset("dataset.json", _header(lambda h: h["pgrid"].update(n=3))),
        _edited_dataset("dataset.json", _header(lambda h: _first_component(h).update(
            kind="cube"))),
        _edited_dataset("dataset.json", _header(lambda h: h.update(mode="quantum"))),
        _edited_dataset("dataset.json", _header(lambda h: h.update(convention="left"))),
        _edited_dataset("dataset.json", _header(lambda h: h["pgrid"].update(n=h["pgrid"]["n"] + 0.9))),
        _edited_dataset("dataset.json", _header(lambda h: h.update(comment="hand-edited"))),
        _edited_dataset("dataset.json", _header(lambda h: _first_component(h).update(colour="red"))),
        _edited_dataset("dataset.json", _header(lambda h: h["pgrid"].update(
            box_min=[x + 0.5 for x in h["pgrid"]["box_min"]]))),
    ],
    ids=[
        "missing-dataset", "dataset-hash", "dataset-schema", "dataset-json",
        "error-column-missing", "error-not-a-number", "error-energy-zero",
        "error-energy-negative", "error-energy-nan", "error-energy-inf",
        "csv-cell-moved", "csv-fractional-flag", "csv-non-numeric-value",
        "csv-negative-intensity", "csv-row-outside-ball",
        "header-references-differ", "header-missing-key", "header-bad-grid",
        "header-unknown-primitive", "header-unknown-mode", "header-unknown-convention",
        "header-fractional-n",
        "header-extra-key", "header-component-extra-key", "header-grid-shifted",
    ],
)
def test_bad_input_file_exits_2_naming_it(tmp_path, capsys, case):
    argv, name = case(tmp_path)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert name in err


def _recursive_report_text(obj, indent=""):
    """_report_text as it was before its flat-list fast path: the reference."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (
            f"{inner}{json.dumps(k)}: {_recursive_report_text(obj[k], inner)}" for k in sorted(obj)
        )
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        items = (inner + _recursive_report_text(v, inner) for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(obj)


def _recursive_json_safe(obj):
    """_json_safe as it was before its plain-list fast path: the reference."""
    if type(obj) in (int, str, bool, type(None)):
        return obj
    if isinstance(obj, dict):
        return {k: _recursive_json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_recursive_json_safe(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.ndarray):
        return _recursive_json_safe(obj.tolist())
    if isinstance(obj, complex):
        return [_recursive_json_safe(obj.real), _recursive_json_safe(obj.imag)]
    return obj


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324]
)
_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    _FLOATS,
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.builds(np.float64, _FLOATS),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(complex, _FLOATS, _FLOATS),
    hnp.arrays(
        st.sampled_from([np.int64, np.float64, np.bool_, np.complex128]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
    ),
    # int lists, with bools among the ints in some
    st.lists(st.integers(-5, 10**6) | st.booleans(), max_size=6),
    st.lists(st.integers(-5, 10**6), max_size=6),
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=20,
)


_SHARED = [3, 1, 4]


@settings(max_examples=150, deadline=None)
@given(obj=_REPORTS)
# one list object met more than once, as the one-reference mask lists are
@example(obj={"plus": {"mask": _SHARED}, "minus": {"mask": _SHARED}, "t": (_SHARED, [_SHARED])})
def test_report_text_equals_the_recursive_writer(obj):
    assert _report_text(_json_safe(obj)) == _recursive_report_text(_recursive_json_safe(obj))


def test_report_text_keeps_canonical_values_with_flat_lists_on_one_line():
    obj = {
        "mask": {"target_null": list(range(5)), "ref_null": [[], [7, 9]], "fraction": 0.25},
        "empty": {},
        "rows": ({"E": 4.0, "p": (1.5, -2.0)}, {"E": 9.0, "p": (0.0, "nan")}),
        "flag": True,
        "none": None,
    }
    text = _report_text(obj)
    assert json.loads(text) == json.loads(canonical(obj))
    assert '"target_null": [0, 1, 2, 3, 4]' in text
    assert '"p": [1.5, -2.0]' in text
    assert text.startswith('{\n  "empty": {},\n')


def test_cli_import_skips_quadrature_and_optimizers(tmp_path):
    # the runtime is numpy only: importing the CLI and running each kind of
    # workload (2-D full solver on the direct route, which "auto" takes for
    # a support this small; 2-D oracle with the Richardson estimator; 3-D
    # oracle with one reference) loads no scipy module
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
