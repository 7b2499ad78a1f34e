"""Acceptance gate: every shipped guarantee, one test and one printed verdict each.

Each test prints "CRITERION n: PASS/FAIL: <measured values>" straight to
the terminal (bypassing capture) so the gate is auditable from a plain
pytest run.  Heavy artifacts are built once in module-scoped fixtures
and shared across the criteria that reuse them.
"""

import json
import time

import numpy as np
import pytest

from phaseless.cli import main
from phaseless.fourier import inverse_transform
from phaseless.geometry import EnergySet
from phaseless.grids import GridSpec, SpectralField
from phaseless.potentials import PotentialSpec, analytic_hat, rasterize
from phaseless.reconstruct import (
    ReconstructionOptions,
    _taper_window,
    reconstruct,
    recover_modulus_sq,
)
from phaseless.solver import SolverConfig, WaveVector, solve_lippmann_schwinger
from phaseless.synthesis import BackgroundSet, synthesize, translation_twin_demo

TARGET = PotentialSpec.ball((0.3, -0.2), 0.25, 1.0)
REFS = BackgroundSet(
    (
        PotentialSpec.ball((-0.93, -0.61), 0.3, 1.0),
        PotentialSpec.ball((0.88, 0.79), 0.45, 1.0),
    )
)
SGRID = GridSpec(2, 64, (-1.5, -1.5), (1.5, 1.5))


@pytest.fixture
def verdict(capsys):
    def emit(n, ok, detail):
        with capsys.disabled():
            print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {n} failed: {detail}"

    return emit


@pytest.fixture(scope="module")
def oracle_run():
    """Born-oracle dataset over two ball references plus its inversion."""
    pgrid = SGRID.dual()
    ds = synthesize(TARGET, REFS, EnergySet((25.0, 50.0)), pgrid)
    (res,) = reconstruct(ds, options=ReconstructionOptions(spatial_grid=SGRID))
    truth = analytic_hat(TARGET, pgrid.nodes())
    return ds, res, truth


def test_criterion_1_oracle_exactness(oracle_run, verdict):
    ds, res, truth = oracle_run
    usable = ~res.mask.any_flag
    err = float(np.abs(res.spectrum.values.ravel()[usable] - truth[usable]).max())
    frac = res.mask.masked_fraction
    ok = err <= 1e-8 and frac <= 0.05
    verdict(
        1,
        ok,
        f"off-mask max |vhat_rec - vhat| = {err:.3e} (limit 1e-08), "
        f"masked fraction {100 * frac:.2f}% of in-ball nodes (limit 5%)",
    )


@pytest.fixture(scope="module")
def decay_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("decay")
    config = {
        "schema": "phaseless-experiment/1",
        "scenario": "high-energy-decay",
        "dimension": 2,
        "grid": {"n": 160, "box": 1.5},
        "target": {
            "dim": 2,
            "components": [
                {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5, "amplitude": 1.0}
            ],
        },
        "probe_grid": {"n": 8, "box": 2.0},
        "energies": [25.0, 50.0, 100.0, 200.0, 400.0],
        "mode": "full-solver",
    }
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    start = time.monotonic()
    code = main(["convergence", "--config", str(cfg_path), "--out", str(outdir / "run")])
    elapsed = time.monotonic() - start
    report = json.loads((outdir / "run" / "convergence_report.json").read_text())
    return code, report, elapsed


def test_criterion_2_high_energy_decay(decay_run, verdict):
    code, report, elapsed = decay_run
    slope = report["results"]["slope"]
    ok = code == 0 and -0.75 <= slope <= -0.30
    verdict(
        2,
        ok,
        f"full-solver intensity error slope {slope:.4f} over E=25..400 "
        f"(window [-0.75, -0.30]), exit code {code}, {elapsed:.1f}s",
    )


def test_criterion_3_solver_equivalence(verdict):
    grid = GridSpec(2, 32, (-1.5, -1.5), (1.5, 1.5))
    field = rasterize(TARGET, grid)
    # 32 points across the box cannot hold 8 nodes per wavelength at
    # E = 400; two per wavelength still satisfies the Nyquist floor and
    # is the documented setting for this cross-check
    worst_rel, worst_res = 0.0, 0.0
    for E in (100.0, 200.0, 400.0):
        k = WaveVector((0.0, np.sqrt(E)))
        born = SolverConfig(method="born", resolution_factor=2.0)
        dense = SolverConfig(method="dense", resolution_factor=2.0)
        psi_b, rep_b = solve_lippmann_schwinger(field, k, born)
        psi_d, rep_d = solve_lippmann_schwinger(field, k, dense)
        rel = float(
            np.linalg.norm(psi_b.values - psi_d.values) / np.linalg.norm(psi_d.values)
        )
        worst_rel = max(worst_rel, rel)
        worst_res = max(worst_res, rep_b.residual, rep_d.residual)
    ok = worst_rel <= 1e-6 and worst_res <= 1e-8
    verdict(
        3,
        ok,
        f"born vs dense relative L2 difference {worst_rel:.3e} (limit 1e-06), "
        f"worst residual {worst_res:.3e} (limit 1e-08) at E=100,200,400 on 32^2",
    )


def test_criterion_4_translation_invisibility(verdict):
    smooth = PotentialSpec.gaussian((0.0, 0.0), width=0.12, cutoff=0.44, amplitude=1.0)
    y = (0.2, -0.1)
    pgrid = GridSpec(2, 8, (-2.0, -2.0), (2.0, 2.0)).dual()
    grid = GridSpec(2, 160, (-1.0, -1.0), (1.0, 1.0))
    born_gap = translation_twin_demo(smooth, y, 100.0, pgrid)
    full_gap = translation_twin_demo(
        smooth, y, 100.0, pgrid, mode="full-solver", grid=grid
    )
    tol = SolverConfig().tolerance
    ok = born_gap <= 1e-12 and full_gap <= 10.0 * tol
    verdict(
        4,
        ok,
        f"shift y={y}: born discrepancy {born_gap:.3e} (limit 1e-12), "
        f"full-solver discrepancy {full_gap:.3e} (limit {10.0 * tol:.0e})",
    )


def test_criterion_5_branch_enumeration(verdict):
    # a one-sided complex target keeps the true transform off the
    # conjugate-symmetric locus, so only one global branch can win
    sgrid = GridSpec(2, 16, (-2.0, -2.0), (2.0, 2.0))
    pgrid = sgrid.dual()
    v = PotentialSpec.gaussian((0.44, 0.0), width=0.035, cutoff=0.12, amplitude=0.8j)
    refs = BackgroundSet((PotentialSpec.ball((0.0, 0.0), 0.3, 1.0),))
    ds = synthesize(v, refs, EnergySet((1.4, 2.8)), pgrid)
    out = reconstruct(ds, options=ReconstructionOptions(spatial_grid=sgrid))
    two_candidates = len(out) == 2
    plus, minus = out
    usable = np.nonzero(~plus.mask.any_flag)[0]
    truth = analytic_hat(v, pgrid.nodes())
    what = analytic_hat(refs.backgrounds[0], pgrid.nodes())

    identity_worst = 0.0
    moduli = recover_modulus_sq(ds)
    for node in usable:
        m1 = moduli[node, 1]
        for branch in (plus, minus):
            z = branch.spectrum.values.ravel()[node]
            identity_worst = max(identity_worst, abs(abs(z + what[node]) ** 2 - m1))

    errs = [
        float(np.abs(b.spectrum.values.ravel()[usable] - truth[usable]).max())
        for b in (plus, minus)
    ]
    matching = sum(e <= 1e-8 for e in errs)
    ok = two_candidates and identity_worst <= 1e-12 and matching == 1
    verdict(
        5,
        ok,
        f"two candidates: {two_candidates}; interference identity residual "
        f"{identity_worst:.3e} (limit 1e-12) on {usable.size} nodes; branch errors "
        f"plus {errs[0]:.3e} / minus {errs[1]:.3e}, exactly one <= 1e-08: {matching == 1}",
    )


def _band_limited_truth(spec, pgrid, sgrid, p_cut, taper_fraction, support_of):
    """True potential pushed through the same band limit and support crop."""
    hat = analytic_hat(spec, pgrid.nodes())
    window = _taper_window(np.linalg.norm(pgrid.nodes(), axis=1), p_cut, taper_fraction)
    banded = SpectralField(pgrid, (hat * window).reshape(pgrid.shape), sgrid)
    values = inverse_transform(banded, sgrid).values
    mesh = np.meshgrid(*sgrid.axes(), indexing="ij")
    keep = np.zeros(sgrid.shape, dtype=bool)
    for center, radius in support_of.support_balls():
        r2 = sum((mesh[a] - center[a]) ** 2 for a in range(sgrid.dim))
        keep |= r2 <= radius * radius
    return np.where(keep, values, 0.0)


def test_criterion_6_real_space_quality(oracle_run, verdict):
    ds, _, _ = oracle_run
    p_cut = 0.9 * 2.0 * np.sqrt(50.0)
    opts = ReconstructionOptions(
        spatial_grid=SGRID, p_cut=p_cut, declared_support=TARGET
    )
    (res,) = reconstruct(ds, options=opts)
    truth = _band_limited_truth(TARGET, ds.pgrid, SGRID, p_cut, opts.taper_fraction, TARGET)
    oracle_err = float(
        np.linalg.norm(res.potential.values - truth) / np.linalg.norm(truth)
    )

    # full-solver runs at two top energies; quality must not regress
    grid96 = GridSpec(2, 96, (-1.5, -1.5), (1.5, 1.5))
    pg96 = grid96.dual()
    full_errs = {}
    for e_max in (100.0, 400.0):
        ds_full = synthesize(
            TARGET, REFS, EnergySet((e_max,)), pg96, mode="full-solver", grid=grid96
        )
        opts_full = ReconstructionOptions(
            spatial_grid=grid96, p_cut=18.0, declared_support=TARGET, declared_real=True
        )
        (res_full,) = reconstruct(ds_full, options=opts_full)
        truth96 = _band_limited_truth(TARGET, pg96, grid96, 18.0, 0.1, TARGET)
        full_errs[e_max] = float(
            np.linalg.norm(res_full.potential.values - truth96) / np.linalg.norm(truth96)
        )
    ok = oracle_err <= 0.15 and full_errs[400.0] <= 1.1 * full_errs[100.0]
    verdict(
        6,
        ok,
        f"oracle relative L2 vs band-limited truth {100 * oracle_err:.2f}% (limit 15%); "
        f"full-solver {100 * full_errs[100.0]:.2f}% at E=100 -> "
        f"{100 * full_errs[400.0]:.2f}% at E=400 (allowed up to 10% regression)",
    )


def test_criterion_7_constants(verdict):
    from phaseless.bounds import sup_weight_on_support, weight_norm_constant

    c1 = weight_norm_constant(2, 4.0)
    c1_err = abs(c1 - np.sqrt(np.pi))
    c2 = sup_weight_on_support(PotentialSpec.ball((0.0, 0.0), 1.0, 1.0), 4.0)
    ok = c1_err <= 1e-8 and c2 == 4.0
    verdict(
        7,
        ok,
        f"weight integral constant(d=2, sigma=4) = {c1!r}, |err| = {c1_err:.2e} "
        f"(limit 1e-08); support weight peak(unit ball, sigma=4) = {c2!r} (exact 4)",
    )


def test_criterion_8_convention_and_determinism(tmp_path, verdict):
    # transverse-direction independence of the oracle recovery
    pgrid = SGRID.dual()
    runs = {}
    for conv in ("default", "mirror"):
        ds = synthesize(TARGET, REFS, EnergySet((25.0, 50.0)), pgrid, convention=conv)
        (runs[conv],) = reconstruct(ds, options=ReconstructionOptions(spatial_grid=SGRID))
    both = ~(runs["default"].mask.any_flag | runs["mirror"].mask.any_flag)
    gap = float(
        np.abs(
            runs["default"].spectrum.values.ravel()[both]
            - runs["mirror"].spectrum.values.ravel()[both]
        ).max()
    )

    config = {
        "schema": "phaseless-experiment/1",
        "dimension": 2,
        "grid": {"n": 32, "box": 1.5},
        "target": {
            "dim": 2,
            "components": [
                {"kind": "ball", "center": [0.3, -0.2], "radius": 0.25, "amplitude": 1.0}
            ],
        },
        "probe_grid": {"n": 8, "box": 2.0},
        "energies": [4.0, 9.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        outs.append(
            tuple(
                (tmp_path / name / f).read_bytes()
                for f in ("dataset.csv", "dataset.json", "synthesize_report.json")
            )
        )
    identical = outs[0] == outs[1]
    ok = gap <= 1e-12 and identical
    verdict(
        8,
        ok,
        f"mirrored transverse field changes recovered vhat by {gap:.3e} "
        f"(limit 1e-12); repeated runs byte-identical: {identical}",
    )
