import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseless.config import config_from_dict, config_to_dict, load_config
from phaseless.exceptions import ConfigError


def _spec(kind, **fields):
    comp = {"kind": kind, **fields}
    return {"dim": len(fields["center"]), "components": [comp]}


def minimal(**overrides):
    doc = {
        "schema": "phaseless-experiment/1",
        "dimension": 2,
        "grid": {"n": 16, "box": 1.5},
        "target": {
            "dim": 2,
            "components": [
                {"kind": "ball", "center": [0.3, -0.2], "radius": 0.25, "amplitude": 1.0}
            ],
        },
        "energies": [4.0, 9.0],
    }
    doc.update(overrides)
    return doc


def test_minimal_config_defaults():
    cfg = config_from_dict(minimal())
    assert cfg.scenario == "unnamed"
    assert cfg.mode == "born-oracle"
    assert cfg.references is None
    assert cfg.grid.box_min == (-1.5, -1.5)
    assert cfg.solver.tolerance == 1e-8
    assert cfg.reconstruction["estimator"] == "top"
    assert cfg.convergence["slope_window"] == (-0.75, -0.30)
    assert cfg.bounds["a0"] == 1.0
    assert cfg.probe_grid is None
    assert cfg.probe().key() == cfg.grid.dual().key()


def test_wrong_schema_rejected():
    with pytest.raises(ConfigError, match="schema"):
        config_from_dict(minimal(schema="phaseless-experiment/2"))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["grid"].update(spacing=0.1),
        lambda d: d.update(solver={"tol": 1e-8}),
        lambda d: d.update(reconstruction={"estimator": "top", "cut": 3.0}),
        lambda d: d.update(energies={"E_min": 1.0, "E_max": 4.0, "count": 3, "steps": 4}),
    ],
)
def test_unknown_keys_rejected_everywhere(mutate):
    doc = minimal()
    mutate(doc)
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(doc)


def test_missing_required_keys():
    doc = minimal()
    del doc["energies"]
    with pytest.raises(ConfigError, match="energies"):
        config_from_dict(doc)
    doc = minimal()
    del doc["target"]
    with pytest.raises(ConfigError, match="target"):
        config_from_dict(doc)


def test_energy_generators():
    cfg = config_from_dict(
        minimal(energies={"E_min": 1.0, "E_max": 16.0, "count": 3, "spacing": "geometric"})
    )
    assert_allclose(list(cfg.energies), [1.0, 4.0, 16.0], rtol=1e-12)
    cfg = config_from_dict(
        minimal(energies={"E_min": 1.0, "E_max": 3.0, "count": 3, "spacing": "linear"})
    )
    assert_allclose(list(cfg.energies), [1.0, 2.0, 3.0], rtol=1e-12)
    cfg = config_from_dict(minimal(energies={"list": [2.0, 5.0]}))
    assert list(cfg.energies) == [2.0, 5.0]
    with pytest.raises(ConfigError, match="spacing"):
        config_from_dict(
            minimal(energies={"E_min": 1.0, "E_max": 2.0, "count": 2, "spacing": "random"})
        )
    with pytest.raises(ConfigError):
        config_from_dict(minimal(energies={"count": 3}))


def test_box_forms_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict(
            minimal(grid={"n": 16, "box": 1.5, "box_min": [-1, -1], "box_max": [1, 1]})
        )
    cfg = config_from_dict(
        minimal(grid={"n": 16, "box_min": [-1.0, -2.0], "box_max": [1.0, 2.0]})
    )
    assert cfg.grid.box_max == (1.0, 2.0)
    with pytest.raises(ConfigError):
        config_from_dict(minimal(grid={"n": 16}))


def test_dimension_mismatches():
    with pytest.raises(ConfigError, match="dimension"):
        config_from_dict(
            minimal(
                target={
                    "dim": 3,
                    "components": [
                        {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.2, "amplitude": 1.0}
                    ],
                }
            )
        )
    with pytest.raises(ConfigError, match="shift"):
        config_from_dict(minimal(shift=[0.1, 0.2, 0.3]))
    with pytest.raises(ConfigError, match="dimension"):
        config_from_dict(minimal(dimension=4))


def test_mode_and_convention_validated():
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict(minimal(mode="exact"))
    with pytest.raises(ConfigError, match="convention"):
        config_from_dict(minimal(convention="flipped"))
    cfg = config_from_dict(minimal(convention="mirror"))
    assert cfg.convention == "mirror"


def test_references_parse_and_validate():
    refs = [
        _spec("ball", center=[-0.93, -0.61], radius=0.3, amplitude=1.0),
        _spec("ball", center=[0.88, 0.79], radius=0.45, amplitude=1.0),
    ]
    cfg = config_from_dict(minimal(references=refs))
    assert cfg.references is not None and cfg.references.count == 2
    with pytest.raises(ConfigError, match="references"):
        config_from_dict(minimal(references=[refs[0], refs[0]]))


def test_probe_grid_overrides_dual():
    cfg = config_from_dict(minimal(probe_grid={"n": 8, "box": 2.0}))
    assert cfg.probe().key() == cfg.probe_grid.dual().key()


def test_reconstruction_options_flow_through():
    cfg = config_from_dict(
        minimal(
            reconstruction={
                "estimator": "richardson",
                "p_cut": 9.0,
                "restrict_support": True,
                "declared_real": True,
            }
        )
    )
    opts = cfg.reconstruction_options()
    assert opts.estimator == "richardson"
    assert opts.p_cut == 9.0
    assert opts.declared_support is not None
    assert opts.declared_real
    relaxed = config_from_dict(minimal(reconstruction={"restrict_support": False}))
    assert relaxed.reconstruction_options().declared_support is None


def test_solver_block_parses():
    cfg = config_from_dict(
        minimal(solver={"tolerance": 1e-10, "max_iterations": 50, "method": "dense"})
    )
    assert cfg.solver.tolerance == 1e-10
    assert cfg.solver.max_iterations == 50
    assert cfg.solver.method == "dense"
    with pytest.raises(ConfigError):
        config_from_dict(minimal(solver={"method": "magic"}))


def test_convergence_window_validated():
    with pytest.raises(ConfigError, match="window"):
        config_from_dict(minimal(convergence={"slope_window": [-0.3, -0.75]}))


def test_load_config_and_echo_idempotent(tmp_path):
    doc = minimal(
        scenario="echo-check",
        references=[_spec("ball", center=[-0.93, -0.61], radius=0.3, amplitude=1.0)],
        shift=[0.2, -0.1],
        output="out",
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    echo = config_to_dict(cfg)
    again = config_to_dict(config_from_dict(echo))
    assert echo == again
    assert echo["scenario"] == "echo-check"


def test_retired_fallback_key_still_loads():
    # "auto" without the fallback never went dense: that is the "born" route
    cfg = config_from_dict(minimal(solver={"method": "auto", "fallback": False}))
    assert cfg.solver.method == "born"
    echo = config_to_dict(cfg)
    assert "fallback" not in echo["solver"]
    assert config_to_dict(config_from_dict(echo)) == echo
    kept = config_from_dict(minimal(solver={"method": "dense", "fallback": False}))
    assert kept.solver.method == "dense"
    assert config_from_dict(minimal(solver={"fallback": True})).solver.method == "auto"


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
