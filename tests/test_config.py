import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phaseless.config import config_from_dict, config_to_dict, load_config
from phaseless.exceptions import ConfigError, InputFileError
from phaseless.synthesis import read_dataset, synthesize, write_dataset


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
    assert cfg.reconstruction.estimator == "top"
    assert cfg.reconstruction.spatial_grid == cfg.grid
    assert cfg.convergence["slope_window"] == (-0.75, -0.30)
    assert cfg.bounds["a0"] == 1.0
    assert cfg.probe_grid is None
    assert cfg.probe() == cfg.grid.dual()


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
        lambda d: d["target"].update(colour="red"),
        lambda d: d["target"]["components"][0].update(colour="red"),
        # the singular-node thresholds are derived, never set
        lambda d: d.update(reconstruction={"eps_zero": 1e-3}),
        lambda d: d.update(reconstruction={"eps_pair": 1e-3}),
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
    assert cfg.probe() == cfg.probe_grid.dual()


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
    opts = cfg.reconstruction
    assert opts.estimator == "richardson"
    assert opts.p_cut == 9.0
    assert opts.declared_support is not None
    assert opts.declared_real
    assert opts.spatial_grid == cfg.grid
    relaxed = config_from_dict(
        minimal(reconstruction={"restrict_support": False}, probe_grid={"n": 8, "box": 2.0})
    )
    assert relaxed.reconstruction.declared_support is None
    assert relaxed.reconstruction.spatial_grid == relaxed.probe_grid


def test_solver_block_parses():
    cfg = config_from_dict(
        minimal(solver={"tolerance": 1e-10, "max_iterations": 50, "method": "born"})
    )
    assert cfg.solver.tolerance == 1e-10
    assert cfg.solver.max_iterations == 50
    assert cfg.solver.method == "born"
    with pytest.raises(ConfigError):
        config_from_dict(minimal(solver={"method": "magic"}))
    # an integral float is an integer, an integer is a number: both keep
    # their key's type, and the echo re-parses to the same config
    cfg = config_from_dict(minimal(grid={"n": 16.0, "box": 2}, solver={"max_iterations": 50.0, "tolerance": 1}))
    assert type(cfg.grid.n) is int and type(cfg.solver.max_iterations) is int
    assert type(cfg.solver.tolerance) is float and cfg.solver.tolerance == 1.0
    echo = config_to_dict(cfg)
    assert config_to_dict(config_from_dict(echo)) == echo


@pytest.mark.parametrize(
    "solver",
    [
        {"tolerance": 0.0},
        {"tolerance": -1.0, "method": "born"},
        {"max_iterations": 0},
        {"resolution_factor": 0.0},
        {"resolution_factor": -8.0},
        {"dense_limit": -1},
    ],
    ids=["zero-tolerance", "negative-tolerance", "no-iterations", "zero-resolution",
         "negative-resolution", "negative-dense-limit"],
)
def test_solver_ranges_are_config_errors(solver):
    with pytest.raises(ConfigError, match=r"^config\.solver: "):
        config_from_dict(minimal(solver=solver))


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


def test_retired_fallback_key_is_config_error():
    # the key is gone: method "born" is what "auto" without the fallback did
    with pytest.raises(ConfigError, match="fallback"):
        config_from_dict(minimal(solver={"fallback": False}))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def _component(doc):
    return doc["target"]["components"][0]


_REFS = [
    _spec("ball", center=[-0.93, -0.61], radius=0.3, amplitude=1.0),
    _spec("ball", center=[0.88, 0.79], radius=0.45, amplitude=1.0),
]
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: _component(d).update(radius="0.25"), "config.target.components[0].radius"),
        (lambda d: _component(d).update(center=["0.3", -0.2]), "config.target.components[0].center"),
        (lambda d: d["target"].update(dim=2.5), "config.target.dim"),
        (lambda d: _component(d).update(amplitude=_NAN), "config.target.components[0].amplitude"),
        (lambda d: _component(d).update(amplitude=_INF), "config.target.components[0].amplitude"),
        (lambda d: _component(d).update(amplitude=[1.0, _NAN]),
         "config.target.components[0].amplitude"),
        (lambda d: d.update(shift=[_NAN, 0.0]), "config.shift"),
        (lambda d: d.update(solver={"tolerance": _INF}), "config.solver.tolerance"),
        (lambda d: d.update(reconstruction={"p_cut": _NAN}), "config.reconstruction.p_cut"),
        (lambda d: d.update(bounds={"a0": _INF}), "config.bounds.a0"),
        (lambda d: d.update(energies=[_NAN, 9.0]), "config.energies"),
        (lambda d: d.update(references=copy.deepcopy(_REFS))
         or d["references"][1]["components"][0].update(radius=-_INF),
         "config.references[1].components[0].radius"),
        (lambda d: _component(d).update(radius=0.0), "config.target.components[0]"),
        (lambda d: d["target"]["components"].append(
            {"kind": "gaussian", "center": [0.0, 0.0], "width": 0.1, "cutoff": 0.0, "amplitude": 1.0}),
         "config.target.components[1]"),
        (lambda d: d.update(reconstruction={"p_cut": -1.0}), "config.reconstruction"),
        (lambda d: d.update(grid={"n": 16, "box": 1e-320}), "config.grid"),
        (lambda d: d.update(grid={"n": 1e300, "box": 1.5}), "config.grid"),
        (lambda d: d.update(grid={"n": 10**8, "box": 1.5}), "config.grid"),
        (lambda d: d.update(probe_grid={"n": 8, "box": 1e-320}), "config.probe_grid"),
        (lambda d: d.update(energies={"E_min": 9, "E_max": 16, "count": 1e300}),
         "config.energies.count"),
        (lambda d: d.update(energies={"E_min": 9, "E_max": 16, "count": 10**9}),
         "config.energies.count"),
    ],
    ids=[
        "radius-string", "center-string", "dim-fraction", "amplitude-nan", "amplitude-inf",
        "amplitude-imag-nan", "shift-nan", "tolerance-inf", "p-cut-nan", "a0-inf",
        "energy-nan", "reference-radius-inf", "radius-zero", "cutoff-zero", "p-cut-negative",
        "box-dual-not-finite", "n-beyond-index",
        "n-field-beyond-memory",
        "probe-box-dual-not-finite", "energy-count-1e300", "energy-count-1e9",
    ],
)
def test_each_value_is_read_by_its_rules_and_named_by_its_path(mutate, path):
    # values of the wrong JSON type, non-finite numbers and values out
    # of their type's range, at every depth, each named by its key path
    doc = minimal()
    mutate(doc)
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ": "):
        config_from_dict(doc)


def test_missing_component_key_names_its_path():
    doc = minimal()
    del _component(doc)["radius"]
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value) == "config.target.components[0]: missing required key 'radius'"


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1e400", "expected a finite number, got inf"),
        ("-1e400", "expected a finite number, got -inf"),
        ("NaN", "expected a finite number, got nan"),
        ("Infinity", "expected a finite number, got inf"),
    ],
)
def test_non_finite_json_literals_are_rejected(tmp_path, literal, message):
    text = json.dumps(minimal()).replace('"radius": 0.25', f'"radius": {literal}')
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value) == f"config.target.components[0].radius: {message}"


def _leaves(node, path=()):
    """The path of every value below ``node`` of a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _leaves(value, path + (key,))


_EXTRA_KEY = object()
_EDGES = [0, -1, 1e-320, 1e300, _NAN, _INF, -_INF, 2.5, "1", True, [], {}, _EXTRA_KEY]


def _edited(doc, path, edge):
    """A copy of ``doc`` whose value at ``path`` is ``edge``, or whose innermost object
    on the path to it gets an extra key."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if edge is not _EXTRA_KEY:
        parent[path[-1]] = edge
        return doc
    target = parent[path[-1]]
    objects = [o for o in (doc, parent, target) if isinstance(o, dict)]
    objects[-1]["extra"] = 1
    return doc


_CONFIG = minimal(
    references=_REFS,
    solver={"tolerance": 1e-8, "max_iterations": 50, "method": "born", "dense_limit": 100},
    reconstruction={"estimator": "top", "p_cut": 3.0},
    convergence={"slope_window": [-0.75, -0.3]},
    bounds={"sigma": 4.0, "a0": 1.0},
    probe_grid={"n": 8, "box": 2.0},
    shift=[0.2, -0.1],
    output="out",
)


@pytest.fixture(scope="module")
def written_dataset(tmp_path_factory):
    """A written 2-D dataset with two references and its target: (base, header)."""
    cfg = config_from_dict(_CONFIG)
    ds = synthesize(cfg.target, cfg.references, cfg.energies, cfg.probe())
    base = str(tmp_path_factory.mktemp("header") / "dataset")
    write_dataset(ds, base)
    with open(base + ".json") as fh:
        return base, json.load(fh)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_returns_or_raises_a_typed_error(written_dataset, data):
    """One edge value at one leaf of a config or a dataset header: read, or a typed error."""
    base, header = written_dataset
    doc = data.draw(st.sampled_from(["config", "header"]))
    original = _CONFIG if doc == "config" else header
    path = data.draw(st.sampled_from(list(_leaves(original))))
    edge = data.draw(st.sampled_from(_EDGES))
    text = json.dumps(_edited(original, path, edge))
    if doc == "config":
        with open(base + ".cfg", "w") as fh:
            fh.write(text)
        try:
            load_config(base + ".cfg")
        except ConfigError:
            pass
    else:
        with open(base + ".json", "w") as fh:
            fh.write(text)
        try:
            read_dataset(base)
        except InputFileError:
            pass
