import json

import numpy as np
import pytest

from phaseless.exceptions import InputFileError
from phaseless.fieldio import read_field, write_field
from phaseless.fourier import forward_transform, inverse_transform
from phaseless.grids import GridSpec, ScalarField, SpectralField
from phaseless.potentials import rasterize


def test_scalar_roundtrip(tmp_path, box_grid, rng):
    values = rng.standard_normal(box_grid.shape) + 1j * rng.standard_normal(box_grid.shape)
    field = ScalarField(box_grid, values)
    base = tmp_path / "field"
    bin_path, json_path = write_field(field, base)
    assert bin_path.stat().st_size == 16 * box_grid.node_count
    back = read_field(base)
    assert isinstance(back, ScalarField)
    assert back.grid == box_grid
    assert np.array_equal(back.values, values)
    meta = json.loads(json_path.read_text())
    assert meta["kind"] == "spatial"
    assert meta["box_min"] == [-1.5, -1.5]


def test_spectral_roundtrip_preserves_inversion(tmp_path, box_grid, off_center_ball):
    spec = forward_transform(rasterize(off_center_ball, box_grid))
    base = tmp_path / "spec"
    _, json_path = write_field(spec, base)
    meta = json.loads(json_path.read_text())
    assert meta["kind"] == "spectral"
    assert meta["spatial_box_min"] == [-1.5, -1.5]
    back = read_field(base)
    assert isinstance(back, SpectralField)
    assert np.array_equal(back.values, spec.values)
    # the sidecar carries enough to rebuild real space
    v1 = inverse_transform(spec, box_grid)
    v2 = inverse_transform(back, back.spatial_grid)
    assert np.array_equal(v1.values, v2.values)


def test_read_rejects_missing_sidecar(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_field(tmp_path / "nothing")


@pytest.mark.parametrize("dim, n", [(2, 10), (3, 8)])
def test_bin_is_interleaved_f8_and_reads_back_bit_for_bit(tmp_path, rng, dim, n):
    grid = GridSpec(dim, n, (-1.5,) * dim, (1.5,) * dim)
    values = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)).ravel()
    # signed zeros and subnormals in both parts
    values[:4] = [
        complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(5e-324, -5e-324),
    ]
    values = values.reshape(grid.shape)
    for field in (ScalarField(grid, values), SpectralField(grid.dual(), values, grid)):
        base = tmp_path / f"{type(field).__name__}{dim}"
        bin_path, _ = write_field(field, base)
        raw = np.empty(2 * values.size, dtype="<f8")
        raw[0::2] = values.real.ravel()
        raw[1::2] = values.imag.ravel()
        assert bin_path.read_bytes() == raw.tobytes()
        back = read_field(base)
        assert type(back) is type(field) and back.grid == field.grid
        assert back.values.tobytes() == field.values.tobytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(kind="polar"), "sidecar.kind: expected one of ('spatial', 'spectral')"),
        (lambda m: m.update(n=8.5), "sidecar.n: expected an integer, got 8.5"),
        (lambda m: m.update(comment="x"), "sidecar: unknown keys ['comment']"),
        (lambda m: m.pop("spatial_box_max"), "sidecar: box_min and box_max are required"),
        (lambda m: m["box_max"].__setitem__(0, float("nan")), "sidecar.box_max: expected a finite"),
        (lambda m: m.update(n=10), "cannot reshape array"),
    ],
    ids=["unknown-kind", "fractional-n", "extra-key", "missing-spatial-box", "nan-box", "wrong-n"],
)
def test_malformed_sidecar_is_input_error_naming_the_field(tmp_path, box_grid, edit, message):
    base = tmp_path / "spec"
    _, json_path = write_field(SpectralField(box_grid.dual(), np.ones(box_grid.shape), box_grid), base)
    meta = json.loads(json_path.read_text())
    edit(meta)
    json_path.write_text(json.dumps(meta))
    with pytest.raises(InputFileError) as info:
        read_field(base)
    assert str(info.value).startswith(f"{base}: malformed field ({message}")
