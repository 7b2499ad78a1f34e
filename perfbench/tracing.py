"""Spans around the public functions of each ``phaseless`` module.

``install`` replaces each function where its caller looks it up (the
module global that the calling code reads) with a wrapper that records a
span: [name, start, end, parent span, note].  The note holds counts
read from the call's arguments and result, such as a solver report's
iteration count.  Spans stay in memory until the command ends.

``layer_metrics`` turns the spans of one round into the per-layer
metrics listed in BENCHMARK.json.  A layer is a module; its self time is
the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = ("cli", "config", "geometry", "potentials", "solver", "synthesis", "reconstruct",
          "fourier", "fieldio")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.spans[idx][4] = note(args, kwargs, out)
            return out

        return traced


def _solve_note(args, kwargs, out):
    v = args[0]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    report = out[1]
    return {
        "n": v.grid.n,
        "dim": v.grid.dim,
        "iterations": report.iterations,
        "method": report.method,
        "requested": cfg.method if cfg is not None else "auto",
        "zero": not bool(v.values.any()),
    }


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _dataset_note(args, kwargs, out):
    base = str(args[1])
    return {"bytes": _file_bytes(base + ".csv", base + ".json")}


def _mask_note(args, kwargs, out):
    return {"masked": int((out.any_flag & ~out.out_of_ball).sum())}


# (module, attribute looked up by the caller, span name, note)
_TARGETS = [
    ("phaseless.cli", "load_config", "config.load_config", None),
    ("phaseless.cli", "cmd_synthesize", "cli.synthesize", None),
    ("phaseless.cli", "cmd_reconstruct", "cli.reconstruct", None),
    ("phaseless.cli", "cmd_convergence", "cli.convergence", None),
    ("phaseless.cli", "synthesize", "synthesis.synthesize", lambda a, k, o: {"rows": len(o.channels)}),
    ("phaseless.cli", "write_dataset", "synthesis.write_dataset", _dataset_note),
    ("phaseless.cli", "read_dataset", "synthesis.read_dataset", None),
    ("phaseless.cli", "validate_backgrounds", "synthesis.validate_backgrounds", None),
    ("phaseless.cli", "reconstruct", "reconstruct.reconstruct", None),
    ("phaseless.cli", "write_field", "fieldio.write_field", lambda a, k, o: {"bytes": _file_bytes(*o)}),
    ("phaseless.cli", "analytic_hat", "potentials.analytic_hat", None),
    ("phaseless.synthesis", "channels_on_grid", "geometry.channels_on_grid",
     lambda a, k, o: {"channels": len(o[0])}),
    ("phaseless.synthesis", "channel", "geometry.channel", lambda a, k, o: {"channels": 1}),
    ("phaseless.synthesis", "solve_lippmann_schwinger", "solver.solve_lippmann_schwinger", _solve_note),
    ("phaseless.synthesis", "scattering_amplitude", "solver.scattering_amplitude", None),
    ("phaseless.synthesis", "born_amplitude", "solver.born_amplitude", None),
    ("phaseless.synthesis", "rasterize", "potentials.rasterize", None),
    ("phaseless.synthesis", "analytic_hat", "potentials.analytic_hat", None),
    ("phaseless.solver", "analytic_hat", "potentials.analytic_hat", None),
    # the package __init__ rebinds phaseless.reconstruct to the function,
    # so the module is reached through sys.modules
    ("phaseless.reconstruct", "recover_modulus_sq", "reconstruct.recover_modulus_sq", None),
    ("phaseless.reconstruct", "build_mask", "reconstruct.build_mask", _mask_note),
    ("phaseless.reconstruct", "recover_phase_two_refs", "reconstruct.recover_phase", None),
    ("phaseless.reconstruct", "recover_phase_one_ref", "reconstruct.recover_phase", None),
    ("phaseless.reconstruct", "inverse_transform", "fourier.inverse_transform", None),
    ("phaseless.reconstruct", "analytic_hat", "potentials.analytic_hat", None),
]


def install(tracer: Tracer) -> None:
    for module, attr, name, note in _TARGETS:
        mod = sys.modules[module]
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, note))


def _kernel_applications(note: dict) -> int:
    """Kernel applications one solve made, from its report and config.

    Iteration applies the kernel once per step; every solve then applies
    it once more for the independent residual, and a dense solve once
    more to extend the support solution to the grid.
    """
    if note["zero"]:
        return 0
    if note["requested"] == "dense":
        return 2
    steps = note["iterations"]
    return steps + (2 if note["method"] == "dense-direct" else 1)


def layer_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one round, from the spans of each command."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = {"rows": 0, "channels": 0, "dataset_bytes": 0, "field_bytes": 0, "masked": 0,
              "iterations": 0, "dense": 0, "kernel": 0, "fft_points": 0}
    for spans in commands:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, note), inner in zip(spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += end - start - inner
            if not note:
                continue
            counts["rows"] += note.get("rows", 0)
            counts["channels"] += note.get("channels", 0)
            counts["masked"] += note.get("masked", 0)
            if name == "synthesis.write_dataset":
                counts["dataset_bytes"] += note["bytes"]
            if name == "fieldio.write_field":
                counts["field_bytes"] += note["bytes"]
            if name == "solver.solve_lippmann_schwinger":
                k = _kernel_applications(note)
                counts["iterations"] += note["iterations"] if note["requested"] != "dense" else 0
                counts["dense"] += note["method"] == "dense-direct"
                counts["kernel"] += k
                # one forward and one inverse FFT of the 2x zero-padded grid
                counts["fft_points"] += k * 2 * (2 * note["n"]) ** note["dim"]

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    solves = c("solver.solve_lippmann_schwinger")
    out = {
        "solver.solves": solves,
        "solver.solve_s": t("solver.solve_lippmann_schwinger"),
        "solver.iterations": counts["iterations"],
        "solver.dense_solves": counts["dense"],
        "solver.iterative_share": (solves - counts["dense"]) / solves if solves else 0.0,
        "solver.kernel_applications": counts["kernel"],
        "solver.fft_points": counts["fft_points"],
        "solver.amplitude_calls": c("solver.scattering_amplitude"),
        "solver.amplitude_s": t("solver.scattering_amplitude"),
        "solver.born_amplitude_calls": c("solver.born_amplitude"),
        "solver.born_amplitude_s": t("solver.born_amplitude"),
        "geometry.channels": counts["channels"],
        "geometry.channels_on_grid_s": t("geometry.channels_on_grid"),
        "geometry.channel_s": t("geometry.channel"),
        "potentials.analytic_hat_calls": c("potentials.analytic_hat"),
        "potentials.analytic_hat_s": t("potentials.analytic_hat"),
        "potentials.rasterize_s": t("potentials.rasterize"),
        "synthesis.synthesize_s": t("synthesis.synthesize"),
        "synthesis.rows": counts["rows"],
        "synthesis.write_dataset_s": t("synthesis.write_dataset"),
        "synthesis.read_dataset_s": t("synthesis.read_dataset"),
        "synthesis.dataset_bytes": counts["dataset_bytes"],
        "synthesis.validate_backgrounds_s": t("synthesis.validate_backgrounds"),
        "reconstruct.reconstruct_s": t("reconstruct.reconstruct"),
        "reconstruct.modulus_calls": c("reconstruct.recover_modulus_sq"),
        "reconstruct.modulus_s": t("reconstruct.recover_modulus_sq"),
        "reconstruct.build_mask_s": t("reconstruct.build_mask"),
        "reconstruct.phase_calls": c("reconstruct.recover_phase"),
        "reconstruct.phase_s": t("reconstruct.recover_phase"),
        "reconstruct.masked_nodes": counts["masked"],
        "fourier.inverse_transform_s": t("fourier.inverse_transform"),
        "fieldio.write_field_s": t("fieldio.write_field"),
        "fieldio.bytes": counts["field_bytes"],
        "cli.synthesize_s": t("cli.synthesize"),
        "cli.reconstruct_s": t("cli.reconstruct"),
        "cli.convergence_s": t("cli.convergence"),
        "config.load_s": t("config.load_config"),
    }
    out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return out
