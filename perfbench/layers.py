"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
timing wrapper in every ``biphoton`` module namespace that binds it, so
calls made between modules (``jsa`` calling ``phase_mismatch``, ``cli``
calling ``gvm_angle``) are caught where they are made. A layer's self time
is its span minus the spans of the layers it calls. ``calls`` counts entries
into a layer from another layer, so ``compute_jsa`` calling
``phasematching_function`` is one ``jsa.assemble`` call.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: layer -> (module, public functions timed as that layer)
LAYERS = {
    "config.load": ("biphoton.config", ("load_config", "default_config")),
    "dispersion": ("biphoton.dispersion", (
        "refractive_index", "wavenumber", "inverse_group_velocity", "group_velocity")),
    "phasematch": ("biphoton.phasematch", (
        "unpoled_mismatch", "phase_mismatch", "solve_poling_period", "gvm_angle",
        "gvm_degenerate_wavelength")),
    "jsa.assemble": ("biphoton.jsa", ("compute_jsa", "pump_envelope", "phasematching_function")),
    "jsa.schmidt": ("biphoton.jsa", ("schmidt_decompose",)),
    "jsa.filter": ("biphoton.jsa", ("apply_filter",)),
    "jsa.marginal": ("biphoton.jsa", ("marginal_spectrum",)),
    "jsa.optimize": ("biphoton.jsa", ("optimize_pump_bandwidth",)),
    "interference.herald": ("biphoton.interference", ("heralded_spectral_state",)),
    "interference.hom": ("biphoton.interference", ("hom_visibility", "hom_curve")),
    "polarization.simulate": ("biphoton.polarization", ("model_state", "simulate_tomography")),
    "polarization.mle": ("biphoton.polarization", ("reconstruct_mle",)),
    "spectrometer.sample": ("biphoton.spectrometer", ("simulate_jsi_histogram",)),
    "cli": ("biphoton.cli", ("main",)),
}


def _wavelength_points(args, kwargs) -> int:
    """Wavelengths handed to ``wavenumber(sset, wavelength_nm, ...)``."""
    return int(np.size(kwargs["wavelength_nm"] if "wavelength_nm" in kwargs else args[1]))


#: (layer, function) -> counter name and the count one call adds
COUNTERS = {("dispersion", "wavenumber"): ("dispersion.points", _wavelength_points)}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, layer: str, name: str, func):
        counter = COUNTERS.get((layer, name))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs)
            outer = self._stack[-1][0] if self._stack else None
            if outer != layer:
                self.calls[layer] = self.calls.get(layer, 0) + 1
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self._stack.pop()
                self.self_s[layer] = self.self_s.get(layer, 0.0) + span - frame[1]
                if self._stack:
                    self._stack[-1][1] += span

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a biphoton module binds it."""
        import importlib

        wrappers = {}
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                func = getattr(module, name)
                wrappers[id(func)] = (func, self._wrap(layer, name, func))
        for module_name, module in list(sys.modules.items()):
            if module_name != "biphoton" and not module_name.startswith("biphoton."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    """Sum several snapshots (the CLI subprocesses of one round)."""
    total = {"self_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for part in total:
            for key, value in snap[part].items():
                total[part][key] = total[part].get(key, 0) + value
    return total


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cumulative s of ``biphoton.cli``, s spent importing scipy) from -X importtime.

    The scipy share sums the cumulative time of every scipy module whose
    importer is not itself a scipy module, so nested imports count once.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    # importtime prints children before their parent, one level deeper
    parents = [None] * len(entries)
    pending: list[int] = []
    for idx, (depth, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parents[pending.pop()] = idx
        pending.append(idx)
    cli_s = next(c for d, c, n in entries if n == "biphoton.cli")
    scipy_s = sum(
        c for idx, (d, c, n) in enumerate(entries)
        if n.split(".")[0] == "scipy"
        and (parents[idx] is None or entries[parents[idx]][2].split(".")[0] != "scipy")
    )
    return cli_s, scipy_s
