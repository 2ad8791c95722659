import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import biphoton as bp
from biphoton import phasematch
from biphoton.jsa import _sum_sq

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ktp():
    return bp.ktp_axes()


@pytest.fixture(scope="session")
def default_config():
    return bp.default_config()


@pytest.fixture(scope="session")
def paper_jsa(default_config):
    """The 512x512 default-profile joint amplitude, computed once."""
    cfg = default_config
    return bp.compute_jsa(cfg.pump, cfg.crystal, cfg.grid)


@pytest.fixture(scope="session")
def paper_schmidt(paper_jsa):
    return bp.schmidt_decompose(paper_jsa)


@pytest.fixture(scope="session")
def eight_nm_filter():
    return bp.FilterSpec(center_nm=1570.0, fwhm_nm=8.0, shape="gaussian")


@pytest.fixture(scope="session")
def filtered_jsa(paper_jsa, eight_nm_filter):
    return bp.apply_filter(paper_jsa, eight_nm_filter, eight_nm_filter)


@pytest.fixture(scope="session")
def small_grid():
    return bp.FrequencyGrid(points_per_axis=64)


def random_density_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random PSD unit-trace matrix (test helper)."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def svd_coefficients(jsa) -> np.ndarray:
    """σ²/Σσ² from numpy's own SVD: the reference the Gram's eigenvalues must match."""
    weights = np.linalg.svd(jsa.amplitudes, compute_uv=False) ** 2
    return weights / weights.sum()


def svd_purity(jsa) -> float:
    """Σλ² from the singular values: the reference the Gram form must match."""
    return float(np.sum(svd_coefficients(jsa) ** 2))


def split_worker_threads() -> int:
    """The thread count once the split worker has started (by an empty split)."""
    phasematch._in_two(lambda _: None, None, None)
    return threading.active_count()


def sequential_gram(f):
    """Reference FF†: the gemm and the syrk of ``_gram``, one after the other in one thread."""
    f = np.ascontiguousarray(f, dtype=complex)
    v = f.view(np.float64)
    work = np.ascontiguousarray(f.imag) @ np.ascontiguousarray(f.real).T
    gram = np.empty((len(f), len(f)), dtype=complex)
    np.subtract(work, work.T, out=gram.imag)
    gram.real = np.matmul(v, v.T, out=work)
    return gram


#: √tiny: filtered amplitude parts below it in magnitude are set to +0.0
TINY_ROOT = 2.0**-511


def flush_tiny(f):
    """Reference flush: each real and imaginary part of f below 2⁻⁵¹¹ in magnitude is +0.0."""
    f = np.ascontiguousarray(f)
    v = f.view(np.float64)
    v[np.abs(v) < TINY_ROOT] = 0.0
    return f


def sequential_filter(jsa, signal_filter, idler_filter, flush=True):
    """Reference ``apply_filter`` amplitudes: each √T scaling, the division and the flush
    in one pass."""
    base = _sum_sq(jsa.amplitudes)
    f = jsa.amplitudes.copy()
    if signal_filter is not None:
        f = f * np.sqrt(signal_filter.transmission(jsa.grid.signal_wavelengths_nm))[:, None]
    if idler_filter is not None:
        f *= np.sqrt(idler_filter.transmission(jsa.grid.idler_wavelengths_nm))[None, :]
    f /= math.sqrt(_sum_sq(f) / base)
    return flush_tiny(f) if flush else f


def herald_filters(arm, herald_filter):
    """The (signal, idler) filters of a herald filter, which filters the traced arm."""
    return (None, herald_filter) if arm == "signal" else (herald_filter, None)


def sequential_herald(f, arm):
    """Reference heralded density of the amplitude matrix f: ``sequential_gram`` over the
    heralded arm and G / Re Tr G in one pass."""
    gram = sequential_gram(f if arm == "signal" else f.T)
    return gram / float(np.real(np.trace(gram)))
