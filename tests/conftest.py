import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import biphoton as bp
from biphoton import phasematch

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
