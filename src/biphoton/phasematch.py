"""Quasi-phase-matching: mismatch, poling periods, group-velocity geometry.

The collinear phase mismatch is ΔK = k_p − k_s − k_i ∓ 2π/Λ with the
first-order grating term taking the sign that compensates the unpoled
mismatch (a poled grating supplies ±2π/Λ; phase matching selects the
compensating order). ``solve_poling_period`` therefore always returns a
positive period, and a crystal poled at that period has ΔK = 0 at its
design point.

Root finding uses plain bisection on fixed, documented windows: the
dispersion curves are smooth and monotonic there and bisection needs no
derivatives.

On a grid, the N² element-by-element work (k_p − k_s − k_i and the grating
term here, x = ΔK·L/2, cos, sin and sinc in ``jsa.phasematching_function``)
runs in two row halves at once with ``_in_row_halves``, the first half on
one daemon worker thread that lives as long as the process (``_in_two``);
the sign check's min and max stay single passes over the whole array. Each
element goes through the same operations in the same order as in one pass,
so the bits do not depend on the split, nor on whether the worker is busy
and both halves run in turn on the calling thread. A forked child starts
a worker of its own. The Sellmeier evaluations stay on the calling thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .dispersion import CrystalAxes, inverse_group_velocity, wavenumber
from .errors import (
    DegenerateInputError,
    InputError,
    NoSolutionError,
    UndefinedOrientationError,
)
from .units import angular_frequency_to_nm, fwhm_nm_to_fwhm_omega, nm_to_angular_frequency

#: Energy-conservation tolerance on 1/λp − 1/λs − 1/λi, 1/nm.
ENERGY_TOLERANCE_PER_NM = 1e-9

#: Search window for the GVM degenerate wavelength, nm.
GVM_SEARCH_WINDOW_NM = (1400.0, 1700.0)


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump description; bandwidth is the intensity FWHM in nm.

    ``pulse_duration_fs``, when given, must not be below the transform limit
    of a Gaussian pulse with that bandwidth, 4 ln 2 / FWHM_ω (169.5 fs at
    5.35 nm and 785 nm). No computation reads it.
    """

    center_wavelength_nm: float
    intensity_fwhm_bandwidth_nm: float
    repetition_rate_mhz: float = 81.0
    pulse_duration_fs: float | None = None

    def __post_init__(self):
        for name in ("center_wavelength_nm", "intensity_fwhm_bandwidth_nm",
                     "repetition_rate_mhz"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN-safe
                raise InputError(f"pump {name} must be positive and finite")
        if self.intensity_fwhm_bandwidth_nm >= self.center_wavelength_nm:
            raise InputError("pump bandwidth must be smaller than the center wavelength")
        duration = self.pulse_duration_fs
        if duration is not None:
            if not 0.0 < duration < math.inf:
                raise InputError("pump pulse_duration_fs must be positive and finite when given")
            limit = 4.0 * math.log(2.0) / fwhm_nm_to_fwhm_omega(
                self.intensity_fwhm_bandwidth_nm, self.center_wavelength_nm
            )
            if duration < limit:
                raise InputError(
                    f"pump pulse_duration_fs {duration!r} is below the transform limit "
                    f"{limit:.1f} fs of its bandwidth"
                )

    @property
    def pulse_period_ns(self) -> float:
        return 1e3 / self.repetition_rate_mhz


@dataclass(frozen=True)
class CrystalSpec:
    """Poled crystal: geometry, operating temperature and axis binding.

    ``poling_period_um`` is the period at the pump set's reference
    temperature; the thermal expansion coefficient of the pump axis set
    rescales it at other temperatures.
    """

    axes: CrystalAxes
    length_mm: float
    poling_period_um: float
    temperature_c: float = 20.0

    def __post_init__(self):
        for name in ("length_mm", "poling_period_um"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN-safe
                raise InputError(f"crystal {name} must be positive and finite")
        if not math.isfinite(self.temperature_c):
            raise InputError("crystal temperature_c must be finite")

    @property
    def length_um(self) -> float:
        return self.length_mm * 1000.0

    @property
    def expanded_poling_period_um(self) -> float:
        return self.poling_period_um * _poling_expansion(self.axes, self.temperature_c)


def _poling_expansion(axes: CrystalAxes, temperature_c: float) -> float:
    """Λ(T) / Λ(T_ref) by the pump set's thermal expansion; 1.0 without thermal data."""
    thermal = axes.pump.thermal
    if thermal is None:
        return 1.0
    dt = temperature_c - axes.pump.reference_temperature_c
    return 1.0 + thermal.poling_expansion_per_c * dt


def spread_sums(values: np.ndarray) -> np.ndarray:
    """The N × N zero-copy Hankel view of 2N − 1 values: entry [j, k] is values[j + k]."""
    return np.lib.stride_tricks.sliding_window_view(values, (len(values) + 1) // 2)


class _SplitWorker:
    """The one daemon thread that runs the first half of every split (``_in_two``).

    ``claim`` is taken by the caller that hands the thread a job and released
    by the thread once that job is over, so it is held exactly while the
    thread is busy. The thread starts with the first job.
    """

    def __init__(self):
        self.claim = threading.Lock()
        self.go = threading.Lock()  # released once per job handed over
        self.go.acquire()
        self.job = None
        self.thread = None

    def serve(self):
        while True:
            self.go.acquire()
            context, work, arg, done, errors = self.job
            self.job = None
            try:
                context.run(work, arg)
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)
            # nothing of the job may outlive its call: a kept closure would
            # keep the caller's N² buffers resident until the next split
            del context, work, arg, errors
            self.claim.release()
            done.release()


_worker = _SplitWorker()


def _forget_split_worker() -> None:
    """In a forked child, which has no copy of the thread and may hold its locks."""
    global _worker
    _worker = _SplitWorker()


os.register_at_fork(after_in_child=_forget_split_worker)


def _in_two(work, first, second) -> None:
    """Run ``work(first)`` on the split worker and ``work(second)`` here.

    The only function in biphoton that starts a thread: the one daemon
    worker, started by the first split, that runs the first half of every
    split. This waits for the worker's half, and re-raises its error,
    before it returns. When the worker is busy (another thread's split, or
    this call made from the worker itself), both halves run here in turn;
    every element goes through the same operations either way, so the bits
    are the same, and a split never waits on itself. The worker's half runs
    in a copy of this thread's context, so an ``np.errstate`` in force here
    holds there too, and the worker drops every reference to the job before
    this wakes. A forked child starts a worker of its own.

    ``work`` calls numpy only, writing into buffers the caller made: it makes
    no array of its own (numpy's few casting buffers aside), because glibc
    serves the worker from a malloc arena of its own, which keeps what it
    frees apart and so grows the resident set; and it calls no biphoton
    function, so the benchmark's layer tracer, which keeps one span stack per
    process, sees every layer on the calling thread. One job is the
    exception: ``cli.cmd_jsa``'s reads ``SchmidtSpectrum.coefficients``, a
    single ``eigvalsh`` whose LAPACK copy of the Gram (N²·16 bytes) comes
    from the worker's own arena. The tracer wraps neither.
    """
    worker = _worker
    if not worker.claim.acquire(blocking=False):
        work(first)
        work(second)
        return
    if worker.thread is None:
        worker.thread = threading.Thread(target=worker.serve, daemon=True)
        worker.thread.start()
    done, errors = threading.Lock(), []
    done.acquire()
    worker.job = (contextvars.copy_context(), work, first, done, errors)
    worker.go.release()
    try:
        work(second)
    finally:
        done.acquire()
    if errors:
        raise errors.pop()


def _in_row_halves(work, n_rows: int) -> None:
    """``work(rows)`` for the first half of ``n_rows`` rows on the worker, the second here.

    ``rows`` is a slice along the first axis (see ``_in_two``). An
    element-wise stage split this way gives the bits of one pass over the
    whole array; a reduction must stay whole, as its summation order fixes
    its bits. Fewer than two rows (a scalar ``phase_mismatch``) run here
    alone, handing the worker nothing.
    """
    if n_rows < 2:
        work(slice(0, n_rows))
        return
    half = n_rows // 2
    _in_two(work, slice(0, half), slice(half, n_rows))


def unpoled_mismatch(axes: CrystalAxes, omega_s, omega_i, temperature_c: float, sums=None):
    """k_p(ωs+ωi) − k_s(ωs) − k_i(ωi) without the grating term, rad/µm.

    ``sums`` serves a grid: ωs an N-point column and ωi an N-point row with
    one shared step, and ``sums`` the 2N − 1 sums ωs[j] + ωi[k] indexed by
    j + k. k_p is then evaluated on those sums alone and spread over the
    N × N points by ``spread_sums``, and the N² differences are formed in
    two row halves at once. Without it, k_p is evaluated at ωs + ωi on every
    point.
    """
    if sums is None:
        lam_p = angular_frequency_to_nm(np.asarray(omega_s) + np.asarray(omega_i))
        return (
            wavenumber(axes.pump, lam_p, temperature_c)
            - wavenumber(axes.signal, angular_frequency_to_nm(omega_s), temperature_c)
            - wavenumber(axes.idler, angular_frequency_to_nm(omega_i), temperature_c)
        )
    k_p = spread_sums(wavenumber(axes.pump, angular_frequency_to_nm(sums), temperature_c))
    k_s, k_i = (
        np.broadcast_to(wavenumber(sset, angular_frequency_to_nm(omega), temperature_c),
                        k_p.shape)
        for sset, omega in ((axes.signal, omega_s), (axes.idler, omega_i))
    )
    dk0 = np.empty(k_p.shape)

    def subtract(rows):
        np.subtract(k_p[rows], k_s[rows], out=dk0[rows])
        np.subtract(dk0[rows], k_i[rows], out=dk0[rows])

    _in_row_halves(subtract, len(dk0))
    return dk0


def phase_mismatch(crystal: CrystalSpec, omega_s, omega_i, sums=None):
    """ΔK including the compensating first-order grating term, rad/µm.

    Accepts scalars or arrays in rad/fs, or a grid's axes with its sum
    frequencies ``sums`` (see ``unpoled_mismatch``); dispersion range errors
    propagate. In the Λ → ∞ limit the result reduces to the unpoled
    mismatch. The grating term is added in two row halves at once.

    Raises:
        InputError: the unpoled mismatch is positive at some points and
            negative at others, so no single grating order compensates it
            and a per-point order would jump ΔK by 4π/Λ.
    """
    dk0 = unpoled_mismatch(crystal.axes, omega_s, omega_i, crystal.temperature_c, sums)
    lo, hi = np.min(dk0), np.max(dk0)
    if lo < 0.0 < hi:
        raise InputError(
            f"unpoled mismatch changes sign within one call ({lo:.3e} to {hi:.3e} "
            "rad/um); the compensating grating order is ambiguous"
        )
    # one order for the whole call: exact zeros take the order of the other
    # points, and an all-zero mismatch the order of a positive one; dk0 − g
    # and dk0 + (−g) round alike
    grating = 2.0 * np.pi / crystal.expanded_poling_period_um
    if not lo < 0.0:
        grating = -grating
    dk = np.atleast_1d(dk0)  # unpoled_mismatch returns a fresh array: shifted in place
    _in_row_halves(lambda rows: np.add(dk[rows], grating, out=dk[rows]), len(dk))
    return dk if np.ndim(dk0) else dk[0]


def _check_energy_conservation(lambda_p_nm, lambda_s_nm, lambda_i_nm):
    residual = abs(1.0 / lambda_p_nm - 1.0 / lambda_s_nm - 1.0 / lambda_i_nm)
    if residual > ENERGY_TOLERANCE_PER_NM:
        raise InputError(
            "wavelength triple violates energy conservation: "
            f"|1/{lambda_p_nm} - 1/{lambda_s_nm} - 1/{lambda_i_nm}| = "
            f"{residual:.3e} 1/nm exceeds {ENERGY_TOLERANCE_PER_NM:.0e}"
        )


def solve_poling_period(
    lambda_p_nm: float,
    lambda_s_nm: float,
    lambda_i_nm: float,
    temperature_c: float,
    axes: CrystalAxes,
) -> float:
    """First-order poling period (µm) nulling ΔK at the given triple.

    The returned period refers to the pump set's reference temperature,
    so building a ``CrystalSpec`` from it at ``temperature_c`` round-trips
    ``phase_mismatch`` to zero. Unique because ΔK is monotonic in 1/Λ.

    Raises:
        InputError: energy conservation violated beyond 1e-9 1/nm.
        NoSolutionError: the unpoled mismatch vanishes (nothing to pole).
    """
    _check_energy_conservation(lambda_p_nm, lambda_s_nm, lambda_i_nm)
    omega_s = nm_to_angular_frequency(lambda_s_nm)
    omega_i = nm_to_angular_frequency(lambda_i_nm)
    dk0 = unpoled_mismatch(axes, omega_s, omega_i, temperature_c)
    if dk0 == 0.0:
        raise NoSolutionError(
            "unpoled mismatch vanishes at the requested triple; "
            "no finite poling period is required"
        )
    return 2.0 * np.pi / abs(dk0) / _poling_expansion(axes, temperature_c)


def gvm_angle(
    lambda_p_nm: float,
    lambda_s_nm: float,
    lambda_i_nm: float,
    axes: CrystalAxes,
    temperature_c: float = 20.0,
) -> float:
    """Phase-matching ridge orientation θ in degrees, in (−180, 180].

    θ = atan2(k'_s − k'_p, k'_p − k'_i); θ = 45° marks group velocity
    matching and a circular joint amplitude.
    """
    kp_p = inverse_group_velocity(axes.pump, lambda_p_nm, temperature_c)
    kp_s = inverse_group_velocity(axes.signal, lambda_s_nm, temperature_c)
    kp_i = inverse_group_velocity(axes.idler, lambda_i_nm, temperature_c)
    num = kp_s - kp_p
    den = kp_p - kp_i
    if num == 0.0 and den == 0.0:
        raise UndefinedOrientationError(
            "k'_s = k'_p = k'_i: ridge orientation is undefined"
        )
    theta = float(np.degrees(np.arctan2(num, den)))
    if theta <= -180.0:
        theta += 360.0
    return theta


def _gvm_residual(axes: CrystalAxes, lambda_dc_nm: float, temperature_c: float) -> float:
    kp_p = inverse_group_velocity(axes.pump, lambda_dc_nm / 2.0, temperature_c)
    kp_s = inverse_group_velocity(axes.signal, lambda_dc_nm, temperature_c)
    kp_i = inverse_group_velocity(axes.idler, lambda_dc_nm, temperature_c)
    return kp_p - 0.5 * (kp_s + kp_i)


def gvm_degenerate_wavelength(
    axes: CrystalAxes,
    temperature_c: float = 20.0,
    window_nm: tuple[float, float] = GVM_SEARCH_WINDOW_NM,
) -> float:
    """Degenerate downconversion wavelength where k'_p = (k'_s + k'_i)/2.

    Bracketed bisection of the residual over ``window_nm`` for a pump at
    half the downconversion wavelength, down to a 1e-6 nm bracket.

    Raises:
        InputError: the window is not a positive, finite, increasing
            interval.
        DegenerateInputError: the residual vanishes identically
            (dispersionless axes satisfy the condition everywhere).
        NoSolutionError: no sign change inside the window.
    """
    lo, hi = window_nm
    if not 0.0 < lo < hi < math.inf:
        raise InputError("window_nm must be a positive, finite, increasing interval")
    probes = np.linspace(lo, hi, 5)
    residuals = [_gvm_residual(axes, lam, temperature_c) for lam in probes]
    # residuals of a few ulp of k'_p (~1e-15 fs/um) are rounding: GVM holds everywhere
    if all(abs(r) < 1e-9 for r in residuals):
        raise DegenerateInputError(
            "group velocity matching holds at every probe wavelength; "
            "the degenerate wavelength is not unique"
        )
    f_lo, f_hi = residuals[0], residuals[-1]
    if f_lo == 0.0:
        return float(lo)
    if f_hi == 0.0:
        return float(hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoSolutionError(
            f"no GVM sign change in [{lo:g}, {hi:g}] nm "
            f"(residuals {f_lo:.3e} and {f_hi:.3e} fs/um)"
        )
    a, b, f_a = lo, hi, f_lo
    # bisect to 1e-6 nm so the residual contract (|residual| < 1e-8 fs/um)
    # holds with margin
    while b - a > 1e-6:
        mid = 0.5 * (a + b)
        f_mid = _gvm_residual(axes, mid, temperature_c)
        if f_mid == 0.0:
            return float(mid)
        if np.sign(f_mid) == np.sign(f_a):
            a, f_a = mid, f_mid
        else:
            b = mid
    return float(0.5 * (a + b))
