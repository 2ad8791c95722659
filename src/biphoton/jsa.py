"""Joint spectral amplitude construction, filtering and Schmidt analysis.

The two-photon amplitude is the product of a Gaussian pump envelope and
the sinc-shaped phase-matching amplitude of the poled crystal, discretised
on a signal × idler grid that is uniform in angular frequency with one step
Δω on both axes. The pump envelope α and the pump wavenumber k_p depend on
ωs + ωi alone, so they are evaluated on the grid's 2N − 1 sum frequencies
and spread over the N² points by a zero-copy Hankel view; only k_s and k_i
and the sinc itself are per-axis or per-point. The phase-matching
amplitude takes one sin and one cos of x = ΔK·L/2 per point, written into
one complex array. Every Σ|f|² (norms, survivals, purity sums) is one dot
of the array's float64 view.

The N² element-by-element stages run in two row halves at once, the first
on the one daemon split worker (``phasematch._in_row_halves``): the phase
mismatch and φ, α·φ and the division by the norm, the filters' √T
scalings and final division and flush, and the Gram's real and imaginary
copies and assembly. Each element goes through the same operations in the
same order as in one pass, so the bits do not depend on the split. The
reductions stay single passes over the whole array, because their
summation order fixes their bits: the Σ|f|² dots, the filter's column sums
and the sign check's min and max. Workers allocate nothing (every buffer
is made on the calling thread) and call numpy only, never a biphoton
function.

Every ``JointAmplitude`` has unit norm (its constructor checks it; the
library divides its own by the norm just summed), so nothing checks it
again, and every filter, a herald filter too, is ``apply_filter``. A
filtered amplitude has every real or imaginary part below √tiny = 2⁻⁵¹¹
in magnitude set to +0.0. A product of two remaining parts is then 0 or a
normal double, so its Gram does no subnormal arithmetic, which costs a
microcode assist per multiply-add: behind narrow Gaussian filters √T
drives parts down to 1e-323, and the 512² Gram took 2–4× as long. Such a
part's square is below the smallest normal double, so the intensity could
not hold it as a normal number anyway. An unfiltered ``compute_jsa``
amplitude is not flushed.

Schmidt analysis reads every number from the amplitude's cached Gram FF†
(formed in real arithmetic, and reused by the signal-arm herald): the
heralded spectral purity at once, and the Schmidt coefficients, its
eigenvalues, on first read.

Bandwidth convention: pump bandwidth is the intensity FWHM in nm; the
envelope exp(−(ωs+ωi−ωp)²/σ²) uses the amplitude 1/e half width
σ = FWHM_ω/√(2 ln 2) with FWHM_ω the first-order conversion of the nm
FWHM at the pump center.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from ._contracts import built_valid
from .errors import DegenerateInputError, EmptyResultError, InputError, SearchError
from .phasematch import (
    CrystalSpec,
    PumpSpec,
    _in_row_halves,
    _in_two,
    phase_mismatch,
    spread_sums,
)
from .units import (
    angular_frequency_to_nm,
    fwhm_nm_to_fwhm_omega,
    intensity_fwhm_to_amplitude_sigma,
    nm_to_angular_frequency,
)

NORMALIZATION_TOL = 1e-9
#: √tiny = 2⁻⁵¹¹: a product of two parts at or above it in magnitude is a normal double.
_FLUSH_BELOW = np.sqrt(np.finfo(np.float64).tiny)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GOLDEN_FRACTION = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class FrequencyGrid:
    """Signal × idler grid, uniform in angular frequency with one step Δω.

    The signal axis runs from center_signal + half_span to
    center_signal − half_span in nm, endpoints exact. The idler axis is the
    signal axis shifted by ω(center_idler) − ω(center_signal), so both axes
    share Δω and ωs[j] + ωi[k] depends on j + k alone (``sum_omegas``). On a
    degenerate grid the shift is zero and the two axes are the same array; on
    a non-degenerate one the idler axis spans the signal's ω range, not
    center_idler ± half_span in nm. points_per_axis must be a power of two,
    at least 16.
    """

    center_signal_nm: float = 1570.0
    center_idler_nm: float = 1570.0
    half_span_nm: float = 60.0
    points_per_axis: int = 512

    def __post_init__(self):
        n = self.points_per_axis
        if n < 16 or (n & (n - 1)) != 0:
            raise InputError("points_per_axis must be a power of two, at least 16")
        if not 0.0 < self.half_span_nm < math.inf:  # NaN-safe
            raise InputError("half_span_nm must be positive and finite")
        for c in (self.center_signal_nm, self.center_idler_nm):
            if not math.isfinite(c):
                raise InputError("grid centers must be finite")
            if c - self.half_span_nm <= 0:
                raise InputError("grid extends to non-positive wavelengths")

    @property
    def signal_omegas(self) -> np.ndarray:
        lo = nm_to_angular_frequency(self.center_signal_nm + self.half_span_nm)
        hi = nm_to_angular_frequency(self.center_signal_nm - self.half_span_nm)
        return np.linspace(lo, hi, self.points_per_axis)

    @property
    def idler_omegas(self) -> np.ndarray:
        shift = nm_to_angular_frequency(self.center_idler_nm) - nm_to_angular_frequency(
            self.center_signal_nm
        )
        return self.signal_omegas + shift

    @property
    def sum_omegas(self) -> np.ndarray:
        """The 2N − 1 sum frequencies ωs[j] + ωi[k], indexed by m = j + k.

        Each is the sum of one representative pair, j = min(m, N − 1); the
        other pairs with the same j + k differ from it only by rounding.
        """
        n = self.points_per_axis
        m = np.arange(2 * n - 1)
        j = np.minimum(m, n - 1)
        return self.signal_omegas[j] + self.idler_omegas[m - j]

    @property
    def d_omega_signal(self) -> float:
        ax = self.signal_omegas
        return float(ax[1] - ax[0])

    @property
    def d_omega_idler(self) -> float:
        return self.d_omega_signal

    @property
    def signal_wavelengths_nm(self) -> np.ndarray:
        return angular_frequency_to_nm(self.signal_omegas)

    @property
    def idler_wavelengths_nm(self) -> np.ndarray:
        return angular_frequency_to_nm(self.idler_omegas)

    @property
    def cell_area(self) -> float:
        return self.d_omega_signal * self.d_omega_idler


@dataclass(frozen=True)
class FilterSurvival:
    """Transmitted |f|² fractions recorded by apply_filter."""

    signal: float | None
    idler: float | None
    total: float


@dataclass(frozen=True)
class JointAmplitude:
    """Discretised joint spectral amplitude f(ωs, ωi), always of unit norm.

    ``amplitudes[j, k]`` is f at signal index j, idler index k, and
    Σ|f|²·Δωs·Δωi = 1 within 1e-9: the constructor checks that, while
    ``compute_jsa`` and ``apply_filter`` divide by the norm they have just
    summed and skip the second pass.

    ``gram`` is FF† over the signal index, unscaled: formed on first read
    by ``_gram`` (real BLAS, exactly Hermitian), cached read-only, and
    shared by the Schmidt spectrum and the signal-arm herald, so each
    amplitude pays one Gram product for both. The cache costs N²·16 bytes
    while the amplitude lives (4 MB at 512², 16 MB at 1024²). ``intensity``
    |f|² is cached read-only the same way (N²·8 bytes), so the CSV and both
    marginals of one amplitude share one pass.
    The fields cannot be reassigned, and ``amplitudes`` must not be mutated
    in place, or the cached Gram and intensity go stale.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray
    survival: FilterSurvival | None = None

    def __post_init__(self):
        n = self.grid.points_per_axis
        if self.amplitudes.shape != (n, n):
            raise InputError(
                f"amplitude matrix shape {self.amplitudes.shape} does not match grid {n}x{n}"
            )
        total = self.total_probability()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN-safe
            raise InputError(f"amplitude is not normalized: integral of |f|^2 is {total!r}")

    def total_probability(self) -> float:
        return _sum_sq(self.amplitudes) * self.grid.cell_area

    @cached_property
    def intensity(self) -> np.ndarray:
        intensity = np.abs(self.amplitudes) ** 2
        intensity.setflags(write=False)
        return intensity

    @cached_property
    def gram(self) -> np.ndarray:
        gram = _gram(self.amplitudes)
        gram.setflags(write=False)
        return gram


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass filter acting on intensity; amplitudes see √T."""

    center_nm: float
    fwhm_nm: float
    shape: str = "gaussian"
    peak_transmission: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.center_nm):
            raise InputError("filter center_nm must be finite")
        if not 0.0 < self.fwhm_nm < math.inf:  # NaN-safe
            raise InputError("filter fwhm_nm must be positive and finite")
        if not 0.0 < self.peak_transmission <= 1.0:
            raise InputError("filter peak_transmission must be in (0, 1]")
        if self.shape not in ("gaussian", "rectangular"):
            raise InputError(f"unknown filter shape {self.shape!r}")

    def transmission(self, wavelength_nm) -> np.ndarray:
        lam = np.asarray(wavelength_nm, dtype=float)
        if self.shape == "gaussian":
            # below about 1e-154 nm, fwhm² is subnormal or zero: off-centre points
            # then overflow to −inf, a transmission of 0, without a warning
            with np.errstate(divide="ignore", over="ignore"):
                return self.peak_transmission * np.exp(
                    -4.0 * np.log(2.0) * (lam - self.center_nm) ** 2 / self.fwhm_nm**2
                )
        inside = np.abs(lam - self.center_nm) <= self.fwhm_nm / 2.0
        return self.peak_transmission * inside.astype(float)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt analysis of one joint amplitude matrix F, kept as its Gram FF†.

    The constructor forms FF† once with ``_gram`` and keeps it (read-only),
    not F. ``purity`` = Σλ_k² = ‖FF†‖²_F / ‖F‖⁴_F is derived at once, raising
    ``DegenerateInputError`` on zero or non-finite weight. ``coefficients``,
    the λ_k descending and summing to one, are the eigenvalues of FF† (the
    σ_k² of F) over their sum: one ``eigvalsh`` on first read, then cached.
    """

    amplitudes: InitVar[np.ndarray]
    gram: np.ndarray = field(init=False, repr=False)
    purity: float = field(init=False)

    def __post_init__(self, amplitudes):
        if np.ndim(amplitudes) != 2:
            raise InputError("Schmidt analysis needs a 2-D amplitude matrix")
        object.__setattr__(self, "gram", _gram(amplitudes))
        self.gram.setflags(write=False)
        object.__setattr__(self, "purity", _gram_purity(amplitudes, self.gram))

    @cached_property
    def coefficients(self) -> np.ndarray:
        # eigvalsh is ascending and may give −1e-17 for a zero eigenvalue: clipped
        weights = np.maximum(np.linalg.eigvalsh(self.gram)[::-1], 0.0)
        return weights / weights.sum()

    @property
    def schmidt_number(self) -> float:
        return 1.0 / self.purity


def pump_envelope(omega_s, omega_i, pump: PumpSpec):
    """Gaussian pump envelope α(ωs + ωi), real valued in (0, 1]."""
    return _envelope(np.asarray(omega_s) + np.asarray(omega_i), pump)


def _envelope(omega_sum, pump: PumpSpec):
    detuning = omega_sum - nm_to_angular_frequency(pump.center_wavelength_nm)
    return np.exp(-(detuning**2) / pump_sigma(pump) ** 2)


def pump_sigma(pump: PumpSpec) -> float:
    """Amplitude 1/e half width of the envelope in rad/fs."""
    fwhm_omega = fwhm_nm_to_fwhm_omega(
        pump.intensity_fwhm_bandwidth_nm, pump.center_wavelength_nm
    )
    return intensity_fwhm_to_amplitude_sigma(fwhm_omega)


def phasematching_function(omega_s, omega_i, crystal: CrystalSpec, sums=None):
    """sinc(x)·exp(−ix) with x = ΔK·L/2 on the given frequencies, |φ| ≤ 1.

    One pass each of sin x and cos x: φ = cos x·sinc x − i·sin x·sinc x with
    sinc x = sin x / x, and exactly 1 where x == 0. Both parts are written
    into one complex array, in two row halves at once; a scalar input gives
    a scalar. ``sums`` are a grid's sum frequencies, as in
    ``unpoled_mismatch``.
    """
    dk = phase_mismatch(crystal, omega_s, omega_i, sums)
    x = np.atleast_1d(dk)  # phase_mismatch returns a fresh array: scaled in place
    half_length = crystal.length_um / 2.0
    phi = np.empty(x.shape, dtype=complex)
    sinc = np.empty(x.shape)
    zero = np.empty(x.shape, dtype=bool)

    def fill(rows):
        xr, sr, zr, pr = x[rows], sinc[rows], zero[rows], phi[rows]
        np.multiply(xr, half_length, out=xr)
        np.cos(xr, out=pr.real)
        np.sin(xr, out=sr)
        np.negative(sr, out=pr.imag)
        np.equal(xr, 0.0, out=zr)
        np.copyto(sr, 1.0, where=zr)  # 1/1 where x == 0: no 0/0, no warning
        np.copyto(xr, 1.0, where=zr)
        np.divide(sr, xr, out=sr)
        np.multiply(pr.real, sr, out=pr.real)
        np.multiply(pr.imag, sr, out=pr.imag)

    _in_row_halves(fill, len(x))
    return phi if np.ndim(dk) else phi[0]


def _crystal_factor(crystal: CrystalSpec, grid: FrequencyGrid) -> np.ndarray:
    """Pump-independent φ on the grid.

    k_s and k_i are evaluated on the N points of their axes and k_p on the
    grid's 2N − 1 sum frequencies, spread over the N² points by a Hankel
    view: about 4N Sellmeier evaluations. Each evaluation checks its set's
    validity range, so a grid outside it fails before any N² work.
    """
    return phasematching_function(
        grid.signal_omegas[:, None], grid.idler_omegas[None, :], crystal,
        sums=grid.sum_omegas,
    )


def _joint(pump: PumpSpec, phi: np.ndarray, grid: FrequencyGrid, out=None) -> JointAmplitude:
    """Normalized N·α·φ for a crystal factor from ``_crystal_factor``.

    The amplitude is written into ``out`` when given, else into a new array;
    the product and the division run in two row halves at once.
    """
    alpha = spread_sums(_envelope(grid.sum_omegas, pump))
    f = np.empty(phi.shape, dtype=complex) if out is None else out
    _in_row_halves(lambda rows: np.multiply(alpha[rows], phi[rows], out=f[rows]), len(f))
    norm = math.sqrt(_sum_sq(f) * grid.cell_area)
    if not 0.0 < norm < math.inf:  # NaN-safe
        raise DegenerateInputError("joint amplitude vanishes or is not finite on the grid")
    # Divided in place by the norm just summed, so unit norm without a second pass.
    _in_row_halves(lambda rows: np.divide(f[rows], norm, out=f[rows]), len(f))
    return built_valid(JointAmplitude, grid=grid, amplitudes=f)


def compute_jsa(pump: PumpSpec, crystal: CrystalSpec, grid: FrequencyGrid) -> JointAmplitude:
    """Normalized joint amplitude f = N·α·φ on the grid.

    The grid is validated against the dispersion ranges before any matrix
    work; accumulation order is fixed so repeated runs are bit-identical.
    """
    return _joint(pump, _crystal_factor(crystal, grid), grid)


def apply_filter(
    jsa: JointAmplitude,
    signal_filter: FilterSpec | None = None,
    idler_filter: FilterSpec | None = None,
) -> JointAmplitude:
    """Apply amplitude √T bandpass filters and renormalize.

    Records the transmitted fraction of |f|² per filtered arm and for the
    pair (heralding-loss metadata consumed by the efficiency budget).

    The output is rescaled by 1/√(survival.total), the norm of the filtered
    amplitude of the unit-norm input. After the division every real or
    imaginary part below 2⁻⁵¹¹ in magnitude is set to +0.0
    (``_divide_and_flush``), so the output's Gram does no subnormal
    arithmetic; the survivals are summed before that and keep their bits.
    A filter that transmits 1 everywhere returns the input amplitudes bit
    for bit only when no part of them is below 2⁻⁵¹¹, as on every
    ``compute_jsa`` output of the default profile. On the default grid,
    Gaussian filters narrower than about 5.5 nm on both arms flush parts.
    The √T scalings, the division and the flush run in two row halves at
    once; the sums stay whole.

    Raises:
        EmptyResultError: a filter removes all spectral weight; the message says
            whether its pass-band is off the grid or far narrower than its step.
    """
    base = _sum_sq(jsa.amplitudes)
    survival_s = survival_i = None
    # f is the one filtered copy: each √T scaling writes it from the amplitude
    # scaled so far, and the norm divides it in place.
    a = scaled = jsa.amplitudes
    f = np.empty(a.shape, dtype=np.result_type(a, 1.0))
    if signal_filter is not None:
        amp_s = np.sqrt(signal_filter.transmission(jsa.grid.signal_wavelengths_nm))[:, None]
        _in_row_halves(lambda rows: np.multiply(a[rows], amp_s[rows], out=f[rows]), len(f))
        survival_s = _sum_sq(f) / base
        scaled = f
    if idler_filter is not None:
        t_i = idler_filter.transmission(jsa.grid.idler_wavelengths_nm)
        # Σ_k T_k·Σ_j |f_jk|² from the column sums of the unfiltered |f|²
        # (re and im columns of the float64 view), with no filtered copy.
        v = np.ascontiguousarray(a, dtype=complex).view(np.float64)
        columns = np.einsum("jc,jc->c", v, v)
        survival_i = float(t_i @ (columns[0::2] + columns[1::2]) / base)
        amp_i = np.sqrt(t_i)
        _in_row_halves(lambda rows: np.multiply(scaled[rows], amp_i, out=f[rows]), len(f))
    elif signal_filter is None:
        np.copyto(f, a)
    total = _sum_sq(f) / base
    if not total > 0.0:  # NaN-safe
        raise EmptyResultError(_no_weight_message(jsa.grid, signal_filter, idler_filter))
    # Unit norm: the input's norm is 1, so the filtered one is √total.
    _divide_and_flush(f, math.sqrt(total))
    return built_valid(
        JointAmplitude,
        grid=jsa.grid,
        amplitudes=f,
        survival=FilterSurvival(signal=survival_s, idler=survival_i, total=total),
    )


def _no_weight_message(grid: FrequencyGrid, signal_filter, idler_filter) -> str:
    """Why no weight survives the filters: a pass-band narrower than the grid or off it."""
    for arm, spec, lam in (
        ("signal", signal_filter, grid.signal_wavelengths_nm),
        ("idler", idler_filter, grid.idler_wavelengths_nm),
    ):
        if spec is None or np.any(spec.transmission(lam) > 0.0):
            continue
        ascending = lam[::-1]
        if ascending[0] <= spec.center_nm <= ascending[-1]:
            k = np.clip(np.searchsorted(ascending, spec.center_nm), 1, len(lam) - 1)
            step = ascending[k] - ascending[k - 1]
            return (
                f"{arm} filter transmits nothing at any grid point: its FWHM of "
                f"{spec.fwhm_nm!r} nm is far below the grid step of {step:.4g} nm "
                f"at its {spec.center_nm!r} nm centre"
            )
    return "filter pass-band does not overlap the grid"


def schmidt_decompose(jsa: JointAmplitude) -> SchmidtSpectrum:
    """Schmidt spectrum of an amplitude: purity now, λ_k on first read.

    The spectrum keeps the amplitude's own read-only ``jsa.gram``: no new memory.
    """
    # The Gram and purity the constructor would derive, read off the amplitude.
    return built_valid(SchmidtSpectrum, gram=jsa.gram, purity=gram_purity(jsa))


def gram_purity(jsa: JointAmplitude) -> float:
    """Schmidt purity Σλ_k² as ‖FF†‖²_F / ‖F‖⁴_F.

    This is ``schmidt_decompose(jsa).purity``. FF† is ``jsa.gram``, formed
    once per amplitude and cached there (N²·16 bytes), so the Schmidt
    coefficients and a later signal-arm ``heralded_spectral_state`` of the
    same amplitude read the same product.
    """
    return _gram_purity(jsa.amplitudes, jsa.gram)


def _gram(f: np.ndarray, out=None) -> np.ndarray:
    """FF† of a complex matrix in real arithmetic, exactly Hermitian.

    With V = F viewed as reals (re, im interleaved per column), Re FF† = VVᵀ,
    one BLAS syrk, and Im FF† = P − Pᵀ with P = Im F·(Re F)ᵀ, one real gemm:
    half the flops of the complex product. The two products run at once
    (``phasematch._in_two``), P on the split worker and VVᵀ here, each the
    same BLAS call on the same operands as in turn, so the Gram is
    bit-identical to a sequential one. The copies of Re F and Im F (after a
    real or non-contiguous F, such as the idler arm's transpose, is copied
    into a contiguous complex buffer) and the assembly Im G = P − Pᵀ,
    Re G = VVᵀ run in two row halves at once. Every buffer is made here, so
    the worker allocates nothing. The copies are freed before the Gram is
    allocated, so beside F and any complex buffer at most four real N²
    arrays are alive: P, VVᵀ and either the two copies or the Gram, which is
    written into ``out`` when given.
    """
    f = source = np.asarray(f)
    if source.dtype != complex or not source.flags.c_contiguous:
        f = np.empty(source.shape, dtype=complex)
    v = f.view(np.float64)
    n = len(f)
    re, im = np.empty(f.shape), np.empty(f.shape)

    def split(rows):
        if f is not source:
            np.copyto(f[rows], source[rows])
        np.copyto(re[rows], f[rows].real)
        np.copyto(im[rows], f[rows].imag)

    _in_row_halves(split, n)
    p, real = np.empty((n, n)), np.empty((n, n))
    _in_two(lambda product: np.matmul(*product), (im, re.T, p), (v, v.T, real))
    del re, im
    gram = np.empty((n, n), dtype=complex) if out is None else out

    def assemble(rows):
        np.subtract(p[rows], p.T[rows], out=gram[rows].imag)
        np.copyto(gram[rows].real, real[rows])

    _in_row_halves(assemble, n)
    return gram


def _divide_and_flush(f: np.ndarray, norm: float) -> None:
    """``f /= norm`` in place, then every part of ``f`` below 2⁻⁵¹¹ set to +0.0.

    ``f`` is C-contiguous. Each real and imaginary part of a complex ``f``
    (each entry of a real one) with magnitude below √tiny = 2⁻⁵¹¹ becomes
    +0.0; NaN and inf stay. The module docstring says why. Both steps run
    in two row halves at once, on bool buffers made here.
    """
    v = f.view(f.real.dtype)
    below, above = np.empty(v.shape, dtype=bool), np.empty(v.shape, dtype=bool)

    def work(rows):
        np.divide(f[rows], norm, out=f[rows])
        vr, br, ar = v[rows], below[rows], above[rows]
        np.less(vr, _FLUSH_BELOW, out=br)
        np.greater(vr, -_FLUSH_BELOW, out=ar)
        np.logical_and(br, ar, out=br)
        np.copyto(vr, 0.0, where=br)

    _in_row_halves(work, len(f))


def _gram_purity(f: np.ndarray, gram: np.ndarray) -> float:
    weight = _sum_sq(f)
    if not 0.0 < weight < math.inf:  # NaN-safe
        raise DegenerateInputError(
            "joint amplitude with zero or non-finite weight has no Schmidt spectrum"
        )
    return _sum_sq(gram) / (weight * weight)


def _sum_sq(f: np.ndarray) -> float:
    """Σ|f|², the real dot of f with itself (see ``_real_dot``)."""
    return _real_dot(f, f)


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re Σ a·b̄ = Re vdot(b, a) as one dot of the float64 views (re and im interleaved).

    For a Hermitian b, as a density matrix, this is Re Tr(a·b). Of a with
    itself (Σ|a|²), a C- or F-contiguous a, such as a transposed amplitude,
    is read in place; otherwise both are read in C order, copied first if
    they are not C-contiguous. numpy's own einsum loop forms the dot, not a
    BLAS ddot: BLAS splits a long dot over its threads, so its sum would
    depend on the thread count, and the normalized amplitudes written to
    CSV and the HOM visibility must not. NaN or inf gives NaN or inf.
    """
    if b is a:
        va = vb = np.ravel(np.asarray(a, dtype=complex), order="K").view(np.float64)
    else:
        va, vb = (np.ravel(np.asarray(x, dtype=complex)).view(np.float64) for x in (a, b))
    return float(np.einsum("i,i->", va, vb))


@dataclass(frozen=True)
class MarginalSpectrum:
    """Single-arm intensity spectrum on an ascending nm axis."""

    wavelengths_nm: np.ndarray
    intensity: np.ndarray
    fwhm_nm: float


def _interp_crossing(x0, x1, y0, y1, level):
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def _fwhm_linear(x: np.ndarray, y: np.ndarray) -> float:
    level = float(y.max()) / 2.0
    above = np.flatnonzero(y >= level)
    i0, i1 = int(above[0]), int(above[-1])
    left = x[i0] if i0 == 0 else _interp_crossing(x[i0 - 1], x[i0], y[i0 - 1], y[i0], level)
    right = x[i1] if i1 == len(x) - 1 else _interp_crossing(
        x[i1], x[i1 + 1], y[i1], y[i1 + 1], level
    )
    return float(right - left)


def marginal_spectrum(jsa: JointAmplitude, arm: str) -> MarginalSpectrum:
    """Row/column sums of |f|² for one arm, mapped to nm.

    The returned intensity sums to one; the FWHM is linearly interpolated
    between samples.
    """
    if arm == "signal":
        weights = np.sum(jsa.intensity, axis=1)
        lam = jsa.grid.signal_wavelengths_nm
    elif arm == "idler":
        weights = np.sum(jsa.intensity, axis=0)
        lam = jsa.grid.idler_wavelengths_nm
    else:
        raise InputError(f"arm must be 'signal' or 'idler', got {arm!r}")
    weights = weights / weights.sum()
    order = np.argsort(lam)
    lam_sorted = lam[order]
    weights_sorted = weights[order]
    return MarginalSpectrum(
        wavelengths_nm=lam_sorted,
        intensity=weights_sorted,
        fwhm_nm=_fwhm_linear(lam_sorted, weights_sorted),
    )


def support_span(marginal: MarginalSpectrum, fraction: float = 0.05) -> float:
    """Contiguous span (nm) around the peak above fraction·peak.

    The 5% default recovers the appreciable extent of the central lobe
    including its pump-smoothed shoulders.
    """
    y = marginal.intensity / marginal.intensity.max()
    peak = int(np.argmax(y))
    lo = peak
    while lo > 0 and y[lo - 1] >= fraction:
        lo -= 1
    hi = peak
    while hi < len(y) - 1 and y[hi + 1] >= fraction:
        hi += 1
    return float(marginal.wavelengths_nm[hi] - marginal.wavelengths_nm[lo])


def optimize_pump_bandwidth(
    crystal: CrystalSpec,
    pump_center_nm: float,
    search_window_nm: tuple[float, float],
    grid: FrequencyGrid,
    repetition_rate_mhz: float = 81.0,
    tolerance_nm: float = 0.02,
) -> tuple[float, float]:
    """Maximize unfiltered Schmidt purity over the pump intensity FWHM.

    Returns (best intensity FWHM in nm, purity there). A five-point
    coarse scan must place the maximum strictly inside the window,
    otherwise a SearchError carrying the scan trace is raised. Brent's
    method (parabolic interpolation with golden-section fallback; R. P.
    Brent, Algorithms for Minimization without Derivatives, 1973) then
    starts at the best coarse width, inside the bracket of its two coarse
    neighbours, and stops by scipy ``fminbound``'s absolute rule with
    ``xatol = tolerance_nm``. On the paper's crystal over a 2–12 nm window
    a search evaluates 11 or 12 widths, the coarse five included. The
    result is the best width evaluated, so its purity is never below any
    coarse-scan purity.

    The crystal factor φ is computed once; each width then costs one pump
    envelope and one Gram purity. Every width writes its amplitude and Gram
    into the same two N² buffers, so the search allocates them once: freed
    and reallocated per width, they would be handed back to the operating
    system and faulted in again on some heap layouts.
    """
    lo, hi = search_window_nm
    if not 0.0 < lo < hi < math.inf:
        raise InputError("search window must be a positive, finite, increasing interval")
    if not 0.0 < tolerance_nm < math.inf:
        raise InputError(f"tolerance_nm must be positive and finite, got {tolerance_nm!r}")
    phi = _crystal_factor(crystal, grid)
    f, gram = np.empty_like(phi), np.empty_like(phi)

    def purity_at(fwhm_nm: float) -> float:
        pump = PumpSpec(
            center_wavelength_nm=pump_center_nm,
            intensity_fwhm_bandwidth_nm=fwhm_nm,
            repetition_rate_mhz=repetition_rate_mhz,
        )
        _joint(pump, phi, grid, out=f)
        return _gram_purity(f, _gram(f, out=gram))

    scan_points = np.linspace(lo, hi, 5)
    trace = [(float(x), purity_at(float(x))) for x in scan_points]
    best_idx = int(np.argmax([p for _, p in trace]))
    if best_idx in (0, len(trace) - 1):
        raise SearchError(
            f"no interior purity maximum bracketed in [{lo:g}, {hi:g}] nm", trace=trace
        )

    # x is the best width so far, w the second best and v the previous w. s
    # is the last step; a parabolic step must be shorter than half of e, the
    # step before it (after a golden-section step, the side of the bracket
    # that step divided). The parabola's vertex does not depend on the sign
    # of the function, so purities enter unnegated.
    a, b = trace[best_idx - 1][0], trace[best_idx + 1][0]
    x, fx = trace[best_idx]
    w, fw, v, fv = x, fx, x, fx
    s = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = tolerance_nm / 3.0 + _SQRT_EPS * abs(x)
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_before, e = e, s
            if abs(p) < abs(0.5 * q * e_before) and q * (a - x) < p < q * (b - x):
                golden = False
                s = p / q
                if x + s - a < 2.0 * tol1 or b - (x + s) < 2.0 * tol1:
                    s = math.copysign(tol1, m - x)
        if golden:
            e = (a if x >= m else b) - x
            s = _GOLDEN_FRACTION * e
        u = x + math.copysign(max(abs(s), tol1), s)
        fu = purity_at(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
