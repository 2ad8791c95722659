import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton as bp
from biphoton.errors import InputError

PUMP = bp.PumpSpec(
    center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=5.35, repetition_rate_mhz=81.0
)


def rank_one_of(jsa):
    """Rank-1 separable factorization of a joint amplitude."""
    u, s, vt = np.linalg.svd(jsa.amplitudes)
    f = s[0] * np.outer(u[:, 0], vt[0, :])
    f /= np.sqrt(np.sum(np.abs(f) ** 2) * jsa.grid.cell_area)
    return bp.JointAmplitude(grid=jsa.grid, amplitudes=f)


def full_grid_histogram(jsa, dcf_signal, dcf_idler, pump, bin_size_ns, total_pairs, seed):
    """Reference binning over all N² cells: an N² wrap mask summed for the wraps, the
    wrapped cells zeroed, every bin index clipped to [0, n_bins − 1]."""
    window_ns = pump.pulse_period_ns
    n_bins = int(np.ceil(window_ns / bin_size_ns))
    probabilities = jsa.intensity / jsa.intensity.sum()
    cell_counts = np.random.default_rng(seed).multinomial(
        total_pairs, probabilities.ravel()).reshape(probabilities.shape)
    t_signal = bp.wavelength_to_arrival(dcf_signal, jsa.grid.signal_wavelengths_nm)
    t_idler = bp.wavelength_to_arrival(dcf_idler, jsa.grid.idler_wavelengths_nm)
    keep = np.outer((t_signal >= 0.0) & (t_signal < window_ns),
                    (t_idler >= 0.0) & (t_idler < window_ns))
    bin_signal = np.clip(t_signal // bin_size_ns, 0, n_bins - 1).astype(int)
    bin_idler = np.clip(t_idler // bin_size_ns, 0, n_bins - 1).astype(int)
    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    np.add.at(counts, (bin_signal[:, None], bin_idler[None, :]), np.where(keep, cell_counts, 0))
    return counts, int(cell_counts[~keep].sum())


class TestMapping:
    def test_reference_wavelength_gives_insertion_delay(self):
        dcf = bp.signal_arm_preset()
        assert bp.wavelength_to_arrival(dcf, 1570.0) == dcf.insertion_delay_ns

    @given(lam=st.floats(min_value=1400.0, max_value=1700.0))
    def test_invertible(self, lam):
        dcf = bp.idler_arm_preset()
        assert bp.arrival_to_wavelength(dcf, bp.wavelength_to_arrival(dcf, lam)) == (
            pytest.approx(lam, abs=1e-9)
        )

    def test_implied_dispersion_magnitude(self):
        # approx 30 nm over the 12.3 ns window implies |D| ~ 0.41 ns/nm
        window = PUMP.pulse_period_ns
        dcf = bp.signal_arm_preset()
        assert bp.usable_bandwidth(dcf, window) == pytest.approx(30.0, abs=2.0)
        assert window / 30.0 == pytest.approx(0.41, abs=0.02)

    def test_zero_dispersion_rejected(self):
        with pytest.raises(InputError):
            bp.DcfSpec(total_dispersion_ps_per_nm=0.0)


class TestResolution:
    def test_shipped_presets(self):
        assert bp.resolution_estimate(bp.signal_arm_preset()) == pytest.approx(
            0.31, rel=0.10
        )
        assert bp.resolution_estimate(bp.idler_arm_preset()) == pytest.approx(
            0.33, rel=0.10
        )

    def test_halving_bin_halves_resolution(self):
        dcf = bp.signal_arm_preset()
        full = bp.resolution_estimate(dcf, bin_size_ns=0.128)
        half = bp.resolution_estimate(dcf, bin_size_ns=0.064)
        assert half == pytest.approx(full / 2.0, abs=1e-15)

    def test_large_dispersion_limit(self):
        dcf = bp.DcfSpec(total_dispersion_ps_per_nm=-1e12)
        assert bp.resolution_estimate(dcf) < 1e-9


class TestHistogram:
    def test_window_matches_pulse_period(self, paper_jsa, default_config):
        histogram = bp.simulate_jsi_histogram(
            paper_jsa,
            default_config.signal_dcf,
            default_config.idler_dcf,
            PUMP,
            total_pairs=10_000,
            seed=5,
        )
        assert histogram.window_ns == pytest.approx(12.35, abs=0.005)

    def test_counts_conservation(self, paper_jsa, default_config):
        histogram = bp.simulate_jsi_histogram(
            paper_jsa,
            default_config.signal_dcf,
            default_config.idler_dcf,
            PUMP,
            total_pairs=50_000,
            seed=11,
        )
        assert int(histogram.counts.sum()) == histogram.total_pairs - histogram.wrapped_pairs
        assert histogram.wrap_warning == (histogram.wrapped_pairs > 0)

    def test_deterministic_per_seed(self, paper_jsa, default_config):
        kwargs = dict(
            dcf_signal=default_config.signal_dcf,
            dcf_idler=default_config.idler_dcf,
            pump=PUMP,
            total_pairs=20_000,
        )
        a = bp.simulate_jsi_histogram(paper_jsa, seed=21, **kwargs)
        b = bp.simulate_jsi_histogram(paper_jsa, seed=21, **kwargs)
        assert a.counts.tobytes() == b.counts.tobytes()
        c = bp.simulate_jsi_histogram(paper_jsa, seed=22, **kwargs)
        assert a.counts.tobytes() != c.counts.tobytes()

    def test_binning_refinement_reaggregates_exactly(self, paper_jsa, default_config):
        kwargs = dict(
            dcf_signal=default_config.signal_dcf,
            dcf_idler=default_config.idler_dcf,
            pump=PUMP,
            total_pairs=30_000,
        )
        coarse = bp.simulate_jsi_histogram(paper_jsa, bin_size_ns=0.128, seed=31, **kwargs)
        fine = bp.simulate_jsi_histogram(paper_jsa, bin_size_ns=0.064, seed=31, **kwargs)

        def aggregate(matrix):
            n = matrix.shape[0]
            pairs = n // 2
            out = matrix[: 2 * pairs].reshape(pairs, 2, -1).sum(axis=1)
            if n % 2:
                out = np.vstack([out, matrix[-1][None, :]])
            return out

        refolded = aggregate(aggregate(fine.counts).T).T
        assert np.array_equal(refolded, coarse.counts)

    def test_rank_one_histogram_independent(self, paper_jsa, default_config):
        # a 1%-level test on a true null rejects about 1% of seeds; the
        # simulation is seeded, so pin one that reflects the typical case
        separable = rank_one_of(paper_jsa)
        histogram = bp.simulate_jsi_histogram(
            separable,
            default_config.signal_dcf,
            default_config.idler_dcf,
            PUMP,
            total_pairs=300_000,
            seed=42,
        )
        _, _, p_value = bp.chi2_independence(histogram.counts)
        assert p_value > 0.01

    def test_histogram_matches_direct_intensity(self, paper_jsa, default_config):
        # oracle: exact per-cell expectations through the identical mapping
        histogram = bp.simulate_jsi_histogram(
            paper_jsa,
            default_config.signal_dcf,
            default_config.idler_dcf,
            PUMP,
            total_pairs=10**6,
            seed=51,
        )
        probabilities = paper_jsa.intensity / paper_jsa.intensity.sum()
        t_s = bp.wavelength_to_arrival(
            default_config.signal_dcf, paper_jsa.grid.signal_wavelengths_nm
        )
        t_i = bp.wavelength_to_arrival(
            default_config.idler_dcf, paper_jsa.grid.idler_wavelengths_nm
        )
        window = histogram.window_ns
        keep = np.outer(
            (t_s >= 0) & (t_s < window), (t_i >= 0) & (t_i < window)
        )
        bins = histogram.counts.shape[0]
        expected = np.zeros_like(histogram.counts, dtype=float)
        bin_s = np.clip((t_s // histogram.bin_size_ns).astype(int), 0, bins - 1)
        bin_i = np.clip((t_i // histogram.bin_size_ns).astype(int), 0, bins - 1)
        np.add.at(
            expected,
            (bin_s[:, None], bin_i[None, :]),
            np.where(keep, probabilities, 0.0) * histogram.total_pairs,
        )
        occupied = expected > 0
        sampled = histogram.counts[occupied].astype(float)
        reference = expected[occupied]
        r = np.corrcoef(sampled, reference)[0, 1]
        assert r > 0.95

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "signal_delay_ns, idler_delay_ns, bin_size_ns",
        [(None, None, 0.064), (None, None, PUMP.pulse_period_ns / 8), (None, None, 20.0),
         (1e300, None, 0.064), (None, -1e300, 0.064), (-1e300, 1e300, 20.0)],
        ids=["default", "bin-divides-window", "bin-wider-than-window", "signal-far-late",
             "idler-far-early", "both-far-wide-bin"],
    )
    def test_matches_full_grid_binning(self, paper_jsa, default_config, seed, signal_delay_ns,
                                       idler_delay_ns, bin_size_ns):
        dcfs = [dcf if delay is None else replace(dcf, insertion_delay_ns=delay)
                for dcf, delay in ((default_config.signal_dcf, signal_delay_ns),
                                   (default_config.idler_dcf, idler_delay_ns))]
        histogram = bp.simulate_jsi_histogram(paper_jsa, *dcfs, PUMP, bin_size_ns=bin_size_ns,
                                              total_pairs=10**6, seed=seed)
        counts, wrapped = full_grid_histogram(paper_jsa, *dcfs, PUMP, bin_size_ns, 10**6, seed)
        assert histogram.counts.dtype == counts.dtype
        assert np.array_equal(histogram.counts, counts)
        assert histogram.wrapped_pairs == wrapped

    def test_validation(self, paper_jsa, default_config):
        with pytest.raises(InputError):
            bp.simulate_jsi_histogram(
                paper_jsa,
                default_config.signal_dcf,
                default_config.idler_dcf,
                PUMP,
                bin_size_ns=-1.0,
            )
        with pytest.raises(InputError):
            bp.simulate_jsi_histogram(
                paper_jsa,
                default_config.signal_dcf,
                default_config.idler_dcf,
                PUMP,
                total_pairs=0,
            )

    @pytest.mark.parametrize("bin_size_ns", [1e-300, 1e-320, PUMP.pulse_period_ns / 2**30],
                             ids=["1e-300", "1e-320", "window-over-2**30"])
    def test_too_many_bins_rejected_before_allocating(self, paper_jsa, default_config,
                                                      monkeypatch, bin_size_ns):
        def allocate(*args, **kwargs):
            raise AssertionError("histogram allocated before the bin-count check")

        monkeypatch.setattr(np, "zeros", allocate)
        monkeypatch.setattr(np, "arange", allocate)
        with pytest.raises(InputError, match="bin_size_ns .* more than 1073741823 bins"):
            bp.simulate_jsi_histogram(paper_jsa, default_config.signal_dcf,
                                      default_config.idler_dcf, PUMP, bin_size_ns=bin_size_ns)


class TestDiagnostics:
    def test_chi2_rejects_strong_correlation(self):
        rng = np.random.default_rng(0)
        diagonal = np.diag(rng.integers(200, 400, size=30)).astype(np.int64)
        _, _, p_value = bp.chi2_independence(diagonal)
        assert p_value < 1e-6

    def test_time_bin_marginals_weakly_correlated(self, paper_jsa, default_config):
        # exact correlation of the in-window distribution is -0.052 for the
        # shipped presets; sampling at 1e6 pairs stays within +/- 0.01 of it
        histogram = bp.simulate_jsi_histogram(
            paper_jsa,
            default_config.signal_dcf,
            default_config.idler_dcf,
            PUMP,
            total_pairs=10**6,
            seed=61,
        )
        assert abs(bp.time_bin_correlation(histogram)) < 0.06


@pytest.mark.parametrize(
    "table",
    [
        np.array([[30, 12, 45, 8], [22, 40, 17, 31], [15, 9, 28, 36]]),  # 3×4
        np.array([[30, 12], [18, 41]]),  # one degree of freedom: Yates' correction
        np.array([[30, 12, 45, 8]]),  # one row: no degree of freedom
    ],
    ids=["r-by-c", "two-by-two", "one-row"],
)
def test_chi2_matches_scipy_contingency(table):
    from scipy.stats import chi2_contingency

    from biphoton.spectrometer import _merge_small

    statistic, dof, p_value = bp.chi2_independence(table)
    ref_statistic, ref_p, ref_dof, _ = chi2_contingency(_merge_small(table))
    assert dof == ref_dof
    assert statistic == pytest.approx(ref_statistic, rel=1e-10, abs=1e-300)
    assert p_value == pytest.approx(ref_p, rel=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.5, 40.0, 1200.0])
@pytest.mark.parametrize("ratio", [0.01, 0.5, 0.99, 1.0, 1.5, 3.0])
def test_upper_gamma_matches_scipy_chi2_survival(a, ratio):
    # whole and half-whole a, from the bulk of the distribution to its far tail
    from scipy.stats import chi2

    from biphoton.spectrometer import _upper_gamma_q

    x = a * ratio
    assert _upper_gamma_q(a, x) == pytest.approx(chi2.sf(2.0 * x, 2.0 * a), rel=1e-10)


def test_spectro_histogram_tail_is_zero_without_a_warning(paper_jsa, default_config):
    # `spectro simulate`'s default histogram: 2209 dof, and a statistic so far
    # out that every term of the finite tail sum underflows to 0.0
    cfg = default_config
    histogram = bp.simulate_jsi_histogram(paper_jsa, cfg.signal_dcf, cfg.idler_dcf, cfg.pump,
                                          bin_size_ns=cfg.bin_size_ns, seed=cfg.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        statistic, dof, p_value = bp.chi2_independence(histogram.counts)
    assert dof == 2209 and statistic > 4 * dof
    assert p_value == 0.0


def test_chi2_rejects_an_empty_histogram():
    with pytest.raises(InputError, match="counts"):
        bp.chi2_independence(np.zeros((6, 6), dtype=np.int64))
