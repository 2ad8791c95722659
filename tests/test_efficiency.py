import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton as bp
from biphoton.errors import InputError


class TestKlyshko:
    def test_paper_operating_point(self):
        counts = bp.CountSummary(singles_signal=1000, singles_idler=1000, coincidences=640)
        eta_signal, eta_idler = bp.klyshko(counts)
        assert eta_signal == pytest.approx(0.64)
        assert eta_idler == pytest.approx(0.64)

    def test_unity_and_zero(self):
        full = bp.CountSummary(singles_signal=500, singles_idler=500, coincidences=500)
        assert bp.klyshko(full) == (1.0, 1.0)
        none = bp.CountSummary(singles_signal=500, singles_idler=500, coincidences=0)
        assert bp.klyshko(none) == (0.0, 0.0)

    def test_zero_singles_division_error(self):
        counts = bp.CountSummary(singles_signal=0, singles_idler=0, coincidences=0)
        with pytest.raises(ZeroDivisionError):
            bp.klyshko(counts)

    def test_accidental_subtraction_optional(self):
        raw = bp.CountSummary(singles_signal=1000, singles_idler=1000, coincidences=640)
        corrected = bp.CountSummary(
            singles_signal=1000, singles_idler=1000, coincidences=640, accidental_rate=40
        )
        assert bp.klyshko(raw)[0] == pytest.approx(0.64)
        assert bp.klyshko(corrected)[0] == pytest.approx(0.60)

    @pytest.mark.parametrize(
        "field", ["singles_signal", "singles_idler", "coincidences", "accidental_rate",
                  "integration_time_s"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, field, value):
        fields = {"singles_signal": 1000.0, "singles_idler": 1000.0, "coincidences": 640.0}
        with pytest.raises(InputError, match=field):
            bp.CountSummary(**{**fields, field: value})

    def test_invariant_coincidences_bounded(self):
        with pytest.raises(InputError):
            bp.CountSummary(singles_signal=100, singles_idler=500, coincidences=200)

    @given(
        singles_a=st.floats(min_value=1.0, max_value=1e6),
        singles_b=st.floats(min_value=1.0, max_value=1e6),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_symmetric_under_arm_swap(self, singles_a, singles_b, ratio):
        coincidences = ratio * min(singles_a, singles_b)
        forward = bp.klyshko(
            bp.CountSummary(singles_signal=singles_a, singles_idler=singles_b,
                            coincidences=coincidences)
        )
        swapped = bp.klyshko(
            bp.CountSummary(singles_signal=singles_b, singles_idler=singles_a,
                            coincidences=coincidences)
        )
        assert forward == (swapped[1], swapped[0])


class TestLossBudget:
    def test_all_unity(self):
        assert bp.predict_heralding(bp.LossBudget()) == 1.0

    def test_paper_consistency(self):
        budget = bp.LossBudget(detector_efficiency=0.85, optics_transmission=0.75)
        assert bp.predict_heralding(budget) == pytest.approx(0.6375)

    def test_filter_halves_prediction(self):
        base = bp.LossBudget(detector_efficiency=0.85, optics_transmission=0.75)
        filtered = bp.LossBudget(
            detector_efficiency=0.85, optics_transmission=0.75, filter_survival=0.5
        )
        assert bp.predict_heralding(filtered) == pytest.approx(
            bp.predict_heralding(base) / 2.0
        )

    def test_factor_range_validated(self):
        with pytest.raises(InputError):
            bp.LossBudget(detector_efficiency=1.2)
        with pytest.raises(InputError):
            bp.LossBudget(fiber_coupling=-0.1)

    @given(
        detector=st.floats(min_value=0.0, max_value=1.0),
        optics=st.floats(min_value=0.0, max_value=1.0),
        scale=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_every_factor(self, detector, optics, scale):
        base = bp.LossBudget(detector_efficiency=detector, optics_transmission=optics)
        worse = bp.LossBudget(
            detector_efficiency=detector * scale, optics_transmission=optics
        )
        assert bp.predict_heralding(worse) <= bp.predict_heralding(base)


class TestSurvivalFeedsBudget:
    def test_filtered_klyshko_ratio_matches_survival(self, paper_jsa, eight_nm_filter):
        filtered = bp.apply_filter(paper_jsa, eight_nm_filter, None)
        survival = filtered.survival.signal
        # synthetic end-to-end: filtering the signal arm scales its singles
        # and the coincidences by the survival fraction
        unfiltered_counts = bp.CountSummary(
            singles_signal=100_000, singles_idler=90_000, coincidences=60_000
        )
        filtered_counts = bp.CountSummary(
            singles_signal=100_000 * survival,
            singles_idler=90_000,
            coincidences=60_000 * survival,
        )
        eta_before = bp.klyshko(unfiltered_counts)[0]
        eta_after = bp.klyshko(filtered_counts)[0]
        ratio = eta_after / eta_before
        assert ratio == pytest.approx(survival, rel=0.10)
        budget_ratio = bp.predict_heralding(
            bp.LossBudget(filter_survival=survival)
        ) / bp.predict_heralding(bp.LossBudget())
        assert budget_ratio == pytest.approx(ratio, rel=0.10)
