import numpy as np
import pytest

from nearelliptic import example2_analysis, example3_analysis
from nearelliptic.counterexamples import (
    default_parameters,
    equality_witness,
    saturating_witness,
    scalar_norm_combo,
    trace_pairing,
    validate_parameters,
    window_constants,
)
from nearelliptic.errors import InputError
from nearelliptic.tensors import example2_tensor


class TestBlockTensorAnalysis:
    def test_probe_triples_exact(self):
        report = example2_analysis(8.0)
        assert report.probe_a == pytest.approx((4.0, 4.0, 2.0), abs=1e-12)
        assert report.probe_b == pytest.approx((-32.0, 4.0, 20.0), abs=1e-12)

    def test_probe_scaling_in_m(self):
        report = example2_analysis(16.0)
        assert report.probe_b == pytest.approx((-64.0, 4.0, 20.0), abs=1e-12)

    def test_infeasible_for_admissible_m(self):
        for m in (8.0, 16.0, 100.0):
            report = example2_analysis(m)
            assert report.c2_upper == 2.0
            assert report.c2_lower == pytest.approx(m / 4.0)
            assert report.infeasible

    def test_small_m_rejected(self):
        with pytest.raises(InputError):
            example2_analysis(4.0)

    def test_convexity_holds(self):
        report = example2_analysis(8.0, samples=5000, seed=1)
        assert report.convexity_margin_min >= -1e-12
        assert report.expansion_max_error <= 1e-10

    def test_pairing_oracle(self):
        # independent loop evaluation of the trace pairing at the first probe
        A = example2_tensor(8.0)
        X = np.stack([np.eye(2), np.zeros((2, 2))])
        a_term = 0.0
        for al in range(2):
            for be in range(2):
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            a_term += A.entries[al, be, i, j] * X[be, i, j] * X[al, k, k]
        assert trace_pairing(A, X)[0] == pytest.approx(a_term)


class TestWindowAnalysis:
    def test_default_parameters(self):
        b, c = default_parameters(9)
        assert b == pytest.approx(1.0 / 13.0)
        assert c == pytest.approx(1.0 / 3.0)

    def test_sum_at_one(self):
        report = example3_analysis(n=9, alpha_samples=5, sample_count=500)
        # 2 (c^2 + b^2) = 2 (1/9 + 1/169) = 356/1521
        assert report.sum_at_one == pytest.approx(356.0 / 1521.0, rel=1e-12)
        assert report.sum_at_one < 1.0

    def test_window_brackets_one(self):
        report = example3_analysis(n=9, alpha_samples=5, sample_count=500)
        assert 0 < report.alpha_lo < 1 < report.alpha_hi
        gamma_lo, beta_lo = window_constants(report.alpha_lo, report.b, report.c)
        gamma_hi, beta_hi = window_constants(report.alpha_hi, report.b, report.c)
        assert gamma_lo + beta_lo == pytest.approx(1.0, abs=1e-9)
        assert gamma_hi + beta_hi == pytest.approx(1.0, abs=1e-9)

    def test_right_crossing_is_nearer(self):
        # the constant sum grows faster above one, so the right radius is smaller
        report = example3_analysis(n=9, alpha_samples=5, sample_count=500)
        assert report.alpha_hi - 1.0 <= 1.0 - report.alpha_lo
        assert report.alpha0 == pytest.approx(1.0 - report.alpha_lo)

    def test_inside_records(self):
        report = example3_analysis(n=9, alpha_samples=20, sample_count=3000, seed=2)
        assert len(report.inside) == 20
        for rec in report.inside:
            assert rec.sampled_violation_max <= 1e-9
            assert rec.equality_rel_error <= 1e-9
            assert rec.pi_rel_error <= 1e-9

    def test_outside_witness_violations(self):
        report = example3_analysis(n=9, alpha_samples=5, sample_count=500)
        assert len(report.outside) == 2
        for rec in report.outside:
            assert rec.constant_sum >= 1.0
            assert rec.saturation_rel_error <= 1e-12
            assert rec.violation >= -1e-12

    def test_identity_scaling_pi_vanishes(self):
        # alpha = 1: the balanced witness exactly equalizes both sides
        b, c = default_parameters(9)
        Z0 = equality_witness(9, 1.0, b, c)
        t_gamma, t_beta = c, b
        pi = (1 - t_beta) ** 2 * (Z0**2).sum() - t_gamma**2 * np.trace(Z0) ** 2
        scale = (1 - t_beta) ** 2 * (Z0**2).sum() + t_gamma**2 * np.trace(Z0) ** 2
        assert abs(pi) / scale <= 1e-9
        gap = abs(np.trace(Z0) - scalar_norm_combo(Z0, b, c))
        assert gap == pytest.approx(np.sqrt((Z0**2).sum()), rel=1e-9)

    def test_equality_witness_shape_count(self):
        # ones off-diagonal, +/- zeta on the diagonal: |Z|^2 = n^2 - n + n zeta^2
        b, c = default_parameters(9)
        Z0 = equality_witness(9, 0.8, b, c)
        zeta = Z0[0, 0]
        assert (Z0**2).sum() == pytest.approx(9 * 9 - 9 + 9 * zeta**2)

    def test_saturating_witness_balance(self):
        b, c = default_parameters(9)
        alpha = 1.9
        gamma, beta = window_constants(alpha, b, c)
        Z0 = saturating_witness(9, alpha, b, c)
        # construction balances the two terms of the bound
        assert beta * (Z0**2).sum() == pytest.approx(gamma * np.trace(Z0) ** 2, rel=1e-12)

    def test_violation_everywhere_outside_symmetric_window(self):
        # the symmetric radius is taken on the slow (left) side, so every
        # alpha beyond it on either side lies outside the true window and the
        # witness gap is nonnegative
        b, c = default_parameters(9)
        report = example3_analysis(n=9, alpha_samples=5, sample_count=500)
        offsets = (1.01, 1.2, 2.0)
        for sign in (-1.0, 1.0):
            for factor in offsets:
                alpha = 1.0 + sign * factor * report.alpha0
                if alpha <= 0:
                    continue
                gamma, beta = window_constants(alpha, b, c)
                assert gamma + beta >= 1.0 - 1e-12
                Z0 = saturating_witness(9, alpha, b, c)
                gap = np.trace(Z0) - alpha * scalar_norm_combo(Z0, b, c)
                rhs = gamma * np.trace(Z0) ** 2 + beta * (Z0**2).sum()
                assert gap**2 - rhs / (gamma + beta) >= -1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InputError):
            validate_parameters(9, b=0.5, c=0.4)  # c > b violated
        with pytest.raises(InputError):
            validate_parameters(9, b=0.01, c=0.05)  # sqrt(n) c + b > 1 violated
        with pytest.raises(InputError):
            example3_analysis(n=2)

    def test_other_dimensions(self):
        for n in (3, 5):
            report = example3_analysis(n=n, alpha_samples=5, sample_count=500)
            assert report.sum_at_one < 1
            for rec in report.inside:
                assert rec.pi_rel_error <= 1e-9


class TestInputErrors:
    # each raise site that no analysis reaches, with its message
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: saturating_witness(3, 1.0, 0.1, 0.5), "needs alpha != 1"),
            (lambda: equality_witness(3, 1.0, 0.1, 0.1), r"witness undefined at alpha=1.0: radicand -0.78"),
            (lambda: validate_parameters(9, 0.45, 0.6), "need b \\+ c < 1, got 1.05"),
            (lambda: validate_parameters(9, 0.1, 0.8), r"need b\^2 \+ c\^2 < 1/2, got 0.65"),
        ],
    )
    def test_a_bad_input_is_refused_with_its_message(self, build, message):
        with pytest.raises(InputError, match=message):
            build()
