"""Acceptance suite: one test per primary criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines; tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from nearelliptic import (
    GridSpec,
    NonlinearitySpec,
    SinePerturbation,
    apply_operator,
    campanato_solve,
    def1_from_def2,
    def2_from_def1,
    ellipticity_constant,
    example1_certificate,
    example2_analysis,
    example2_tensor,
    example3_analysis,
    hermitian_form,
    hessian_estimate_check,
    identity_tensor,
    l2_norm,
    nu_FG_estimate,
    nu_F_lower_bound,
    random_band_limited,
    solve_linear,
    solve_via_nearness,
    spectral_hessian,
    uniqueness_constant,
    verify_comparison,
)
from nearelliptic.errors import NearnessConditionError
from nearelliptic.fields import PHYSICAL, HessianPairs
from nearelliptic.nonlinearity import evaluate_field
from nearelliptic.tensors import random_rank_one_positive


@pytest.fixture(scope="module")
def certified_tensors():
    """identity, the block counterexample tensor, and three random certified ones."""
    tensors = [
        ("identity", identity_tensor(2, 2)),
        ("example2(m=8)", example2_tensor(8.0)),
    ]
    for k in range(3):
        A, _ = random_rank_one_positive(2, 2, seed=1000 + k)
        tensors.append((f"random-{k}", A))
    return [(name, A, ellipticity_constant(A).nu) for name, A in tensors]


def hessian_rel_error(u, ustar):
    hs = spectral_hessian(ustar, PHYSICAL)
    return HessianPairs(hs.grid, spectral_hessian(u, PHYSICAL).data - hs.data).norm() / hs.norm()


def test_hessian_estimate_bound(certified_tensors):
    """nu(A) ||D^2 u|| <= (1 + 1e-9) ||A : D^2 u|| over 1000 seeded fields x 5 tensors."""
    started = time.monotonic()
    grid = GridSpec(n=2, N=2, M=64)
    fields = [random_band_limited(grid, band=16, seed=seed) for seed in range(1000)]
    worst = {}
    for name, A, nu in certified_tensors:
        ratios = [hessian_estimate_check(A, u, nu=nu) for u in fields]
        worst[name] = max(ratios)
        assert worst[name] <= 1.0 + 1e-9, f"{name}: ratio {worst[name]}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion must run in < 30 s, took {elapsed:.1f} s"
    print(
        f"PASS hessian-estimate: 1000 fields x 5 tensors, worst ratio "
        f"{max(worst.values()):.12f}, {elapsed:.1f} s"
    )


def test_example2_reproduction():
    """Probe triples exact and the constraint window empty for every tested m."""
    for m in (8.0, 16.0, 100.0):
        report = example2_analysis(m)
        assert report.probe_a == pytest.approx((4.0, 4.0, 2.0), abs=1e-12)
        assert report.probe_b == pytest.approx((-4.0 * m, 4.0, 20.0), abs=1e-12)
        assert report.infeasible, f"m={m}: expected empty (m/4, 2) window"
        assert report.c2_lower >= report.c2_upper
    print("PASS example2: probes (4, 4, 2) and (-4m, 4, 20) exact; infeasible for m in {8, 16, 100}")


def test_example3_reproduction():
    """Window located; equality witnesses inside at 1e-9; violations outside."""
    report = example3_analysis(n=9, alpha_samples=20, sample_count=4000, seed=0)
    assert report.b == pytest.approx(1.0 / 13.0)
    assert report.c == pytest.approx(1.0 / 3.0)
    assert report.sum_at_one == pytest.approx(2 * ((1 / 3) ** 2 + (1 / 13) ** 2), rel=1e-12)
    assert report.sum_at_one < 1.0
    assert 0.0 < report.alpha_lo < 1.0 < report.alpha_hi  # both bisections converged
    assert len(report.inside) == 20
    for rec in report.inside:
        assert rec.equality_rel_error <= 1e-9
        assert rec.pi_rel_error <= 1e-9
        assert rec.sampled_violation_max <= 1e-9
    assert {round(rec.alpha, 10) for rec in report.outside} == {
        round(1.0 - 1.5 * report.alpha0, 10),
        round(1.0 + 1.5 * report.alpha0, 10),
    }
    for rec in report.outside:
        assert rec.violation >= -1e-12, f"alpha={rec.alpha}: no violation witnessed"
        assert rec.constant_sum >= 1.0
    print(
        f"PASS example3: sum(1) = {report.sum_at_one:.6f} < 1, window "
        f"[{report.alpha_lo:.4f}, {report.alpha_hi:.4f}], witnesses hold at 20 alphas, "
        f"violations at 1 +/- 1.5 alpha0"
    )


def test_linear_round_trip():
    """Manufactured f = A : D^2 u* recovered to 1e-10 in the hessian seminorm."""
    random3, cert3 = random_rank_one_positive(3, 2, seed=7)
    cases = [
        ("identity n=2", identity_tensor(2, 2), GridSpec(n=2, N=2, M=64), 16),
        ("example2 n=2", example2_tensor(8.0), GridSpec(n=2, N=2, M=64), 16),
        ("identity n=3", identity_tensor(3, 2), GridSpec(n=3, N=2, M=64), 16),
        ("random n=3", random3, GridSpec(n=3, N=2, M=64), 16),
        ("identity n=5", identity_tensor(5, 2), GridSpec(n=5, N=2, M=8), 2),
    ]
    timings = {}
    for name, A, grid, band in cases:
        started = time.monotonic()
        nu = ellipticity_constant(A).nu
        ustar = random_band_limited(grid, band=band, seed=11)
        f = apply_operator(A, ustar)
        result = solve_linear(A, f, nu=nu)
        rel = hessian_rel_error(result.u, ustar)
        timings[name] = time.monotonic() - started
        assert rel <= 1e-10, f"{name}: recovery error {rel}"
    assert timings["identity n=5"] < 60.0
    print(
        f"PASS linear-round-trip: 5 cases <= 1e-10; n=5 run {timings['identity n=5']:.1f} s"
    )


def test_regularization_family():
    """Multiplier h(z)|z|^2 within [0, 1] everywhere; errors decrease with eps."""
    grid = GridSpec(n=2, N=2, M=64)
    for A in (identity_tensor(2, 2), example2_tensor(8.0)):
        nu = ellipticity_constant(A).nu
        ustar = random_band_limited(grid, band=12, seed=21)
        f = apply_operator(A, ustar)
        exact = solve_linear(A, f, nu=nu).u
        errors = []
        for eps in (1e-2, 1e-4, 1e-6):
            result = solve_linear(A, f, epsilon=eps, nu=nu)
            lo, hi = result.multiplier_bounds
            assert 0.0 <= lo and hi <= 1.0
            errors.append(l2_norm(result.u - exact))
        assert errors[0] > errors[1] > errors[2], f"not monotone: {errors}"
    print("PASS regularization: multiplier in [0, 1] at all frequencies, errors monotone in eps")


def test_campanato_iteration():
    """Contraction solves for rho in {0.1, 0.3, 0.6}: rate, count, and gauge agreement."""
    grid = GridSpec(n=2, N=2, M=64)
    A = identity_tensor(2, 2)
    tol = 1e-8
    summary = []
    for rho in (0.1, 0.3, 0.6):
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=rho))
        cert = example1_certificate(spec, nu=1.0)
        K = cert.require_feasible().contraction
        ustar = random_band_limited(grid, band=8, seed=31)
        f = evaluate_field(spec, spectral_hessian(ustar, PHYSICAL))
        u, trace = campanato_solve(spec, 1.0, f, cert)
        assert trace.status == "converged"
        fnorm = l2_norm(f)
        assert trace.final_residual <= tol * fnorm
        assert all(r <= K + 0.05 for r in trace.ratios), f"rho={rho}: ratios {trace.ratios}"
        bound = int(np.ceil(np.log(tol) / np.log(K))) + 5
        assert trace.iterations <= bound
        start = random_band_limited(grid, band=8, seed=77)
        u2, _ = campanato_solve(spec, 1.0, f, cert, initial_guess=start)
        gap = l2_norm(apply_operator(A, u - u2))
        assert gap <= 10 * tol * fnorm
        summary.append(f"rho={rho}: {trace.iterations} iters <= {bound}, max ratio {max(trace.ratios):.3f} <= {K + 0.05:.3f}")
    print("PASS campanato: " + "; ".join(summary))


def test_uniqueness_estimate():
    """||D^2(w - v)|| <= C ||F(., D^2 w) - F(., D^2 v)|| + 1e-9 on 100 pairs per spec."""
    grid = GridSpec(n=2, N=2, M=32)
    A = identity_tensor(2, 2)
    for rho in (0.1, 0.3, 0.6):
        spec = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=rho))
        cert = example1_certificate(spec, nu=1.0)
        C = uniqueness_constant(cert)
        worst = -np.inf
        for k in range(100):
            w = random_band_limited(grid, band=8, seed=2000 + k)
            v = random_band_limited(grid, band=8, seed=3000 + k)
            worst = max(worst, verify_comparison(spec, cert, w, v))
        assert worst <= 1e-9, f"rho={rho}: worst margin {worst}"
    print(f"PASS uniqueness: 300 pairs, C = sup(alpha)/(nu (1 - K)), all margins <= 1e-9")


def test_stability():
    """Perturbed solves admitted under the bound and refused above it."""
    grid = GridSpec(n=2, N=2, M=32)
    A = identity_tensor(2, 2)
    specF = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=0.3))
    certF = example1_certificate(specF, nu=1.0)
    lower = nu_F_lower_bound(certF)

    delta = 0.1 * lower
    specG = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=0.3 + delta))
    assert nu_FG_estimate(specF, specG).effective <= 0.1 * lower + 1e-12
    ustar = random_band_limited(grid, band=6, seed=41)
    g = evaluate_field(specG, spectral_hessian(ustar, PHYSICAL))
    u, report = solve_via_nearness(specF, specG, 1.0, certF, g)
    assert report.condition_met and not report.certificate_suspect
    assert hessian_rel_error(u, ustar) <= 1e-7
    assert all(r <= 0.15 for r in report.outer_trace.ratios)

    f = evaluate_field(specF, spectral_hessian(ustar, PHYSICAL))
    u_direct, _ = campanato_solve(specF, 1.0, f, certF)
    u_outer, _ = solve_via_nearness(specF, specF, 1.0, certF, f)
    gap = l2_norm(apply_operator(A, u_direct - u_outer))
    assert gap <= 10 * 1e-8 * l2_norm(f)

    specBad = NonlinearitySpec(tensor=A, perturbation=SinePerturbation(amplitude=0.3 + 2 * lower))
    with pytest.raises(NearnessConditionError) as err:
        solve_via_nearness(specF, specBad, 1.0, certF, g)
    assert err.value.report.condition_met is False
    print(
        f"PASS stability: outer ratios <= 0.15 at distance 0.1 nu_F, G=F matches direct "
        f"solver, refusal above nu_F = {lower:.3f}"
    )


def test_conversion_round_trip():
    """def1 <- def2 <- def1 feasibility for 100 random constant triples."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = rng.uniform(0.1, 3.0)
        kappa = lam * rng.uniform(0.02, 0.98)
        M = rng.uniform(0.0, 4.0)
        alpha_sup = rng.uniform(0.2, 5.0)
        nu = rng.uniform(0.2, 3.0)
        conv = def2_from_def1(lam, kappa, M, alpha_sup=alpha_sup, nu=nu)
        assert not conv.anomaly
        assert 0 < conv.beta and 0 < conv.gamma and conv.beta + conv.gamma < 1
        lam2, kap2 = def1_from_def2(conv.beta, conv.gamma)
        assert lam2 > kap2 > 0
    print("PASS conversions: 100 random (lambda, kappa, M) triples round-trip feasibly")


def test_complex_extension(certified_tensors):
    """Hermitian rank-one values stay above (nu - 1e-9) |xi|^2 |a|^2 for 1000 draws."""
    rng = np.random.default_rng(6)
    count = 0
    while count < 1000:
        name, A, nu = certified_tensors[count % len(certified_tensors)]
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = rng.standard_normal(2)
        value = hermitian_form(A, xi, a)
        floor = (nu - 1e-9) * float(np.vdot(xi, xi).real) * float(a @ a)
        assert value >= floor, f"{name}: {value} < {floor}"
        count += 1
    print("PASS complex-extension: 1000 hermitian rank-one draws above the certified floor")
