import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearelliptic.campanato as campanato
from nearelliptic import (
    CustomPerturbation,
    GridSpec,
    HessianField,
    NonlinearitySpec,
    NormComboPerturbation,
    SinePerturbation,
    SolveConfig,
    VectorField,
    campanato_solve,
    evaluate_F,
    evaluate_field,
    example1_certificate,
    identity_tensor,
    random_band_limited,
    spectral_hessian,
)
from nearelliptic.errors import EvaluationError, InputError
from nearelliptic.fields import PHYSICAL, HessianPairs
from nearelliptic.nonlinearity import evaluate_batch, register_custom_perturbation

from conftest import random_sym_tensor, random_symmetric_batch

# a hook that reads single components, so a wrong unpacking changes its value
_COMPONENT_WEIGHTS = np.arange(1.0, 17.0).reshape(4, 4) / 16


def _component_hook(X):
    n = X.shape[-1]
    return 0.1 * np.tanh((X * _COMPONENT_WEIGHTS[:n, :n]).sum(axis=(-2, -1)))


COMPONENT_HOOK = CustomPerturbation(fn=_component_hook, lipschitz=0.2, name="component-tanh")
register_custom_perturbation(COMPONENT_HOOK)
PERTURBATIONS = {
    "none": None,
    "sine": SinePerturbation(0.7),
    "norm_combo": NormComboPerturbation(0.2, 0.3),
    "custom": COMPONENT_HOOK,
}


def unpacked_reference(spec, hess):
    """F on the full n^2 hessian through the sample-major batch evaluator."""
    if isinstance(hess, HessianPairs):
        hess = hess.to_hessian()
    X = np.moveaxis(hess.to_physical().data, (0, 1, 2), (-3, -2, -1))
    values = evaluate_batch(spec, X, spec.weight)
    return VectorField(hess.grid, np.moveaxis(values, -1, 0), PHYSICAL)


def symmetric_hessian(grid, rng, scale=3.0):
    raw = rng.standard_normal((grid.N, grid.n, grid.n) + grid.shape) * scale
    return HessianField(grid, 0.5 * (raw + np.swapaxes(raw, 1, 2)))


@pytest.fixture
def sine_spec(identity22):
    return NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))


class TestEvaluate:
    def test_linear_trace(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        X = np.stack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(evaluate_F(spec, X), [2.0, 0.0])

    def test_norm_combo_template(self, identity22):
        # with the monotone anchor each component follows the scalar template
        b, c = 0.1, 0.4
        spec = NonlinearitySpec(tensor=identity22, perturbation=NormComboPerturbation(b=b, c=c))
        rng = np.random.default_rng(0)
        X = random_symmetric_batch(rng, 1, 2, 2)[0]
        value = evaluate_F(spec, X)
        for comp in range(2):
            tr = np.trace(X[comp])
            expected = tr - b * np.linalg.norm(X[comp]) - c * abs(tr)
            assert value[comp] == pytest.approx(expected)

    def test_normalized_at_zero(self, identity22):
        zero = np.zeros((2, 2, 2))
        for pert in (None, SinePerturbation(0.5), NormComboPerturbation(0.1, 0.3)):
            spec = NonlinearitySpec(tensor=identity22, perturbation=pert)
            np.testing.assert_array_equal(evaluate_F(spec, zero), 0.0)

    def test_weighted_linear_part(self, identity22):
        grid_weight = np.full((4, 4), 2.0)
        spec = NonlinearitySpec(tensor=identity22, weight=grid_weight)
        X = np.stack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(evaluate_F(spec, X, x=(1, 2)), [4.0, 0.0])

    def test_rejects_asymmetric(self, identity22):
        spec = NonlinearitySpec(tensor=identity22)
        X = np.zeros((2, 2, 2))
        X[0, 0, 1] = 1.0
        with pytest.raises(InputError):
            evaluate_F(spec, X)

    def test_custom_hook_nan_rejected(self, identity22):
        pert = CustomPerturbation(fn=lambda X: np.full(X.shape[:-2], np.nan), lipschitz=1.0, name="bad")
        with pytest.raises(InputError):
            # fails the G(0) = 0 normalization check with non-finite output
            NonlinearitySpec(tensor=identity22, perturbation=pert)

    def test_custom_hook_round_trip(self, identity22):
        pert = CustomPerturbation(
            fn=lambda X: np.tanh(X).sum(axis=(-2, -1)) * 0.05, lipschitz=0.2, name="tanh-sum"
        )
        register_custom_perturbation(pert)
        spec = NonlinearitySpec(tensor=identity22, perturbation=pert)
        again = NonlinearitySpec.from_text(spec.to_text())
        X = random_symmetric_batch(np.random.default_rng(1), 1, 2, 2)[0]
        np.testing.assert_allclose(evaluate_F(spec, X), evaluate_F(again, X))


class TestLipschitz:
    def test_sine_declared_bound_is_tight_enough(self, sine_spec):
        rng = np.random.default_rng(2)
        X = random_symmetric_batch(rng, 4000, 2, 2)
        Z = random_symmetric_batch(rng, 4000, 2, 2)
        pert = sine_spec.perturbation
        num = np.sqrt(((pert.delta(X + Z) - pert.delta(X)) ** 2).sum(axis=-1))
        den = np.sqrt((Z**2).sum(axis=(1, 2, 3)))
        assert (num <= 0.3 * den + 1e-12).all()

    def test_norm_combo_bound(self, identity22):
        pert = NormComboPerturbation(b=0.2, c=0.3)
        rng = np.random.default_rng(3)
        X = random_symmetric_batch(rng, 4000, 2, 2)
        Z = random_symmetric_batch(rng, 4000, 2, 2)
        num = np.sqrt(((pert.delta(X + Z) - pert.delta(X)) ** 2).sum(axis=-1))
        den = np.sqrt((Z**2).sum(axis=(1, 2, 3)))
        bound = pert.lipschitz_bound(2)
        assert (num <= bound * den + 1e-12).all()

    def test_full_map_lipschitz_consistency(self, identity22):
        # sampled ratio of F itself stays under declared * sup(g^2) + |A| * sup(g^2)
        rng = np.random.default_rng(4)
        weight = 1.0 + rng.random((8, 8))
        spec = NonlinearitySpec(
            tensor=identity22, weight=weight, perturbation=SinePerturbation(amplitude=0.4)
        )
        bound = (
            spec.declared_lipschitz * spec.weight_sup
            + spec.tensor.operator_norm() * spec.weight_sup
            + 1e-9
        )
        X = random_symmetric_batch(rng, 2000, 2, 2)
        Z = random_symmetric_batch(rng, 2000, 2, 2)
        for idx in [(0, 0), (3, 5), (7, 7)]:
            for k in range(0, 2000, 50):
                num = np.linalg.norm(
                    evaluate_F(spec, X[k] + Z[k], x=idx) - evaluate_F(spec, X[k], x=idx)
                )
                assert num <= bound * np.linalg.norm(Z[k])

    def test_declared_ratio(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        assert spec.declared_lipschitz == pytest.approx(0.3)
        assert spec.lipschitz_ratio(1.0) == pytest.approx(0.3)
        # halving the weight doubles the ratio relative to g^2
        spec_w = NonlinearitySpec(
            tensor=identity22, weight=0.5, perturbation=SinePerturbation(amplitude=0.3)
        )
        assert spec_w.declared_lipschitz == pytest.approx(0.6)


class TestFieldEvaluation:
    def test_matches_pointwise(self, grid32, sine_spec):
        u = random_band_limited(grid32, band=4, seed=5)
        hess = spectral_hessian(u)
        field = evaluate_field(sine_spec, hess)
        for idx in [(0, 0), (5, 17), (31, 31)]:
            X = hess.data[(slice(None), slice(None), slice(None)) + idx]
            np.testing.assert_allclose(
                field.data[(slice(None),) + idx], evaluate_F(sine_spec, X), rtol=1e-12
            )

    def test_spec_serialization_round_trip(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=NormComboPerturbation(0.1, 0.2))
        again = NonlinearitySpec.from_text(spec.to_text())
        assert again.perturbation == spec.perturbation
        np.testing.assert_array_equal(again.tensor.entries, spec.tensor.entries)

    def test_weight_field_needs_reference(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, weight=np.ones((4, 4)) * 2)
        with pytest.raises(InputError):
            spec.to_text()


class TestPackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        N=st.sampled_from([2, 3]),
        kind=st.sampled_from(sorted(PERTURBATIONS)),
        spatial=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_batch_evaluator(self, n, N, kind, spatial, seed):
        grid = GridSpec(n=n, N=N, M=4)
        rng = np.random.default_rng(seed)
        weight = 0.5 + rng.random(grid.shape) if spatial else float(0.5 + rng.random())
        spec = NonlinearitySpec(
            tensor=random_sym_tensor(n, N, seed), weight=weight, perturbation=PERTURBATIONS[kind]
        )
        hess = symmetric_hessian(grid, rng)
        want = unpacked_reference(spec, hess).data
        for arg in (hess, HessianPairs.from_hessian(hess)):
            got = evaluate_field(spec, arg).data
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    def test_non_finite_output_is_an_evaluation_error(self, kind, packed):
        grid = GridSpec(n=3, N=2, M=4)
        spec = NonlinearitySpec(tensor=identity_tensor(3, 2), perturbation=PERTURBATIONS[kind])
        data = symmetric_hessian(grid, np.random.default_rng(7)).data.copy()
        data[1, 0, 2, 1, 2, 3] = data[1, 2, 0, 1, 2, 3] = np.inf
        hess = HessianField(grid, data)
        with pytest.raises(EvaluationError):
            evaluate_field(spec, HessianPairs.from_hessian(hess) if packed else hess)

    def test_hook_returning_nan_is_an_evaluation_error(self):
        hook = CustomPerturbation(
            fn=lambda X: np.where((X**2).sum(axis=(-2, -1)) > 0, np.nan, 0.0), lipschitz=1.0, name="nan-off-zero"
        )
        grid = GridSpec(n=2, N=2, M=4)
        spec = NonlinearitySpec(tensor=identity_tensor(2, 2), perturbation=hook)
        with pytest.raises(EvaluationError):
            evaluate_field(spec, symmetric_hessian(grid, np.random.default_rng(8)))

    def test_weight_field_must_match_the_grid(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, weight=np.ones((8, 8)))
        grid = GridSpec(n=2, N=2, M=4)
        with pytest.raises(InputError):
            evaluate_field(spec, symmetric_hessian(grid, np.random.default_rng(9)))

    def test_campanato_trace_matches_the_unpacked_reference(self, monkeypatch):
        grid = GridSpec(n=2, N=2, M=16)
        spec = NonlinearitySpec(tensor=identity_tensor(2, 2), perturbation=COMPONENT_HOOK)
        cert = example1_certificate(spec)
        f = evaluate_field(spec, spectral_hessian(random_band_limited(grid, band=3, seed=11)))
        config = SolveConfig(tol_residual=1e-10, max_iters=40)
        u, trace = campanato_solve(spec, 1.0, f, cert, config)
        monkeypatch.setattr(campanato, "evaluate_field", unpacked_reference)
        u_ref, ref = campanato_solve(spec, 1.0, f, cert, config)
        assert trace.status == ref.status == "converged"
        assert trace.iterations == ref.iterations
        got = np.array([(r.metric, r.residual) for r in trace.records])
        want = np.array([(r.metric, r.residual) for r in ref.records])
        scale = np.array([want[0, 0], np.sqrt(grid.volume) * np.abs(f.data).max()])
        assert (np.abs(got - want) <= 1e-12 * scale).all()
        np.testing.assert_allclose(trace.ratios, ref.ratios, rtol=1e-9)
        assert np.abs(u.data - u_ref.data).max() <= 1e-12 * np.abs(u_ref.data).max()
