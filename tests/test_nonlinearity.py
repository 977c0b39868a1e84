import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearelliptic.campanato as campanato
from nearelliptic import (
    CustomPerturbation,
    GridSpec,
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
from nearelliptic.fields import PHYSICAL, HessianPairs, save_field
from nearelliptic.nonlinearity import evaluate_pairs
from nearelliptic.tensors import contract_pairs, read_tensor

from conftest import random_sym_tensor, random_symmetric_batch, refuse_full_hessian

# a hook that reads single components, so a wrong unpacking changes its value
_COMPONENT_WEIGHTS = np.arange(1.0, 17.0).reshape(4, 4) / 16


def _component_hook(X):
    n = X.shape[-1]
    return 0.1 * np.tanh((X * _COMPONENT_WEIGHTS[:n, :n]).sum(axis=(-2, -1)))


COMPONENT_HOOK = CustomPerturbation(fn=_component_hook, lipschitz=0.2, name="component-tanh")
PERTURBATIONS = {
    "none": None,
    "sine": SinePerturbation(0.7),
    "norm_combo": NormComboPerturbation(0.2, 0.3),
    "custom": COMPONENT_HOOK,
}


def full_delta(pert, X):
    """G over a full symmetric batch (..., N, n, n) by its n^2 formula, with no packed slot."""
    n = X.shape[-1]
    if isinstance(pert, SinePerturbation):
        return (pert.amplitude / n) * np.sin(X).sum(axis=(-2, -1))
    if isinstance(pert, NormComboPerturbation):
        frob = np.sqrt((X**2).sum(axis=(-2, -1)))
        trace = np.diagonal(X, axis1=-2, axis2=-1).sum(axis=-1)
        return -pert.b * frob - pert.c * np.abs(trace)
    return pert.fn(X)


def full_hessian(hess: HessianPairs) -> np.ndarray:
    """The n^2 physical hessian (N, n, n) + grid of a packed one: component (j, i) repeats (i, j)."""
    return hess.data[:, HessianPairs.slot_index(hess.grid.n)]


def unpacked_reference(spec, hess):
    """F on the full n^2 hessian: A : X by einsum over all n^2 components, G by full_delta."""
    X = full_hessian(hess)
    values = spec.weight * np.einsum("abij,bij...->a...", spec.tensor.entries, X)
    if spec.perturbation is not None:
        batch = np.moveaxis(X, (0, 1, 2), (-3, -2, -1))
        values = values + np.moveaxis(full_delta(spec.perturbation, batch), -1, 0)
    return VectorField(hess.grid, values, PHYSICAL)


def symmetric_hessian(grid, rng, scale=3.0):
    """The packed upper triangle of a random symmetric (N, n, n) + grid field."""
    raw = rng.standard_normal((grid.N, grid.n, grid.n) + grid.shape) * scale
    rows, cols = HessianPairs.components(grid.n)
    return HessianPairs(grid, 0.5 * (raw + np.swapaxes(raw, 1, 2))[:, rows, cols])


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

    def test_custom_hook_text_is_not_read_back(self, identity22):
        # a hook is code, not data: its spec's text names it, but no document makes one
        pert = CustomPerturbation(
            fn=lambda X: np.tanh(X).sum(axis=(-2, -1)) * 0.05, lipschitz=0.2, name="tanh-sum"
        )
        text = NonlinearitySpec(tensor=identity22, perturbation=pert).to_text()
        assert '"custom_lipschitz"' in text and '"tanh-sum"' in text
        with pytest.raises(InputError, match="unknown perturbation kind 'custom_lipschitz'"):
            NonlinearitySpec.from_text(text)


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

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lipschitz_ratio_refuses_a_nu_that_is_not_finite_and_positive(self, identity22, nu):
        # nu = nan once gave a nan ratio
        spec = NonlinearitySpec(tensor=identity22, perturbation=SinePerturbation(amplitude=0.3))
        with pytest.raises(InputError, match="ellipticity constant"):
            spec.lipschitz_ratio(nu)


class TestFieldEvaluation:
    def test_matches_pointwise(self, grid32, sine_spec):
        u = random_band_limited(grid32, band=4, seed=5)
        hess = spectral_hessian(u)
        field = evaluate_field(sine_spec, hess)
        full = full_hessian(hess)
        for idx in [(0, 0), (5, 17), (31, 31)]:
            X = full[(slice(None), slice(None), slice(None)) + idx]
            np.testing.assert_allclose(
                field.data[(slice(None),) + idx], evaluate_F(sine_spec, X), rtol=1e-12
            )

    def test_builds_no_full_hessian(self, monkeypatch, grid32, sine_spec):
        u = random_band_limited(grid32, band=4, seed=6)
        expected = evaluate_field(sine_spec, spectral_hessian(u)).data
        refuse_full_hessian(monkeypatch)
        assert evaluate_field(sine_spec, spectral_hessian(u)).data.tobytes() == expected.tobytes()

    def test_spec_serialization_round_trip(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, perturbation=NormComboPerturbation(0.1, 0.2))
        again = NonlinearitySpec.from_text(spec.to_text())
        assert again.perturbation == spec.perturbation
        np.testing.assert_array_equal(again.tensor.entries, spec.tensor.entries)

    @pytest.mark.parametrize(
        "pert",
        [
            {"amplitude": 0.3},
            {"kind": "scaled_sine"},
            {"kind": "scaled_sine", "amplitude": "x"},
            {"kind": "scaled_sine", "amplitude": float("nan")},
            {"kind": "norm_combo", "b": 0.1},
            {"kind": "custom_lipschitz"},
            "scaled_sine",
        ],
    )
    def test_malformed_perturbation_is_an_input_error(self, identity22, pert):
        doc = dict(NonlinearitySpec(tensor=identity22).to_dict(), perturbation=pert)
        with pytest.raises(InputError):
            NonlinearitySpec.from_dict(doc)

    # the inline entries are 3 * identity_tensor(2, 2), in C order of (alpha, beta, i, j)
    @pytest.mark.parametrize(
        "tensor",
        ["example2:m=3", "example2", {"n": 2, "N": 2, "entries": [3.0, 0, 0, 3.0] + [0] * 8 + [3.0, 0, 0, 3.0]}],
    )
    def test_spec_reads_every_tensor_form(self, tmp_path, tensor):
        (tmp_path / "tensor.txt").write_text(read_tensor(tensor).to_text())
        want = read_tensor(tensor).entries
        for doc in (tensor, {"path": str(tmp_path / "tensor.txt")}):
            spec = NonlinearitySpec.from_dict({"tensor": doc, "weight": 0.5})
            np.testing.assert_array_equal(spec.tensor.entries, want)
            assert spec.weight == 0.5 and spec.perturbation is None
            again = NonlinearitySpec.from_text(spec.to_text())
            np.testing.assert_array_equal(again.tensor.entries, want)

    def test_identity_takes_the_grid_dimensions(self):
        with pytest.raises(InputError):
            NonlinearitySpec.from_dict({"tensor": "identity"})
        spec = NonlinearitySpec.from_dict({"tensor": "identity"}, GridSpec(n=3, N=2, M=8))
        np.testing.assert_array_equal(spec.tensor.entries, identity_tensor(3, 2).entries)

    def test_weight_path_reads_component_zero(self, tmp_path, identity22):
        grid = GridSpec(n=2, N=2, M=8)
        data = np.stack([np.full(grid.shape, 2.0), np.full(grid.shape, 5.0)])
        save_field(tmp_path / "w.field", VectorField(grid, data, PHYSICAL))
        doc = dict(NonlinearitySpec(tensor=identity22).to_dict(), weight=str(tmp_path / "w.field"))
        spec = NonlinearitySpec.from_dict(doc)
        np.testing.assert_array_equal(spec.weight, np.full(grid.shape, 2.0))

    @pytest.mark.parametrize(
        "tensor",
        [
            "example2:m=x",
            "example2:k=3",
            "example3",
            "identity:n=2",
            {"path": None},
            {"n": 2, "N": 2, "entries": [1.0] * 15},
            {"n": 2, "N": 2, "entries": ["x"] * 16},
            {"n": "2", "N": 2, "entries": [1.0] * 16},
            {"n": 2, "N": 2},
            [1.0] * 16,
        ],
    )
    def test_malformed_tensor_is_an_input_error(self, tensor):
        with pytest.raises(InputError):
            NonlinearitySpec.from_dict({"tensor": tensor}, GridSpec(n=2, N=2, M=8))

    @pytest.mark.parametrize("doc", [5, {}, {"weight": 1.0}])
    def test_spec_without_a_tensor_is_an_input_error(self, doc):
        with pytest.raises(InputError):
            NonlinearitySpec.from_dict(doc)

    def test_weight_field_needs_reference(self, identity22):
        spec = NonlinearitySpec(tensor=identity22, weight=np.ones((4, 4)) * 2)
        with pytest.raises(InputError):
            spec.to_text()

    def test_weight_field_is_the_specs_own_copy(self, identity22):
        w = np.ones((16, 16))
        spec = NonlinearitySpec(tensor=identity22, weight=w)
        assert spec.weight is not w and not np.shares_memory(spec.weight, w)
        assert w.flags.writeable and not spec.weight.flags.writeable
        w[3, 5] = 7.0
        np.testing.assert_array_equal(spec.weight, np.ones((16, 16)))


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
        got = evaluate_field(spec, hess).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("spatial", [False, True])
    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    @pytest.mark.parametrize("n, N", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_an_output_array_takes_the_bytes_of_a_fresh_one(self, n, N, kind, spatial):
        grid = GridSpec(n=n, N=N, M=8)
        rng = np.random.default_rng(13)
        weight = 0.5 + rng.random(grid.shape) if spatial else 0.5 + rng.random()
        spec = NonlinearitySpec(tensor=random_sym_tensor(n, N, 14), weight=weight, perturbation=PERTURBATIONS[kind])
        X = symmetric_hessian(grid, rng).data.reshape(N, -1, grid.points)
        w = spec.grid_weight(grid)
        fresh = evaluate_pairs(spec, X, w)
        # weight times A : X, plus G(X), each formed apart
        separate = w * contract_pairs(spec.tensor, X)
        if spec.perturbation is not None:
            separate = separate + spec.perturbation.delta_pairs(X, n)
        out = np.full((N, grid.points), np.nan)
        assert evaluate_pairs(spec, X, w, out) is out
        assert out.tobytes() == fresh.tobytes() == separate.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        N=st.sampled_from([2, 3]),
        lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
        log_scale=st.floats(-8, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_catalog_delta_matches_the_full_formula(self, n, N, lead, log_scale, seed):
        # the n^2 formulas, independent of the packed slots that delta goes through
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(lead + (N, n, n)) * 10.0**log_scale
        X = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        amplitude, b, c = rng.uniform(0.0, 2.0, 3)
        sines = (amplitude / n) * np.sin(X)
        frob = np.sqrt((X**2).sum(axis=(-2, -1)))
        diag = np.diagonal(X, axis1=-2, axis2=-1)
        trace = diag.sum(axis=-1)
        cases = [
            (SinePerturbation(amplitude), sines.sum(axis=(-2, -1)), np.abs(sines).sum(axis=(-2, -1))),
            (NormComboPerturbation(b, c), -b * frob - c * np.abs(trace), b * frob + c * np.abs(diag).sum(axis=-1)),
        ]
        for pert, want, magnitude in cases:
            got = pert.delta(X)
            assert got.shape == X.shape[:-2]
            assert np.all(np.abs(got - want) <= 1e-15 * magnitude)

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8),
        n=st.sampled_from([2, 3, 4]),
        slot=st.integers(0, 9),
        amplitude=st.floats(0.0, 2.0),
    )
    @example(xs=[0.0, -0.0, 5e-324, np.pi, 3 * np.pi, 1e300, -1e300], n=3, slot=0, amplitude=0.7)
    @example(xs=[0.0, -0.0, 5e-324, np.pi, 3 * np.pi, 1e300, -1e300], n=3, slot=1, amplitude=2.0)
    def test_sine_is_within_4_ulp_of_np_sin(self, xs, n, slot, amplitude):
        # one non-zero slot, so each output is (amplitude / n) * multiplicity * sin x
        slot %= n * (n + 1) // 2
        X = np.zeros((1, n * (n + 1) // 2, len(xs)))
        X[0, slot] = xs
        want = (amplitude / n) * HessianPairs.multiplicity(n)[slot] * np.sin(xs)
        with np.errstate(all="raise"):
            got = SinePerturbation(amplitude).delta_pairs(X, n)
        assert got.shape == (1, len(xs))
        assert np.all(np.abs(got[0] - want) <= 4 * np.spacing(np.abs(want)))

    def test_sine_allocates_no_full_size_temporary(self):
        X = np.random.default_rng(12).standard_normal((2, 6, 32**3))
        tracemalloc.start()
        try:
            SinePerturbation(0.7).delta_pairs(X, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    def test_non_finite_output_is_an_evaluation_error(self, kind):
        grid = GridSpec(n=3, N=2, M=4)
        spec = NonlinearitySpec(tensor=identity_tensor(3, 2), perturbation=PERTURBATIONS[kind])
        data = symmetric_hessian(grid, np.random.default_rng(7)).data.copy()
        data[1, 2, 1, 2, 3] = np.inf  # slot 2 is component (0, 2) and (2, 0)
        with pytest.raises(EvaluationError):
            evaluate_field(spec, HessianPairs(grid, data))

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
