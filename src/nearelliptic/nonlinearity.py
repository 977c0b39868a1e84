"""Declarative nonlinearities F(x, X) = g^2(x) (A : X) + G(X).

A spec couples a rank-one positive anchor tensor with a bounded weight
g^2 and a perturbation G drawn from a small closed catalog, so every
evaluation is deterministic and serializable.  All catalog entries satisfy
G(0) = 0; together with A:0 = 0 this normalizes F(., 0) = 0, which the
fixed-point solvers assume.

The declared Lipschitz number of a spec is the bound used by the
certificates: it controls |G(X+Z) - G(X)| / g^2(x) <= M |Z| for every x,
i.e. the perturbation Lipschitz constant measured relative to the weight.

One function, :func:`evaluate_pairs`, evaluates F, for grids, the certificate
samplers and :func:`evaluate_F` alike, on the packed layout of
:class:`~nearelliptic.fields.HessianPairs`, component-major (N, n(n+1)/2, K),
so each distinct component is evaluated once: the linear part is one matmul
with the packed tensor, and the catalog perturbations weight each off-diagonal
slot 2, the count of (i, j) and (j, i) in a sum over all n^2 components.  Each
catalog formula is stated once, as ``delta_pairs``; ``delta`` packs a symmetric
batch (..., N, n, n) and calls it.  A custom hook is handed full batches.

The sine perturbation takes its sine through the half-angle identity
sin x = 2t / (1 + t^2), t = tan(x/2): numpy dispatches float64 ``tan`` to
SIMD code on common x86 CPUs but not ``sin``, and the identity stays within
2 ulp of ``np.sin`` from 1e-8 to 1e300.  It walks the packed slots one at a
time and accumulates into the (N, points) output in place, so no temporary
is larger than one slot.

:meth:`NonlinearitySpec.from_dict` is the one reader of a spec, for configs
and for :meth:`~NonlinearitySpec.to_dict` alike: the tensor in any form of
:func:`~nearelliptic.tensors.read_tensor`, the weight as a number or a
field-file path, the perturbation by :func:`perturbation_from_dict`.  A
weight field cannot be written back; its config keeps the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import EvaluationError, InputError, finite_number
from .fields import PHYSICAL, GridSpec, HessianPairs, VectorField, _load_vector_field
from .tensors import SymTensor4, check_hessian_arg, contract_pairs, read_tensor

class _PackedFormula:
    """A catalog perturbation whose formula is stated once, on packed X, as ``delta_pairs``."""

    def delta(self, X: np.ndarray) -> np.ndarray:
        """G over a symmetric batch (..., N, n, n) -> (..., N), through its n(n+1)/2 distinct slots."""
        return self.delta_pairs(HessianPairs.pack(X), X.shape[-1]).T.reshape(X.shape[:-2])


@dataclass(frozen=True)
class SinePerturbation(_PackedFormula):
    """G(X)_alpha = (amplitude / n) * sum_ij sin(X[alpha, i, j]).

    The uniform 1/n weighting makes the exact Lipschitz constant equal to the
    amplitude (the Jacobian row norm is (amplitude/n) sqrt(sum cos^2) <= amplitude,
    attained at X = 0).

    ``delta_pairs`` evaluates sin x as 2t / (1 + t^2) with t = tan(x/2), one
    packed slot at a time, adding multiplicity * sin into the output.  For
    |x| below about 1e-154, t^2 underflows to 0 and 1 + t^2 is exactly 1, so
    underflow is ignored there whatever the caller's ``np.errstate``.  No
    finite double lies within 1e-154 of a pole of tan, so t^2 does not
    overflow.
    """

    amplitude: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise InputError("sine perturbation amplitude must be >= 0")

    kind = "scaled_sine"

    def lipschitz_bound(self, n: int) -> float:
        return self.amplitude

    def delta_pairs(self, X: np.ndarray, n: int) -> np.ndarray:
        # packed X: (N, n(n+1)/2, K) -> (N, K)
        out = np.zeros((X.shape[0], X.shape[2]))
        t = np.empty_like(out)
        denom = np.empty_like(out)
        with np.errstate(under="ignore"):
            for slot, m in enumerate(HessianPairs.multiplicity(n)):
                np.multiply(X[:, slot], 0.5, out=t)
                np.tan(t, out=t)
                np.multiply(t, t, out=denom)
                denom += 1.0
                np.divide(t, denom, out=t)
                t *= 2.0 * m * self.amplitude / n
                out += t
        return out

    def params(self) -> dict:
        return {"amplitude": self.amplitude}


@dataclass(frozen=True)
class NormComboPerturbation(_PackedFormula):
    """G(X)_alpha = -b |X_alpha| - c |trace(X_alpha)|, per component.

    The scalar template behind the two-constant optimality analysis, lifted
    diagonally across components.
    """

    b: float
    c: float

    def __post_init__(self):
        if self.b < 0 or self.c < 0:
            raise InputError("norm-combo coefficients must be >= 0")

    kind = "norm_combo"

    def lipschitz_bound(self, n: int) -> float:
        return self.b + self.c * np.sqrt(n)

    def delta_pairs(self, X: np.ndarray, n: int) -> np.ndarray:
        # packed X: (N, n(n+1)/2, K) -> (N, K); the diagonal slots have multiplicity 1
        weights = HessianPairs.multiplicity(n)
        frob = np.sqrt(weights @ X**2)
        trace = X[:, weights == 1.0].sum(axis=1)
        return -self.b * frob - self.c * np.abs(trace)

    def params(self) -> dict:
        return {"b": self.b, "c": self.c}


@dataclass(frozen=True)
class CustomPerturbation:
    """User hook with a declared Lipschitz bound.

    ``fn`` maps a batch (..., N, n, n) to (..., N), must vanish at 0 and must
    be a pure function of X: the stability admission keeps its estimates for
    a spec for the life of the spec object, so a hook whose output follows
    other state would be admitted on stale values.  ``nu_FG_estimate`` and
    ``empirical_nu_F`` (in :mod:`nearelliptic.stability`) have
    ``cache_clear()`` to drop them.  A hook lives only as a Python object:
    its :meth:`NonlinearitySpec.to_dict` names it, but no document is read
    back into one (see :func:`perturbation_from_dict`).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    name: str

    kind = "custom_lipschitz"

    def __post_init__(self):
        if self.lipschitz < 0:
            raise InputError("declared Lipschitz bound must be >= 0")

    def lipschitz_bound(self, n: int) -> float:
        return self.lipschitz

    def delta(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(X), dtype=float)
        if out.shape != X.shape[:-2]:
            raise EvaluationError(
                f"custom hook returned shape {out.shape}, expected {X.shape[:-2]}"
            )
        return out

    def delta_pairs(self, X: np.ndarray, n: int) -> np.ndarray:
        # unpack (N, n(n+1)/2, K) to the hook's batch (K, N, n, n)
        return self.delta(np.moveaxis(X[:, HessianPairs.slot_index(n)], -1, 0)).T

    def params(self) -> dict:
        return {"name": self.name, "lipschitz": self.lipschitz}


Perturbation = SinePerturbation | NormComboPerturbation | CustomPerturbation


def perturbation_from_dict(doc) -> Perturbation:
    """Parse ``{"kind": ..., <params>}``, the inverse of ``{"kind": p.kind, **p.params()}``.

    The kinds are those of the catalog, ``scaled_sine`` and ``norm_combo``; a
    custom hook is code, not data, so its kind is unknown here.  A document
    that is not a mapping, or has another kind or lacks a parameter, or
    carries a parameter that is not a finite number, is an
    :class:`InputError`.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"perturbation needs a 'kind', got {doc!r}")
    kind = doc["kind"]
    for cls in (SinePerturbation, NormComboPerturbation):
        if kind == cls.kind:
            params = {param.name: doc.get(param.name) for param in fields(cls)}
            for name, value in params.items():
                finite_number(value, f"{kind} perturbation {name!r}")
            return cls(**params)
    raise InputError(f"unknown perturbation kind {kind!r}")


@dataclass(frozen=True, eq=False)
class NonlinearitySpec:
    """F(x, X) = weight(x) * (A : X) + G(X) with G from the catalog (or absent).

    A weight field is checked finite and positive, then kept as the spec's
    own read-only copy, so the caller's array stays writable and later
    writes to it change neither the spec nor anything computed from it.
    A spec compares and hashes by identity, which is what lets the stability
    admission keep its estimates per spec object.
    """

    tensor: SymTensor4
    weight: float | np.ndarray = 1.0
    perturbation: Perturbation | None = None

    def __post_init__(self):
        w = self.weight
        if isinstance(w, np.ndarray):
            if not np.all(np.isfinite(w)) or not np.all(w > 0):
                raise InputError("weight field must be finite and strictly positive")
            w = np.array(w, dtype=float, order="C")
            w.setflags(write=False)
            object.__setattr__(self, "weight", w)
        else:
            w = float(finite_number(w, "a weight that is not a grid field"))
            if not w > 0:
                raise InputError(f"constant weight must be strictly positive, got {w}")
            object.__setattr__(self, "weight", w)
        if self.perturbation is not None:
            zero = np.zeros((self.tensor.N, self.tensor.n, self.tensor.n))
            at_zero = np.abs(self.perturbation.delta(zero)).max()
            if not at_zero <= 1e-14:  # also catches NaN/Inf hooks
                raise InputError(f"perturbation must vanish at 0, got |G(0)| = {at_zero:.3e}")

    @property
    def N(self) -> int:
        return self.tensor.N

    @property
    def n(self) -> int:
        return self.tensor.n

    @property
    def is_linear(self) -> bool:
        return self.perturbation is None

    @property
    def weight_sup(self) -> float:
        if isinstance(self.weight, np.ndarray):
            return float(self.weight.max())
        return self.weight

    @property
    def weight_inf(self) -> float:
        if isinstance(self.weight, np.ndarray):
            return float(self.weight.min())
        return self.weight

    @property
    def declared_lipschitz(self) -> float:
        """Perturbation Lipschitz bound relative to the weight: sup_x Lip(G)/g^2(x)."""
        if self.perturbation is None:
            return 0.0
        return self.perturbation.lipschitz_bound(self.n) / self.weight_inf

    def lipschitz_ratio(self, nu: float) -> float:
        """Declared bound divided by the anchor ellipticity constant, which must be a finite positive number."""
        if finite_number(nu, "ellipticity constant") <= 0:
            raise InputError(f"nonpositive ellipticity constant {nu}")
        return self.declared_lipschitz / nu

    def f_lipschitz_bound(self) -> float:
        """Global Lipschitz bound of X -> F(x, X), essentially uniform in x."""
        lin = self.weight_sup * self.tensor.operator_norm()
        pert = 0.0 if self.perturbation is None else self.perturbation.lipschitz_bound(self.n)
        return lin + pert

    def grid_weight(self, grid: GridSpec) -> float | np.ndarray:
        """The weight at the points of ``grid``, as :func:`evaluate_pairs` takes it: a constant, or flat (M^n,).

        Raises ``InputError`` when the spec's dimensions or its weight field do not fit the grid.
        """
        if (self.N, self.n) != (grid.N, grid.n):
            raise InputError(
                f"spec dimensions (N={self.N}, n={self.n}) do not match grid (N={grid.N}, n={grid.n})"
            )
        if isinstance(self.weight, np.ndarray):
            if self.weight.shape != grid.shape:
                raise InputError(f"weight field has shape {self.weight.shape}, the grid {grid.shape}")
            return self.weight.reshape(-1)
        return self.weight

    def weight_at(self, x: tuple | None) -> float:
        if isinstance(self.weight, np.ndarray):
            if x is None:
                raise InputError("spatially varying weight needs a grid point")
            return float(self.weight[x])
        return self.weight

    def to_dict(self) -> dict:
        pert = None
        if self.perturbation is not None:
            pert = {"kind": self.perturbation.kind, **self.perturbation.params()}
        if isinstance(self.weight, np.ndarray):
            raise InputError("cannot serialize a weight field; give the config its field-file path instead")
        return {
            "tensor": {"n": self.n, "N": self.N, "entries": self.tensor.entries.ravel().tolist()},
            "weight": self.weight,
            "perturbation": pert,
        }

    def to_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict, grid: GridSpec | None = None) -> "NonlinearitySpec":
        """The spec of ``{"tensor", "weight", "perturbation"}``: the one reader of configs and of :meth:`to_dict`.

        The tensor is read by :func:`~nearelliptic.tensors.read_tensor`, a
        named ``identity`` taking the dimensions of ``grid``.  The weight is a
        number (1 by default) or the path of a field file whose component 0
        is the weight; the perturbation is absent or read by
        :func:`perturbation_from_dict`.
        """
        if not isinstance(doc, dict) or "tensor" not in doc:
            raise InputError(f"spec needs a 'tensor', got {doc!r}")
        weight, pert_doc = doc.get("weight", 1.0), doc.get("perturbation")
        return cls(
            tensor=read_tensor(doc["tensor"], grid),
            weight=_load_vector_field(weight, "weight").to_physical().data[0] if isinstance(weight, str) else weight,
            perturbation=None if pert_doc is None else perturbation_from_dict(pert_doc),
        )

    @classmethod
    def from_text(cls, text: str) -> "NonlinearitySpec":
        """The spec of JSON ``text`` (:meth:`from_dict`); text that is not JSON is an InputError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise InputError(f"nonlinearity spec is not JSON: {exc}") from exc
        return cls.from_dict(doc)


def evaluate_pairs(spec: NonlinearitySpec, X: np.ndarray, weight, out: np.ndarray | None = None) -> np.ndarray:
    """F = weight * (A : X) + G(X) on packed values X (N, n(n+1)/2, K) -> (N, K), weight a scalar or (K,).

    F is written into ``out``, a C-contiguous float (N, K) array, or into a
    fresh one, and returned: A : X by :func:`~nearelliptic.tensors.contract_pairs`
    into it, then the weight and G(X) in place.  Every caller takes this one
    path, and ``out`` does not change the bits.
    """
    out = contract_pairs(spec.tensor, X, out)
    out *= weight
    if spec.perturbation is not None:
        out += spec.perturbation.delta_pairs(X, spec.n)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("nonlinearity produced non-finite values")
    return out


def evaluate_F(spec: NonlinearitySpec, X: np.ndarray, x: tuple | None = None) -> np.ndarray:
    """Pointwise value F(x, X) for a single symmetric X of shape (N, n, n).

    The paper's nonlinearity F(x, X) at one point.  No solver calls it, since
    they evaluate whole batches by :func:`evaluate_pairs`; it is kept for users.
    """
    return evaluate_pairs(spec, HessianPairs.pack(check_hessian_arg(spec.tensor, X)), spec.weight_at(x))[:, 0]


def evaluate_field(spec: NonlinearitySpec, hess: HessianPairs) -> VectorField:
    """F(x, D^2 u(x)) over the grid: packed hessian in, physical vector field out."""
    g = hess.grid
    values = evaluate_pairs(spec, hess.data.reshape(g.N, -1, g.points), spec.grid_weight(g))
    return VectorField(g, values.reshape((g.N,) + g.shape), PHYSICAL)
