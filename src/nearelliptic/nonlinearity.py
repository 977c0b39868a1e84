"""Declarative nonlinearities F(x, X) = g^2(x) (A : X) + G(X).

A spec couples a rank-one positive anchor tensor with a bounded weight
g^2 and a perturbation G drawn from a small closed catalog, so every
evaluation is deterministic and serializable.  All catalog entries satisfy
G(0) = 0; together with A:0 = 0 this normalizes F(., 0) = 0, which the
fixed-point solvers assume.

The declared Lipschitz number of a spec is the bound used by the
certificates: it controls |G(X+Z) - G(X)| / g^2(x) <= M |Z| for every x,
i.e. the perturbation Lipschitz constant measured relative to the weight.

Two layouts are evaluated.  :func:`evaluate_batch` and :func:`evaluate_F`
take sample-major batches (..., N, n, n).  :func:`evaluate_field` works on the
packed hessian of :class:`~nearelliptic.fields.HessianPairs`, component-major
(N, n(n+1)/2, points), so each distinct component is evaluated once: the
linear part is one matmul with the packed tensor, and the catalog
perturbations weight each off-diagonal slot 2, the count of (i, j) and (j, i)
in a sum over all n^2 components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from numbers import Real
from typing import Callable

import numpy as np

from .errors import EvaluationError, InputError
from .fields import PHYSICAL, HessianField, HessianPairs, VectorField
from .tensors import SymTensor4, builtin_tensor

_CUSTOM_REGISTRY: dict[str, "CustomPerturbation"] = {}


@dataclass(frozen=True)
class SinePerturbation:
    """G(X)_alpha = (amplitude / n) * sum_ij sin(X[alpha, i, j]).

    The uniform 1/n weighting makes the exact Lipschitz constant equal to the
    amplitude (the Jacobian row norm is (amplitude/n) sqrt(sum cos^2) <= amplitude,
    attained at X = 0).
    """

    amplitude: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise InputError("sine perturbation amplitude must be >= 0")

    kind = "scaled_sine"

    def lipschitz_bound(self, n: int) -> float:
        return self.amplitude

    def delta(self, X: np.ndarray) -> np.ndarray:
        # X: (..., N, n, n) -> (..., N)
        n = X.shape[-1]
        return (self.amplitude / n) * np.sin(X).sum(axis=(-2, -1))

    def delta_pairs(self, X: np.ndarray, n: int) -> np.ndarray:
        # packed X: (N, n(n+1)/2, K) -> (N, K)
        return (self.amplitude / n) * (HessianPairs.multiplicity(n) @ np.sin(X))

    def params(self) -> dict:
        return {"amplitude": self.amplitude}


@dataclass(frozen=True)
class NormComboPerturbation:
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

    def delta(self, X: np.ndarray) -> np.ndarray:
        frob = np.sqrt((X**2).sum(axis=(-2, -1)))
        trace = np.trace(X, axis1=-2, axis2=-1)
        return -self.b * frob - self.c * np.abs(trace)

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

    ``fn`` maps a batch (..., N, n, n) to (..., N) and must vanish at 0.
    Named instances can be registered for config-file round trips.
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


def register_custom_perturbation(pert: CustomPerturbation) -> None:
    """Make a named custom hook resolvable from serialized configs."""
    _CUSTOM_REGISTRY[pert.name] = pert


Perturbation = SinePerturbation | NormComboPerturbation | CustomPerturbation


def perturbation_from_dict(doc) -> Perturbation:
    """Parse ``{"kind": ..., <params>}``, the inverse of ``{"kind": p.kind, **p.params()}``.

    A custom hook is looked up by name in the registry.  A document that is
    not a mapping, or lacks the kind or a parameter, or carries a parameter
    that is not a finite number, is an :class:`InputError`.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"perturbation needs a 'kind', got {doc!r}")
    kind = doc["kind"]
    if kind == CustomPerturbation.kind:
        name = doc.get("name")
        if not isinstance(name, str) or name not in _CUSTOM_REGISTRY:
            raise InputError(f"custom perturbation {name!r} not registered")
        return _CUSTOM_REGISTRY[name]
    for cls in (SinePerturbation, NormComboPerturbation):
        if kind == cls.kind:
            params = {param.name: doc.get(param.name) for param in fields(cls)}
            for name, value in params.items():
                if not (isinstance(value, Real) and np.isfinite(value)):
                    raise InputError(f"{kind} perturbation needs a finite number {name!r}, got {value!r}")
            return cls(**params)
    raise InputError(f"unknown perturbation kind {kind!r}")


@dataclass(frozen=True, eq=False)
class NonlinearitySpec:
    """F(x, X) = weight(x) * (A : X) + G(X) with G from the catalog (or absent)."""

    tensor: SymTensor4
    weight: float | np.ndarray = 1.0
    perturbation: Perturbation | None = None
    weight_name: str = ""

    def __post_init__(self):
        w = self.weight
        if isinstance(w, np.ndarray):
            if not np.all(np.isfinite(w)) or not np.all(w > 0):
                raise InputError("weight field must be finite and strictly positive")
            w = np.ascontiguousarray(w, dtype=float)
            w.setflags(write=False)
            object.__setattr__(self, "weight", w)
        else:
            if isinstance(w, bool) or not isinstance(w, Real):
                raise InputError(f"weight must be a number or a grid field, got {w!r}")
            w = float(w)
            if not (np.isfinite(w) and w > 0):
                raise InputError("constant weight must be finite and strictly positive")
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
        """Declared bound divided by the anchor ellipticity constant."""
        if nu <= 0:
            raise InputError(f"nonpositive ellipticity constant {nu}")
        return self.declared_lipschitz / nu

    def f_lipschitz_bound(self) -> float:
        """Global Lipschitz bound of X -> F(x, X), essentially uniform in x."""
        lin = self.weight_sup * self.tensor.operator_norm()
        pert = 0.0 if self.perturbation is None else self.perturbation.lipschitz_bound(self.n)
        return lin + pert

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
        weight: float | str
        if isinstance(self.weight, np.ndarray):
            if not self.weight_name:
                raise InputError("cannot serialize an inline weight field without a name/reference")
            weight = self.weight_name
        else:
            weight = self.weight
        return {
            "tensor": {"n": self.n, "N": self.N, "entries": self.tensor.entries.ravel().tolist()},
            "weight": weight,
            "perturbation": pert,
        }

    def to_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict, weight_loader=None) -> "NonlinearitySpec":
        tdoc = doc["tensor"]
        if isinstance(tdoc, str):
            tensor = builtin_tensor(tdoc)
        else:
            entries = np.asarray(tdoc["entries"]).reshape(
                tdoc["N"], tdoc["N"], tdoc["n"], tdoc["n"]
            )
            tensor = SymTensor4(entries)
        weight = doc.get("weight", 1.0)
        weight_name = ""
        if isinstance(weight, str):
            if weight_loader is None:
                raise InputError(f"weight reference {weight!r} given but no loader supplied")
            weight_name, weight = weight, weight_loader(weight)
        pert_doc = doc.get("perturbation")
        pert = None if pert_doc is None else perturbation_from_dict(pert_doc)
        return cls(tensor=tensor, weight=weight, perturbation=pert, weight_name=weight_name)

    @classmethod
    def from_text(cls, text: str, weight_loader=None) -> "NonlinearitySpec":
        return cls.from_dict(json.loads(text), weight_loader=weight_loader)


def linear_part(spec: NonlinearitySpec, X: np.ndarray) -> np.ndarray:
    """A : X over a batch (..., N, n, n) -> (..., N), without the weight."""
    return np.einsum("abij,...bij->...a", spec.tensor.entries, X)


def evaluate_batch(spec: NonlinearitySpec, X: np.ndarray, weight) -> np.ndarray:
    """F over a batch of hessian values; ``weight`` is a scalar or an array over the batch."""
    w = np.asarray(weight, dtype=float)
    if w.ndim > 0:
        w = w[..., None]
    out = w * linear_part(spec, X)
    if spec.perturbation is not None:
        out = out + spec.perturbation.delta(X)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("nonlinearity produced non-finite values")
    return out


def evaluate_F(spec: NonlinearitySpec, X: np.ndarray, x: tuple | None = None) -> np.ndarray:
    """Pointwise value F(x, X) for a single symmetric X of shape (N, n, n)."""
    X = np.asarray(X, dtype=float)
    if X.shape != (spec.N, spec.n, spec.n):
        raise InputError(f"X must have shape {(spec.N, spec.n, spec.n)}, got {X.shape}")
    asym = np.abs(X - X.transpose(0, 2, 1)).max()
    if asym > 1e-12 * max(1.0, np.abs(X).max()):
        raise InputError(f"X asymmetric in (i, j) by {asym:.3e}")
    return evaluate_batch(spec, X, spec.weight_at(x))


def evaluate_field(spec: NonlinearitySpec, hess: HessianField | HessianPairs) -> VectorField:
    """F(x, D^2 u(x)) over the grid: hessian in, physical vector field out.

    ``hess`` is a full hessian field, whose upper triangle is packed here, or
    an already packed :class:`HessianPairs`.
    """
    g = hess.grid
    if (spec.N, spec.n) != (g.N, g.n):
        raise InputError(
            f"spec dimensions (N={spec.N}, n={spec.n}) do not match grid (N={g.N}, n={g.n})"
        )
    weight = spec.weight
    if isinstance(weight, np.ndarray):
        if weight.shape != g.shape:
            raise InputError(f"weight field has shape {weight.shape}, the grid {g.shape}")
        weight = weight.reshape(-1)
    if isinstance(hess, HessianField):
        hess = HessianPairs.from_hessian(hess)
    X = hess.data.reshape(g.N, -1, g.points)
    values = weight * (HessianPairs.contraction(spec.tensor.entries).reshape(g.N, -1) @ X.reshape(-1, g.points))
    if spec.perturbation is not None:
        values = values + spec.perturbation.delta_pairs(X, g.n)
    if not np.all(np.isfinite(values)):
        raise EvaluationError("nonlinearity produced non-finite values")
    return VectorField(g, values.reshape((g.N,) + g.shape), PHYSICAL)
