import numpy as np
import pytest
from hypothesis import settings

from nearelliptic import GridSpec, VectorField, example2_tensor, identity_tensor
from nearelliptic.errors import InputError
from nearelliptic.fields import PHYSICAL, HessianField, HessianPairs
from nearelliptic.tensors import SymTensor4, _sym_pair_transpose

# every run draws the same examples, so a tier-1 result repeats; for fresh
# examples, run with --hypothesis-profile=explore
settings.register_profile("pinned", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("pinned")


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(n=2, N=2, M=32, L=1.0)


@pytest.fixture(scope="session")
def identity22():
    return identity_tensor(2, 2)


@pytest.fixture(scope="session")
def block_m8():
    return example2_tensor(8.0)


def random_sym_tensor(n: int, N: int, seed: int, scale: float = 1.0) -> SymTensor4:
    """Random tensor with the pair symmetry, not necessarily elliptic."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((N, N, n, n)) * scale
    return SymTensor4(0.5 * (raw + _sym_pair_transpose(raw)))


def random_symmetric_batch(rng, count: int, N: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((count, N, n, n))
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def refuse_full_hessian(monkeypatch) -> None:
    """Make building any n^2 HessianField fail the test from here on."""

    def refuse(*args, **kwargs):
        raise AssertionError("an n^2 HessianField was built")

    monkeypatch.setattr(HessianField, "__post_init__", refuse)


def zero_field(grid) -> VectorField:
    return VectorField(grid, np.zeros((grid.N,) + grid.shape), PHYSICAL)


def pairing_spectrum(u: VectorField, f: VectorField) -> np.ndarray:
    """Per-frequency pairing -f^(k) . conj(u^(k)) on k != 0.

    For a solution of the elliptic system this equals the rank-one hermitian
    form scaled by 4 pi^2 |z|^2, hence is real and nonnegative mode by mode.
    """
    g = u.grid
    if f.grid != g:
        raise InputError("u and f must share a grid")
    uhat = u.to_spectral().data.reshape(g.N, g.points)
    fhat = f.to_spectral().data.reshape(g.N, g.points)
    zsq = sum((ka / g.L) ** 2 for ka in g.freq_axes())  # |z|^2 = |k / L|^2 over the full grid
    mask = zsq.ravel() > 0
    return -(fhat[:, mask] * np.conj(uhat[:, mask])).sum(axis=0)


def flip_roll_reflect(coef: np.ndarray, n_axes_offset: int, n: int) -> np.ndarray:
    """conj(c(-k)) over n axes from ``n_axes_offset`` by one flip and one roll per axis: the reference of the gather."""
    out = np.conj(coef)
    for ax in range(n_axes_offset, n_axes_offset + n):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def full_grid_half_spectrum_tables(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``zsq``, ``laplacian`` and ``hessian`` of a half spectrum, built from full-grid tables: the reference.

    |z|^2 and the stack of multipliers -(2 pi / L)^2 k_i k_j over the whole
    grid; the stack is reflected to kbar = -k mod M by a flip and a roll per
    axis and averaged with itself, and every table is cut to the half
    spectrum's M/2 + 1 planes of the last axis.
    """
    cut = (Ellipsis, slice(0, grid.M // 2 + 1))
    freq = grid.freq_axes()
    total = np.zeros(grid.shape)
    for ka in freq:
        total = total + (ka / grid.L) ** 2
    zsq = np.ascontiguousarray(total[cut])
    factor = -((2 * np.pi / grid.L) ** 2)
    rows, cols = HessianPairs.components(grid.n)
    full = np.stack([np.broadcast_to(factor * freq[i] * freq[j], grid.shape) for i, j in zip(rows, cols)])
    hessian = (0.5 * (full + flip_roll_reflect(full, 1, grid.n)))[cut].astype(complex)
    return zsq, 4 * np.pi**2 * zsq, hessian
