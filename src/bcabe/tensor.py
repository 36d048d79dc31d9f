"""Dense linear algebra for small multi-qubit pure states and density matrices.

Qubits are numbered 1..n and qubit 1 is the most significant bit of the
computational-basis index, so a basis label |a1 a2 ... an> reads left to
right.  Everything is dense complex128 and sized for desk-scale systems;
dimensions are capped at 2**MAX_QUBITS per object.

An X-shaped operator (nonzero entries only on the diagonal and the
anti-diagonal, as in every GHZ-diagonal state) is given by those two
diagonals.  The caller chooses that form: DensityMatrix(n, x_parts=...) keeps
them as x_parts, is validated on them alone and forms its dense entries when
first read; a DensityMatrix built from a matrix is checked densely and has no
x_parts, whatever its zero pattern.  x_spectrum gives the spectrum of an
X-shaped matrix and those of its partial transposes in closed form, for one or
a stack of transposed subsets, and is its PSD check.  x_trace_distance
compares two on their diagonals.

All operations are pure functions: inputs are never mutated and the wrapped
numpy arrays are marked read-only on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np

MAX_QUBITS = 12

STATE_ATOL = 1e-12      # state equality, norms, traces
OPERATOR_ATOL = 1e-10   # PSD floor, idempotence, unitarity, hermiticity
ZERO_PROB_ATOL = 1e-14  # teleport drops branches below this probability

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _qubit_count_for(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or dim != 2 ** n:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return n


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QubitSubset:
    """Strictly increasing 1-based qubit positions."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 1 for i in idx):
            raise ValueError(f"qubit indices are 1-based, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"qubit indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, source: Union["QubitSubset", Iterable[int]]) -> "QubitSubset":
        if isinstance(source, QubitSubset):
            return source
        idx = sorted(int(i) for i in source)
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate qubit index in {idx}")
        return cls(tuple(idx))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def check_range(self, num_qubits: int) -> None:
        if self.indices and self.indices[-1] > num_qubits:
            raise ValueError(
                f"qubit {self.indices[-1]} out of range for {num_qubits} qubits"
            )


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector over num_qubits qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = _qubit_count_for(a.size)
        if n != self.num_qubits:
            raise ValueError(f"amplitude length {a.size} does not match {self.num_qubits} qubits")
        if not np.isfinite(a).all():
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > STATE_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {STATE_ATOL}")
        object.__setattr__(self, "amplitudes", _frozen(a))


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (within tolerance) operator on num_qubits qubits.

    Built from its matrix, DensityMatrix(n, entries), and checked densely, with
    x_parts None; or from the two diagonals of an X-shaped one,
    DensityMatrix(n, x_parts=(diagonal, anti)), with anti[k] = entries[k, ~k],
    and checked by x_validate, which reaches the dense checks' verdicts on
    x_parts alone; then entries is formed on first read.  x_parts is read-only.
    """

    num_qubits: int
    x_parts: tuple[np.ndarray, np.ndarray] | None = field(repr=False)

    def __init__(self, num_qubits: int, entries: np.ndarray | None = None, *,
                 x_parts: tuple[np.ndarray, np.ndarray] | None = None):
        object.__setattr__(self, "num_qubits", num_qubits)
        if x_parts is None:
            m = _frozen(entries)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"density matrix must be square, got shape {m.shape}")
            object.__setattr__(self, "entries", m)
        else:
            x_parts = diagonal, anti = tuple(_frozen(part) for part in x_parts)
            if diagonal.ndim != 1 or anti.shape != diagonal.shape or diagonal.size < 2:
                raise ValueError(f"x_parts must be two vectors of one length >= 2, got {x_parts}")
        dim = len(x_parts[0]) if x_parts else len(m)
        if _qubit_count_for(dim) != num_qubits:
            raise ValueError(f"matrix dimension {dim} does not match {num_qubits} qubits")
        if x_parts:
            x_validate(*x_parts)
        elif not np.isfinite(m).all():
            raise ValueError(_NOT_FINITE)
        elif np.abs(m - m.conj().T).max() > STATE_ATOL:
            raise ValueError(_NOT_HERMITIAN)
        else:  # np.diagonal(m).sum() is np.trace's sum, in its order
            _check_trace_and_floor(np.diagonal(m).sum(), lambda: np.linalg.eigvalsh(m)[0])
        object.__setattr__(self, "x_parts", x_parts)

    @cached_property
    def entries(self) -> np.ndarray:  # reached only by a state built from x_parts
        return _frozen(x_matrix(*self.x_parts))


_NOT_FINITE = "density matrix entries must be finite"
_NOT_HERMITIAN = "density matrix is not Hermitian within tolerance"


def _check_trace_and_floor(trace, lowest) -> None:
    """Unit trace, then least eigenvalues lowest() above the PSD floor; of a stack, the worst state's."""
    tr = complex(trace.flat[np.abs(trace - 1.0).argmax()])
    if abs(tr - 1.0) > STATE_ATOL:
        raise ValueError(f"trace {tr} deviates from 1 by more than {STATE_ATOL}")
    lo = float(np.min(lowest()))
    if lo < -OPERATOR_ATOL:
        raise ValueError(f"matrix has eigenvalue {lo} below the -{OPERATOR_ATOL} PSD floor")


# --- public operations ---------------------------------------------------------

def partial_trace(rho: DensityMatrix, discard: Union[QubitSubset, Iterable[int]]) -> DensityMatrix:
    """Trace out the listed qubits, returning the state of the remaining ones.

    The surviving qubits keep their relative order and are renumbered 1..k.
    """
    discard = QubitSubset.of(discard)
    discard.check_range(rho.num_qubits)
    if len(discard) == 0:
        return rho
    n = rho.num_qubits
    keep = [q for q in range(1, n + 1) if q not in discard.indices]
    if not keep:
        raise ValueError("cannot discard every qubit")
    t = rho.entries.reshape((2,) * (2 * n))
    perm = (
        [q - 1 for q in keep]
        + [n + q - 1 for q in keep]
        + [q - 1 for q in discard]
        + [n + q - 1 for q in discard]
    )
    dk, dd = 2 ** len(keep), 2 ** len(discard)
    t = t.transpose(perm).reshape(dk, dk, dd, dd)
    return DensityMatrix(len(keep), np.einsum("abcc->ab", t))


def partial_transpose(rho: DensityMatrix, subset: Union[QubitSubset, Iterable[int]]) -> np.ndarray:
    """Transpose the listed qubits' indices, returning a raw Hermitian matrix.

    The result is generally not PSD, which is the point: its negative
    eigenvalues witness entanglement across the subset/rest split.
    """
    subset = QubitSubset.of(subset)
    subset.check_range(rho.num_qubits)
    n = rho.num_qubits
    axes = list(range(2 * n))
    for q in subset:
        axes[q - 1], axes[n + q - 1] = axes[n + q - 1], axes[q - 1]
    t = rho.entries.reshape((2,) * (2 * n)).transpose(axes)
    return np.array(t.reshape(rho.entries.shape), copy=True)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if np.abs(m - m.conj().T).max() > OPERATOR_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def x_spectrum(diagonal: np.ndarray, anti: np.ndarray, mask: int | np.ndarray = 0) -> np.ndarray:
    """Ascending spectrum of an X-shaped matrix partially transposed on the bits in mask.

    diagonal[k] = m[k, k] and anti[k] = m[k, ~k] hold every nonzero entry of
    a Hermitian X-shaped matrix m.  Transposing the qubits in mask (qubit q
    of n sets bit 1 << (n - q)) keeps the shape, and the result splits into
    2x2 blocks on {k, ~k}: diagonal (m[k, k], m[~k, ~k]), off-diagonal
    m[k ^ mask, ~k ^ mask] = anti[k ^ mask].  Each block has eigenvalues
    mid +/- hypot((d1 - d2) / 2, |c|), mid the mean of its diagonal (Dur &
    Cirac, PRA 61, 042314 (2000)).  mask = 0 gives the spectrum of m itself.

    mask may be an integer array: the spectra then stack along a new leading
    axis, row i bit-equal to the spectrum for mask[i] alone.  With mask = 0,
    diagonal and anti may instead stack states along leading axes.
    """
    half = diagonal.shape[-1] // 2
    d1, d2 = diagonal[..., :half].real, diagonal[..., ::-1][..., :half].real  # k and ~k = dim - 1 - k
    mid = (d1 + d2) / 2
    radius = np.hypot((d1 - d2) / 2, np.abs(anti[..., np.arange(half) ^ np.asarray(mask)[..., None]]))
    return np.sort(np.concatenate([mid - radius, mid + radius], axis=-1), axis=-1)


def x_validate(diagonal: np.ndarray, anti: np.ndarray) -> None:
    """DensityMatrix's checks, in its order and with its messages, of X-shaped states (..., dim)."""
    # off the X every entry is an exact zero, so the diagonals decide finiteness and
    # hold the dense check's largest |m - m^H|: 2|Im m[k, k]| or |m[k, ~k] - conj(m[~k, k])|
    if not (np.isfinite(diagonal).all() and np.isfinite(anti).all()):
        raise ValueError(_NOT_FINITE)
    if max(2 * np.abs(diagonal.imag).max(), np.abs(anti - anti[..., ::-1].conj()).max()) > STATE_ATOL:
        raise ValueError(_NOT_HERMITIAN)
    _check_trace_and_floor(diagonal.sum(axis=-1), lambda: x_spectrum(diagonal, anti)[..., 0])


def x_matrix(diagonal: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """The X-shaped matrix m with m[k, k] = diagonal[k], m[k, ~k] = anti[k] and zeros elsewhere."""
    k = np.arange(diagonal.size)
    m = np.zeros((k.size, k.size), dtype=complex)
    m[k, k], m[k, k[::-1]] = diagonal, anti
    return m


def x_parts_of(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """rho.x_parts; ValueError when rho was built from a matrix, not from its two diagonals."""
    if rho.x_parts is None:
        raise ValueError("state is not an X-state: it was built from a dense matrix, not from "
                         "its diagonal and anti-diagonal, so it has no 2x2-block form")
    return rho.x_parts


def x_trace_distance(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
    """Trace distance of two Hermitian X-shaped matrices given as (diagonal, anti) pairs.

    Their difference is X-shaped too, so x_spectrum gives its spectrum.
    """
    return float(0.5 * np.abs(x_spectrum(a[0] - b[0], a[1] - b[1])).sum())


def fidelity_with_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> as a real number."""
    if rho.num_qubits != psi.num_qubits:
        raise ValueError("state sizes do not match")
    v = psi.amplitudes
    return float(np.real(v.conj() @ rho.entries @ v))


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference; accepts DensityMatrix or ndarray."""
    ma = a.entries if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.entries if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(ma - mb)).sum())


def apply_unitary_on_subset(rho: DensityMatrix, u: np.ndarray,
                            subset: Union[QubitSubset, Iterable[int]]) -> DensityMatrix:
    """Conjugate rho by a unitary on the listed qubits (slot k of u acts on subset[k])."""
    subset = QubitSubset.of(subset)
    subset.check_range(rho.num_qubits)
    k = len(subset)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2 ** k, 2 ** k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} qubits")
    if np.abs(u @ u.conj().T - np.eye(2 ** k)).max() > OPERATOR_ATOL:
        raise ValueError("operator is not unitary within tolerance")
    # U rho U^dag: contract u into the row slots and conj(u) into the column slots
    n, slots = rho.num_qubits, [q - 1 for q in subset]
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, rho.entries.reshape((2,) * (2 * n)), axes=(list(range(k, 2 * k)), slots))
    t = np.moveaxis(t, list(range(k)), slots)
    col = [n + s for s in slots]
    t = np.tensordot(ut.conj(), t, axes=(list(range(k, 2 * k)), col))
    return DensityMatrix(n, np.moveaxis(t, list(range(k)), col).reshape(rho.entries.shape))
