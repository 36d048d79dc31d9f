"""Bipartite cut analysis, unlockable-entanglement checks, and the covering LP.

A cut splits the 2N parties (one qubit each) into side_a / side_b; canonical
form keeps party 1 in side_a.  For each cut the partial transpose spectrum
decides PPT vs NPT; analyze_cut reads the spectra of a whole cut list in
one pass off the state's two diagonals (x_parts).  The family states are NPT
across every 1:(2N-1) cut and PPT across every 2:(2N-2) cut; one
activation_distill pass, which takes the four family supports as (diagonal,
anti) pairs, leaves an ebit across each protocol pair, so across both its
parties' single-party cuts.  lp_lower_bound puts crossing weight 1 on each cut of
such a list; over the 2N single-party cuts its optimum N is the lower bound
that `certify` matches with the protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import simplex
from .states import BELL_CORRECTIONS, FamilyLabel, recursion_blocks
from .tensor import (
    OPERATOR_ATOL,
    DensityMatrix,
    QubitSubset,
    x_parts_of,
    x_spectrum,
    x_validate,
)

NPT_ATOL = OPERATOR_ATOL  # eigenvalues below -NPT_ATOL count as genuinely negative
LP_ATOL = 1e-9


@dataclass(frozen=True)
class Cut:
    """Canonical bipartition of num_parties parties: party 1 lives in side_a."""

    num_parties: int
    side_a: tuple[int, ...]

    def __post_init__(self):
        side = tuple(int(i) for i in self.side_a)
        if any(q < 1 for q in side):
            raise ValueError(f"parties are 1-based, got {side}")
        if 1 not in side:
            raise ValueError(f"canonical cuts keep party 1 in side_a, got {side}")
        if any(a >= b for a, b in zip(side, side[1:])):
            raise ValueError(f"side_a must be strictly increasing, got {side}")
        if side[-1] > self.num_parties:
            raise ValueError(f"party {side[-1]} out of range for {self.num_parties} parties")
        if len(side) >= self.num_parties:
            raise ValueError("side_a must be a proper subset")
        object.__setattr__(self, "side_a", side)

    @classmethod
    def _canonical(cls, num_parties: int, side_a: tuple[int, ...], side_b: tuple[int, ...]) -> "Cut":
        """A cut whose sides are canonical by construction, built without the checks above."""
        cut = object.__new__(cls)
        cut.__dict__.update(num_parties=num_parties, side_a=side_a, side_b=side_b)
        return cut

    @cached_property
    def side_b(self) -> tuple[int, ...]:
        return tuple(q for q in range(1, self.num_parties + 1) if q not in self.side_a)

    def crossing_pairs(self) -> list[tuple[int, int]]:
        """Unordered party pairs with one endpoint on each side."""
        a = set(self.side_a)
        return [(i, j) for i, j in itertools.combinations(range(1, self.num_parties + 1), 2)
                if (i in a) != (j in a)]

    def label(self) -> str:
        return "{" + ",".join(map(str, self.side_a)) + "}|{" + ",".join(map(str, self.side_b)) + "}"


@dataclass(frozen=True)
class CutReport:
    cut: Cut
    min_eigenvalue: float
    negativity: float
    classification: str  # "PPT" or "NPT"


@dataclass(frozen=True)
class EdgeWeights:
    """Finite nonnegative weights on unordered party pairs (i < j)."""

    num_parties: int
    weights: dict[tuple[int, int], float]

    def __post_init__(self):
        for (i, j), w in self.weights.items():
            if not (1 <= i < j <= self.num_parties):
                raise ValueError(f"bad pair ({i}, {j}) for {self.num_parties} parties")
            if not np.isfinite(w):
                raise ValueError(f"non-finite weight {w} on pair ({i}, {j})")
            if w < 0:
                raise ValueError(f"negative weight {w} on pair ({i}, {j})")

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def crossing_sum(self, cut: Cut) -> float:
        return float(sum(self.weights.get(pair, 0.0) for pair in cut.crossing_pairs()))


def enumerate_cuts(num_parties: int, side_size: int | None = None) -> list[Cut]:
    """All canonical cuts, ordered by |side_a| then lexicographically.

    With side_size given, only the layers where either side has that many
    parties.  Complements of equal-size sets come in reverse lexicographic
    order, so side_b too comes from combinations; no side needs Cut's checks.
    """
    if num_parties < 2:
        raise ValueError(f"need at least 2 parties, got {num_parties}")
    sizes = range(1, num_parties) if side_size is None else sorted(
        {side_size, num_parties - side_size} & set(range(1, num_parties)))
    rest = range(2, num_parties + 1)
    out = []
    for size in sizes:
        sides_b = reversed(list(itertools.combinations(rest, num_parties - size)))
        out += [Cut._canonical(num_parties, (1,) + extra, side_b)
                for extra, side_b in zip(itertools.combinations(rest, size - 1), sides_b)]
    return out


def analyze_cut(rho: DensityMatrix, cuts: Sequence[Cut]) -> list[CutReport]:
    """Partial-transpose spectra across the cuts: min eigenvalue, negativity, class.

    Returns one report per cut, in order.  rho must be an X-state built on
    its two diagonals, DensityMatrix(n, x_parts=...), as build_family builds
    the families: every nonzero entry sits at rho[k, k] or rho[k, ~k], with ~k
    the bitwise complement of k.  One tensor.x_spectrum call reads every cut's
    spectrum off x_parts, with side_a as the transposed bits, in O(2^n) per
    cut and without scanning rho, instead of a 2^n x 2^n eigensolve per cut.

    Raises ValueError (tensor.x_parts_of) on a state built from a matrix,
    whatever its zero pattern.
    """
    n = rho.num_qubits
    if any(cut.num_parties != n for cut in cuts):
        raise ValueError("state size does not match cut")
    masks = np.array([sum(1 << (n - q) for q in cut.side_a) for cut in cuts], dtype=np.int64)
    spectra = x_spectrum(*x_parts_of(rho), masks)
    counts = (spectra < -NPT_ATOL).sum(axis=1)  # the negatives lead each ascending row
    return [CutReport(cut=cut, min_eigenvalue=float(row[0]),
                      negativity=float(-row[:k].sum()) if k else 0.0,
                      classification="NPT" if k else "PPT")
            for cut, row, k in zip(cuts, spectra, counts)]


def npt_one_vs_rest_scan(rho: DensityMatrix) -> list[CutReport]:
    """Reports for every single-party cut of rho."""
    return analyze_cut(rho, enumerate_cuts(rho.num_qubits, side_size=1))


# --- activation ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ActivationOutcome:
    probability: float
    correction: str
    fidelity: float  # with phi+
    x_parts: tuple[np.ndarray, np.ndarray] = field(repr=False)  # of the corrected residual pair


def activation_distill(rho: DensityMatrix, label: FamilyLabel,
                       pairs: Iterable[Iterable[int]],
                       supports: Mapping[FamilyLabel, tuple[np.ndarray, np.ndarray]]
                       ) -> dict[tuple[int, int], dict[FamilyLabel, ActivationOutcome]]:
    """For each residual pair, measure the family supports on the other 2N-2 qubits of rho.

    Returns {pair: {outcome family: ActivationOutcome}}, pairs in the order
    given, each two increasing qubits.  supports[f] is the (diagonal, anti)
    pair of the projector onto family f's (2N-2)-qubit support
    (states.family_support_projector); the four sum to identity.  When rho
    is the 2N-qubit family `label`, each outcome occurs with probability 1/4
    and leaves the pair in a Bell state fixed by the outcome; the tabulated
    single-qubit Pauli C on the pair's lower qubit turns it into phi+ exactly.

    rho must be an X-state built on x_parts (else ValueError), and each
    support two vectors of length 2**(2N-2) (else ValueError).  Then an
    outcome's residual Tr_T[(P x I) rho], T the gathered qubits, is X-shaped
    too: with s over T's bits and a over the pair's, diagonal
    sum_s P[s, s] rho[(s, a), (s, a)] and anti-diagonal
    sum_s P[~s, s] rho[(s, a), (~s, ~a)], one matmul for every pair and the
    four supports.  Its trace is the outcome's probability, its fix an index
    flip and a sign, its fidelity with phi+ (d[0] + d[3] + anti[0] + anti[3]) / 2.
    One tensor.x_validate call checks the 4 x len(pairs) corrected outcomes' x_parts.
    """
    two_n = rho.num_qubits
    if two_n < 4 or two_n % 2:
        raise ValueError(f"two_n must be even and >= 4, got {two_n}")
    pairs = [QubitSubset(tuple(pair)).indices for pair in pairs]  # 1-based and increasing
    if any(len(pair) != 2 or pair[-1] > two_n for pair in pairs):
        raise ValueError(f"each residual pair must be two qubits of 1..{two_n}, got {pairs}")
    k = two_n - 2
    shapes = [[np.shape(part) for part in supports[f]] for f in FamilyLabel]
    if any(shape != [(2 ** k,)] * 2 for shape in shapes):
        raise ValueError(f"each support must be two vectors of length {2 ** k}, "
                         f"got shapes {shapes}")
    if not pairs:
        return {}

    # per pair, rho's two diagonals indexed (s, a): the gathered qubits first, then the pair
    parts = np.stack(x_parts_of(rho)).reshape((2,) * (two_n + 1))
    gathered = np.stack([parts.transpose(
        [0, *(q for q in range(1, two_n + 1) if q not in pair), *pair]).reshape(2, 2 ** k, 4)
        for pair in pairs])
    projectors = np.array([supports[f] for f in FamilyLabel], dtype=complex).transpose(1, 0, 2)
    # with u = ~s the anti-diagonal reads sum_u P[u, ~u] rho[(~u, a), (u, ~a)]
    gathered[:, 1] = gathered[:, 1, ::-1]
    residuals = projectors @ gathered  # (pair, part, outcome, a)
    probs = residuals[:, 0].sum(axis=-1).real
    bells = {f: b for b, f in recursion_blocks(label)}  # the Bell label each outcome leaves
    # its fix kron(C, I), C on the pair's bit 2: the psi bit's X reads k ^ 2, the minus bit's Z
    # negates anti
    index = np.array([bells[f].index for f in FamilyLabel])[:, None]
    fixed = (residuals / probs[:, None, :, None])[..., np.arange(4)[:, None],
                                                  np.arange(4) ^ (index & 2)]
    diagonal, anti = fixed[:, 0], fixed[:, 1] * (1 - 2 * (index & 1))
    x_validate(diagonal, anti)
    fidelities = (diagonal[..., 0] + diagonal[..., 3] + anti[..., 0] + anti[..., 3]).real / 2
    return {pair: {f: ActivationOutcome(float(probs[p, i]), BELL_CORRECTIONS[bells[f]],
                                        float(fidelities[p, i]), (diagonal[p, i], anti[p, i]))
                   for i, f in enumerate(FamilyLabel)}
            for p, pair in enumerate(pairs)}


# --- covering LP ----------------------------------------------------------------

def lp_lower_bound(num_parties: int, cuts: Sequence[Cut]) -> tuple[float, EdgeWeights]:
    """Minimum total edge weight with crossing weight at least 1 on every cut.

    Returns the optimum and a feasible witness whose objective equals it
    within 1e-9.  Edge variables are the C(num_parties, 2) unordered pairs;
    each cut gives one 0/1 row over them, 1 on the pairs that cross it.
    """
    if any(cut.num_parties != num_parties for cut in cuts):
        raise ValueError("cut party count does not match num_parties")
    pairs = list(itertools.combinations(range(1, num_parties + 1), 2))
    if not cuts:
        return 0.0, EdgeWeights(num_parties, {})
    rows = [[float((i in cut.side_a) != (j in cut.side_a)) for i, j in pairs] for cut in cuts]
    value, x = simplex.solve_min(np.ones(len(pairs)), np.array(rows), np.ones(len(cuts)))
    witness = EdgeWeights(num_parties, {p: float(w) for p, w in zip(pairs, x) if w > LP_ATOL})
    for cut in cuts:
        if witness.crossing_sum(cut) < 1.0 - LP_ATOL:
            raise RuntimeError(f"LP witness violates cut {cut.label()}")
    if abs(witness.total() - value) > LP_ATOL:
        raise RuntimeError("LP witness objective does not match the reported optimum")
    return value, witness
