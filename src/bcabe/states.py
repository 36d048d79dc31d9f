"""The four 2N-qubit GHZ-diagonal state families and their structure checks.

Basis strings split into two parity classes over 2N qubits: "p" strings have
first bit 0 and an even number of 0s overall, "q" strings have first bit 0 and
an odd number of 0s.  Each class has 2**(2N-2) members, and together with
their bitwise complements they cover all 2**(2N) computational labels.

Cat states over these classes,

    (|s> + sign |s_bar>) / sqrt(2),

form an orthonormal basis of the full Hilbert space, the rows of ghz_basis.
The four families are the uniform mixtures of the cat-state projectors:
rho+/- over the "p" class with sign +/-, sigma+/- over the "q" class.  At
two_n = 2 the classes reduce to {00} and {01}, the cat vectors to the Bell
states and the mixtures to the four Bell projectors.

Family and Bell labels share one 2-bit index, their position in FamilyLabel
or BELL_ORDER: bit 1 is the "q" class (psi), bit 0 the minus sign.  A Bell
product carries the family whose index is the XOR of its labels' indices.
That one rule gives every table here: each Bell state's row of ghz_basis(2),
the Pauli that maps it to phi+ (BELL_CORRECTIONS), the Bell-tuple support
(bell_correlated_tuples) and the recursion checked by verify_recursion, in
which each family at size 2N is an equal four-way mixture of (Bell projector
on a qubit pair) tensor (family at size 2N-2) over the four recursion_blocks.
Every family, and each family's support, is built on its two diagonals: the
families as DensityMatrix(2N, x_parts=...), whose size-2 members are the four
Bell projectors, and the supports as (diagonal, anti) pairs.  The structure
checks take built states: the caller builds each family once and hands the
same state to every check, which reads it on x_parts with no dense
conjugation or eigensolve.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .tensor import (
    STATE_ATOL,
    DensityMatrix,
    PureState,
    trace_distance,
    x_parts_of,
    x_trace_distance,
)


class _BellIndexed(Enum):
    """A label whose position is its 2-bit index: bit 1 psi (the "q" class), bit 0 minus."""

    @functools.cached_property
    def index(self) -> int:
        return list(type(self)).index(self)

    @property
    def sign(self) -> int:
        return 1 - 2 * (self.index & 1)


class FamilyLabel(_BellIndexed):
    RHO_PLUS = "rho+"
    RHO_MINUS = "rho-"
    SIGMA_PLUS = "sigma+"
    SIGMA_MINUS = "sigma-"

    @property
    def parity_class(self) -> str:
        return "pq"[self.index >> 1]


class BellLabel(_BellIndexed):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


# fixed enumeration order used everywhere tuples of Bell labels are listed
BELL_ORDER = tuple(BellLabel)

# single-qubit Pauli (applied to the first qubit of the pair) that maps each
# Bell state onto phi+: X for the psi bit, Z for the minus bit; ZX means apply
# X then Z and equals Y up to phase
BELL_CORRECTIONS = {b: "Z" * (b.index & 1) + "X" * (b.index >> 1) or "I" for b in BELL_ORDER}


class NotBellCorrelated(Exception):
    """The state is not a mixture of Bell-label products over the given pairing."""


def _class_members(two_n: int, parity_class: str) -> np.ndarray:
    # per label: a string of the class (the first half, first bit 0) or a complement of one; with
    # two_n even, a label's 0s (even for "p", odd for "q") have the parity of its bit count
    return np.bitwise_count(np.arange(2 ** two_n)) % 2 == (parity_class == "q")


def ghz_basis(two_n: int) -> np.ndarray:
    """All 2**two_n cat vectors as the rows of one read-only array.

    Rows: "p" class then "q" class, canonical bases (first bit 0) ascending in
    each, sign + before -; at two_n = 2, the Bell states in BELL_ORDER.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    dim, a = 2 ** two_n, 1.0 / np.sqrt(2.0)
    canonical = [np.flatnonzero(_class_members(two_n, cls)[:dim // 2]) for cls in "pq"]
    bases = np.repeat(np.concatenate(canonical), 2)  # each canonical base, for sign + then -
    rows, vectors = np.arange(dim), np.zeros((dim, dim), dtype=complex)
    vectors[rows, bases] = a
    vectors[rows, dim - 1 - bases] = np.where(rows % 2, -a, a)  # the complement, with the sign
    vectors.flags.writeable = False
    return vectors


@functools.cache  # PureState is frozen and its array read-only, so sharing is safe
def bell_state(label: BellLabel) -> PureState:
    """The label's row of ghz_basis(2): BELL_ORDER is that table's row order."""
    return PureState(2, ghz_basis(2)[label.index])


def _cat_parts(two_n: int, label: FamilyLabel) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonals of the sum of the family's cat-state projectors.

    Each canonical string s sets (s, s), (s_bar, s_bar), (s, s_bar) and (s_bar, s)
    to the products a dense outer product of its cat vector forms, a label's
    entry on each diagonal; no two share one.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    member, a = _class_members(two_n, label.parity_class), 1.0 / np.sqrt(2.0)
    return (np.where(member, a * a, 0.0).astype(complex),
            np.where(member, (label.sign * a) * a, 0.0).astype(complex))  # anti[k] = m[k, ~k]


def build_family(two_n: int, label: FamilyLabel) -> DensityMatrix:
    """Uniform mixture of the family's 2**(two_n-2) cat-state projectors.

    two_n = 2 is allowed as the recursion base and yields the Bell projector
    matching the label (phi+/- for rho+/-, psi+/- for sigma+/-).  It is built
    on its two diagonals, each entry the dense sum's divided the same way.
    """
    count = 2 ** (two_n - 2)
    return DensityMatrix(two_n, x_parts=tuple(part / count for part in _cat_parts(two_n, label)))


def family_support_projector(two_n: int, label: FamilyLabel) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonals of the projector onto the span of the family's cat states.

    Rank 2**(two_n-2); the four families' projectors sum to the identity.
    """
    return _cat_parts(two_n, label)


def recursion_blocks(label: FamilyLabel) -> tuple[tuple[BellLabel, FamilyLabel], ...]:
    """The four (Bell label, lower family) blocks whose equal mixture gives `label`.

    The Bell index is the XOR of the family's and the lower family's indices.
    The lower families come with the family's sign first, rho before sigma:
    for rho+ the blocks are (phi+, rho+), (phi-, rho-), (psi+, sigma+), (psi-, sigma-).
    """
    lower = sorted(FamilyLabel, key=lambda f: f.index ^ (label.index & 1))
    return tuple((BELL_ORDER[label.index ^ f.index], f) for f in lower)


@dataclass(frozen=True)
class RecursionCheck:
    family: FamilyLabel
    block_position: str  # "leading" (Bell pair on qubits 1-2) or "trailing"
    distance: float


def verify_recursion(families: Mapping[FamilyLabel, DensityMatrix]) -> list[RecursionCheck]:
    """Check every built family against its one-step recursion, both block placements.

    families maps each label to its X-shaped state at one size 2N >= 4; only
    the lower families and the Bell projectors (the size-2 families with the
    same index; at 2N = 4 the same four) are built here, each once.  Both
    diagonals of A x B are the krons of those of A and B.  Returns 8 trace
    distances: 4 families x {leading, trailing} position of the Bell-pair
    block, which agree because the families are permutation invariant;
    leading (qubits 1-2) is the documented convention.
    """
    two_n = families[FamilyLabel.RHO_PLUS].num_qubits
    if two_n < 4 or two_n % 2 or any(families[f].num_qubits != two_n for f in FamilyLabel):
        raise ValueError(f"families must share one even size >= 4, got "
                         f"{[families[f].num_qubits for f in FamilyLabel]}")
    built = {(size, f.index): build_family(size, f).x_parts  # at size 2, a Bell label's too
             for size in {2, two_n - 2} for f in FamilyLabel}
    out = []
    for label in FamilyLabel:
        target = x_parts_of(families[label])
        leading = [(built[2, b.index], built[two_n - 2, f.index])
                   for b, f in recursion_blocks(label)]
        for position, pairs in (("leading", leading), ("trailing", [(y, x) for x, y in leading])):
            mixture = [sum(np.kron(x[part], y[part]) for x, y in pairs) / 4.0 for part in (0, 1)]
            out.append(RecursionCheck(label, position, x_trace_distance(target, mixture)))
    return out


def pauli_connection_search(rho_a: DensityMatrix, rho_b: DensityMatrix):
    """Find a single-qubit Pauli conjugation mapping state rho_a onto rho_b.

    Scans qubits 1..2N in order and X, Y, Z per qubit; returns the first
    (qubit, pauli name) hit or None.  Distinct families are all connected this
    way (any hit appears already on qubit 1).  On x_parts, with b the qubit's
    bit, X reads both diagonals at k ^ b, Z negates anti and Y does both.
    """
    if rho_a.num_qubits != rho_b.num_qubits:
        raise ValueError(f"state sizes differ: {rho_a.num_qubits} vs {rho_b.num_qubits}")
    n, (diagonal, anti), target = rho_a.num_qubits, x_parts_of(rho_a), x_parts_of(rho_b)
    for qubit in range(1, n + 1):
        flip = np.arange(2 ** n) ^ (1 << (n - qubit))
        images = {"X": (diagonal[flip], anti[flip]), "Y": (diagonal[flip], -anti[flip]),
                  "Z": (diagonal, -anti)}
        for name in ("X", "Y", "Z"):
            if x_trace_distance(images[name], target) < STATE_ATOL:
                return qubit, name
    return None


def bell_product_state(tuples: Sequence[tuple[BellLabel, ...]],
                       pairing: tuple[tuple[int, int], ...], num_qubits: int) -> np.ndarray:
    """Each tuple's product of Bell states on the listed qubit pairs, one row per tuple.

    Row t holds, bit for bit, the kron of tuple t's Bell vectors pair by pair,
    with its slots moved so that output qubit k is physical qubit k.
    """
    _check_pairing(pairing, num_qubits)
    index = np.array([[b.index for b in labels] for labels in tuples]).reshape(-1, len(pairing))
    rows, kets = np.ones((len(index), 1), dtype=complex), ghz_basis(2)
    for column in index.T:
        rows = (rows[:, :, None] * kets[column][:, None, :]).reshape(len(index), -1)
    slots = [q for pair in pairing for q in pair]
    axes = [0] + [slots.index(q) + 1 for q in range(1, num_qubits + 1)]
    return rows.reshape((-1,) + (2,) * num_qubits).transpose(axes).reshape(len(index), -1)


def bell_correlated_tuples(two_n: int, label: FamilyLabel) -> list[tuple[BellLabel, ...]]:
    """The family's Bell-tuple support, in BELL_ORDER enumeration order, for any pairing.

    A Bell product's strings have as many 0s, mod 2, as it has psi labels, and
    each string s meets its complement with the sign (-1)**(minus labels).  So
    a tuple is in the support exactly when the XOR of its Bell indices is the
    family's index: 2**(two_n-2) tuples.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    return [tuple(BELL_ORDER[i] for i in t) for t in itertools.product(range(4), repeat=two_n // 2)
            if functools.reduce(operator.xor, t) == label.index]


def _check_pairing(pairing, num_qubits: int) -> None:
    flat = [q for pair in pairing for q in pair]
    if any(len(pair) != 2 for pair in pairing):
        raise ValueError(f"pairing must consist of qubit pairs, got {pairing}")
    if sorted(flat) != list(range(1, num_qubits + 1)):
        raise ValueError(f"pairing must cover qubits 1..{num_qubits} exactly once, got {pairing}")


def bell_tuple_decomposition(rho: DensityMatrix, pairing: tuple[tuple[int, int], ...]
                             ) -> list[tuple[tuple[BellLabel, ...], float]]:
    """Expand rho as a mixture of Bell-state products over the given pairing.

    Returns the tuples with weight above STATE_ATOL, in lexicographic
    BELL_ORDER enumeration order.  Raises NotBellCorrelated when the kept
    tuples fail to reconstruct rho to within STATE_ATOL trace distance.
    """
    tuples = list(itertools.product(BELL_ORDER, repeat=len(pairing)))
    rows = bell_product_state(tuples, pairing, rho.num_qubits)  # checks the pairing
    weights = ((rows.conj() @ rho.entries) * rows).sum(axis=1).real  # each <v|rho|v>
    keep = np.flatnonzero(weights > STATE_ATOL)
    recon = (rows[keep].T * weights[keep]) @ rows[keep].conj()
    gap = trace_distance(recon, rho.entries)
    if gap > STATE_ATOL:
        raise NotBellCorrelated(
            f"state is not Bell-correlated over pairing {pairing}: "
            f"reconstruction misses by trace distance {gap:.3e}")
    return [(tuples[t], float(weights[t])) for t in keep]


def permutation_invariance_check(rho: DensityMatrix) -> float:
    """Max trace distance between rho and itself under any qubit transposition.

    Swapping two qubits swaps two bits of k and of ~k alike, so both x_parts
    take the same index permutation.
    """
    diagonal, anti = x_parts_of(rho)
    k = np.arange(2 ** rho.num_qubits)
    worst = 0.0
    for bi, bj in itertools.combinations([1 << b for b in range(rho.num_qubits)], 2):
        swap = k ^ ((((k & bi) > 0) != ((k & bj) > 0)) * (bi | bj))  # swap differing bits
        worst = max(worst, x_trace_distance((diagonal[swap], anti[swap]), (diagonal, anti)))
    return worst
