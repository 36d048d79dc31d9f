"""Independent reference constructions used as oracles by the test suite.

Everything here is deliberately written with a different mechanism than the
package under test: explicit index loops instead of reshape/transpose tricks,
itertools filters instead of parity arithmetic, hand-entered Bell vectors.
Slow is fine; these only run on small systems.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from bcabe.states import _class_members
from bcabe.tensor import DensityMatrix, PureState

SQ2 = 1.0 / np.sqrt(2.0)

BELL_VECTORS = {
    "phi+": np.array([SQ2, 0, 0, SQ2], dtype=complex),
    "phi-": np.array([SQ2, 0, 0, -SQ2], dtype=complex),
    "psi+": np.array([0, SQ2, SQ2, 0], dtype=complex),
    "psi-": np.array([0, SQ2, -SQ2, 0], dtype=complex),
}


def ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def complement(bits: str) -> str:
    """Flip every bit."""
    return "".join("1" if c == "0" else "0" for c in bits)


def ghz_vec(base: str, sign: int) -> np.ndarray:
    return (ket(base) + sign * ket(complement(base))) * SQ2


def ghz_rows(two_n: int) -> np.ndarray:
    """Every cat vector, built one at a time: "p" then "q" bases ascending, sign + before -.

    Each holds 1/sqrt(2) at its base and sign/sqrt(2) at the complement, so
    bcabe.states.ghz_basis must match the stack bit for bit.
    """
    return np.array([ghz_vec(base, sign) for cls in ("p", "q")
                     for base in parity_filter(two_n, cls) for sign in (+1, -1)])


def proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def density_of(psi: PureState) -> DensityMatrix:
    """|psi><psi| built from its dense matrix, so checked densely and with no x_parts."""
    return DensityMatrix(psi.num_qubits, proj(psi.amplitudes))


def fidelity_with_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> as a real number."""
    if rho.num_qubits != psi.num_qubits:
        raise ValueError("state sizes do not match")
    v = psi.amplitudes
    return float(np.real(v.conj() @ rho.entries @ v))


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def x_parts_from(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m's diagonal and anti-diagonal, anti[k] = m[k, ~k], once every other entry is checked zero.

    The package never reads an X shape off a matrix: this is how a test hands
    a dense X-shaped oracle matrix to DensityMatrix(n, x_parts=...) or to
    activation_distill as a support.  NaN counts as nonzero.
    """
    m = np.asarray(m, dtype=complex)
    k = np.arange(len(m))
    off_x = m.copy()
    off_x[k, k] = off_x[k, k[::-1]] = 0
    if np.count_nonzero(off_x):
        raise ValueError("matrix has nonzero entries off its diagonal and anti-diagonal")
    return m[k, k].copy(), m[k, k[::-1]].copy()


def x_block_eigenvalues(diagonal: np.ndarray, anti: np.ndarray,
                        mask: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) eigenvalues of each block {k, ~k}, k < dim / 2, one block at a time.

    The X-shaped matrix with these two diagonals, partially transposed on the
    bits in mask: mid -/+ hypot((d_k - d_~k) / 2, |anti[k ^ mask]|), hypot
    called on every block, tilted or level.
    """
    dim, magnitude = len(diagonal), np.abs(anti)
    lower, upper = [], []
    for k in range(dim // 2):
        d1, d2 = diagonal[k].real, diagonal[dim - 1 - k].real
        mid, radius = (d1 + d2) / 2, np.hypot((d1 - d2) / 2, magnitude[k ^ mask])
        lower.append(mid - radius)
        upper.append(mid + radius)
    return np.array(lower), np.array(upper)


def x_density(m: np.ndarray) -> DensityMatrix:
    """The X-shaped density matrix m, built on its two diagonals (x_parts_from)."""
    return DensityMatrix(len(m).bit_length() - 1, x_parts=x_parts_from(m))


def smolin_state() -> np.ndarray:
    """Equal mixture of the four two-Bell-pair products."""
    m = sum(np.kron(proj(b), proj(b)) for b in BELL_VECTORS.values())
    return m / 4.0


def parity_filter(two_n: int, family: str) -> list[str]:
    """Brute-force enumeration of the two parity-constrained string families.

    family "p": first bit 0, even number of 0s overall.
    family "q": first bit 0, odd number of 0s overall.
    """
    out = []
    for bits in itertools.product("01", repeat=two_n):
        s = "".join(bits)
        if s[0] != "0":
            continue
        zeros = s.count("0")
        if family == "p" and zeros % 2 == 0:
            out.append(s)
        elif family == "q" and zeros % 2 == 1:
            out.append(s)
    return out


def enumerate_parity_strings(two_n: int, parity_class: str) -> list[str]:
    """The package's canonical strings of one parity class, sizes and class checked.

    Canonical means the first bit is 0; the complements are the remaining
    labels.  Each class has exactly 2**(two_n - 2) members.  This is the
    enumeration bcabe.states builds its families from, wrapped so tests can
    hold it against parity_filter.
    """
    if two_n < 4 or two_n % 2:
        raise ValueError(f"two_n must be even and >= 4, got {two_n}")
    if parity_class not in ("p", "q"):
        raise ValueError(f"parity class must be 'p' or 'q', got {parity_class!r}")
    canonical = np.flatnonzero(_class_members(two_n, parity_class)[:2 ** (two_n - 1)])
    return [format(k, f"0{two_n}b") for k in canonical]


def tensor_product(a, b):
    """Two pure states or two density matrices side by side, a on the lower-numbered qubits."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.num_qubits + b.num_qubits, np.kron(a.entries, b.entries))
    raise TypeError(f"operands must be the same kind, got {type(a).__name__} and {type(b).__name__}")


def permute_qubits_vector(amplitudes: np.ndarray, perm: list[int]) -> np.ndarray:
    """Rearrange qubits of a state vector: output qubit k is input qubit perm[k-1]."""
    a = np.asarray(amplitudes)
    n = a.size.bit_length() - 1
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection of 1..{n}, got {perm}")
    axes = [p - 1 for p in perm]
    return a.reshape((2,) * n).transpose(axes).reshape(-1)


def permute_qubits_matrix(entries: np.ndarray, perm: list[int]) -> np.ndarray:
    """Rearrange qubits of an operator by reshape and transpose.

    Output qubit k is input qubit perm[k-1].
    """
    m = np.asarray(entries)
    n = m.shape[0].bit_length() - 1
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection of 1..{n}, got {perm}")
    axes = [p - 1 for p in perm]
    return m.reshape((2,) * (2 * n)).transpose(axes + [n + x for x in axes]).reshape(m.shape)


def family_reference(two_n: int, kind: str, sign: int) -> np.ndarray:
    """Uniform GHZ-projector mixture over a parity family, by direct summation.

    kind "p" with sign +/-1 gives the rho families, kind "q" the sigma ones.
    """
    strings = parity_filter(two_n, kind)
    m = sum(proj(ghz_vec(s, sign)) for s in strings)
    return m / len(strings)


def dense_family_build(two_n: int, label) -> np.ndarray:
    """The family matrix as the package built it densely before it built the two diagonals.

    Each canonical string s sets (s, s), (s_bar, s_bar), (s, s_bar) and (s_bar, s) of a
    zeroed matrix to the products a dense outer product of its cat vector forms, and the
    sum is divided in place by the count of strings.
    """
    idx = np.array([int(s, 2) for s in parity_filter(two_n, label.parity_class)])
    bar = idx ^ (2 ** two_n - 1)
    a = 1.0 / np.sqrt(2.0)
    m = np.zeros((2 ** two_n, 2 ** two_n), dtype=complex)
    m[idx, idx] = m[bar, bar] = a * a
    m[idx, bar] = m[bar, idx] = (label.sign * a) * a
    m /= 2 ** (two_n - 2)
    return m


def pt_reference(rho: np.ndarray, subset: list[int], n: int) -> np.ndarray:
    """Partial transpose by explicit index manipulation (1-based subset)."""
    d = 2 ** n
    out = np.zeros_like(rho)
    for i in range(d):
        for j in range(d):
            ib = format(i, f"0{n}b")
            jb = format(j, f"0{n}b")
            ri = list(ib)
            rj = list(jb)
            for q in subset:
                ri[q - 1], rj[q - 1] = rj[q - 1], ri[q - 1]
            out[int("".join(ri), 2), int("".join(rj), 2)] = rho[i, j]
    return out


def ptrace_reference(rho: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Partial trace keeping the 1-based qubits in `keep`, by summation."""
    discard = [q for q in range(1, n + 1) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        for j in range(dk):
            ib = format(i, f"0{len(keep)}b")
            jb = format(j, f"0{len(keep)}b")
            for e in itertools.product("01", repeat=len(discard)):
                row = [""] * n
                col = [""] * n
                for pos, q in enumerate(keep):
                    row[q - 1] = ib[pos]
                    col[q - 1] = jb[pos]
                for pos, q in enumerate(discard):
                    row[q - 1] = e[pos]
                    col[q - 1] = e[pos]
                out[i, j] += rho[int("".join(row), 2), int("".join(col), 2)]
    return out


def embed_reference(op: np.ndarray, positions: list[int], n: int) -> np.ndarray:
    """op on the 1-based qubits `positions` (slot k on positions[k]), identity elsewhere.

    Entry (i, j) is op's entry for the bits of i and j on `positions`, when i
    and j agree on every other qubit, and 0 otherwise.
    """
    rest = [q for q in range(1, n + 1) if q not in positions]
    d = 2 ** n
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            ib = format(i, f"0{n}b")
            jb = format(j, f"0{n}b")
            if all(ib[q - 1] == jb[q - 1] for q in rest):
                si = "".join(ib[q - 1] for q in positions)
                sj = "".join(jb[q - 1] for q in positions)
                out[i, j] = op[int(si, 2), int(sj, 2)]
    return out


def activation_reference(rho: np.ndarray, support: np.ndarray, together: list[int], n: int,
                         correction: np.ndarray) -> tuple[float, np.ndarray, float]:
    """One activation outcome by dense projection: (probability, corrected pair, fidelity).

    Embeds the support projector P on `together` as P x I, forms P rho P and
    its trace p, traces the gathered qubits out of P rho P / p, applies
    `correction` to the lower residual qubit and takes the overlap with phi+.
    """
    big = embed_reference(support, together, n)
    post = big @ rho @ big
    prob = float(np.trace(post).real)
    keep = [q for q in range(1, n + 1) if q not in together]
    pair = ptrace_reference(post / prob, keep, n)
    fix = np.kron(correction, np.eye(2))
    corrected = fix @ pair @ fix.conj().T
    phi = BELL_VECTORS["phi+"]
    return prob, corrected, float(np.real(phi.conj() @ corrected @ phi))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real


def random_x_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """X-shaped density matrix: each {k, ~k} block's |anti| is below its diagonal's geometric mean."""
    dim = 2 ** n
    d = rng.uniform(0.1, 1.0, dim)
    d /= d.sum()
    k = np.arange(dim // 2)
    far = dim - 1 - k
    phase = np.exp(2j * np.pi * rng.uniform(size=k.size))
    c = np.sqrt(d[k] * d[far]) * rng.uniform(0.0, 1.0, k.size) * phase
    m = np.diag(d).astype(complex)
    m[k, far] = c
    m[far, k] = c.conj()
    return m


def boundary_x_parts(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """X-states at the PSD boundary, as (diagonal, anti) pairs.

    A block {0, ~0} with |c|^2 = d_0 d_~0 exactly (1/32, 1/8 and 1/16, a 3-4-5
    block whose lower eigenvalue is exactly 0); the n-qubit GHZ state, which
    is phi+ at n = 2; and the first random_x_state with every odd block zeroed.
    """
    dim = 2 ** n
    diagonal = np.full(dim, (1 - 5 / 32) / (dim - 2), dtype=complex)
    diagonal[0], diagonal[-1] = 1 / 32, 1 / 8
    anti = np.zeros(dim, dtype=complex)
    anti[0], anti[-1] = 1j / 16, -1j / 16
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[-1] = 0.5
    diagonal_r, anti_r = x_parts_from(random_x_state(n, np.random.default_rng(0)))
    odd = (np.arange(dim) % 2 == 1) ^ (np.arange(dim) >= dim // 2)  # k odd, or ~k odd for k's pair
    diagonal_r, anti_r = np.where(odd, 0, diagonal_r), np.where(odd, 0, anti_r)
    return [(diagonal, anti), (ghz, ghz), (diagonal_r / diagonal_r.sum(), anti_r / diagonal_r.sum())]


# receiver's Pauli fix after each Bell outcome (identity for phi+)
PAULI_FIX = {
    "phi-": np.array([[1, 0], [0, -1]], dtype=complex),
    "psi+": np.array([[0, 1], [1, 0]], dtype=complex),
    "psi-": np.array([[0, 1], [-1, 0]], dtype=complex),
}

# the same fixes under the names bcabe.states.BELL_CORRECTIONS gives them
CORRECTION_MATRICES = {"I": np.eye(2, dtype=complex), "Z": PAULI_FIX["phi-"],
                       "X": PAULI_FIX["psi+"], "ZX": PAULI_FIX["psi-"]}


def bell_measure_reference(vec: np.ndarray, order: list[int], sent: int, half: int,
                           target: int) -> list[tuple[float, np.ndarray]]:
    """Bell-measure qubits `sent` and `half` of one state vector, outcome by outcome.

    `order` lists the qubit id in each tensor slot.  For phi+, phi-, psi+,
    psi- in turn: contract the bra, take p from vdot, divide by sqrt(p) and
    Pauli-fix qubit `target`.  The states keep `order` without the two
    measured qubits.  This is the arithmetic of a single-branch teleport
    step, so results can be compared bit for bit.
    """
    n = len(order)
    slot = [q for q in order if q not in (sent, half)].index(target)
    out = []
    for outcome in ("phi+", "phi-", "psi+", "psi-"):
        bra = BELL_VECTORS[outcome].conj().reshape(2, 2)
        r = np.tensordot(bra, vec.reshape((2,) * n),
                         axes=([0, 1], [order.index(sent), order.index(half)]))
        p = float(np.vdot(r, r).real)
        r = (r / np.sqrt(p)).reshape(-1)
        if outcome in PAULI_FIX:
            t = np.tensordot(PAULI_FIX[outcome], r.reshape((2,) * (n - 2)), axes=([1], [slot]))
            r = np.moveaxis(t, 0, slot).reshape(-1)
        out.append((p, r))
    return out


def protocol_branches(two_n: int, tuples: list[tuple[str, ...]]) -> list[tuple[float, np.ndarray]]:
    """Exact preparation ensemble over the default pairing, one branch at a time.

    Each tape value picks one tuple of Bell-label names.  Pair k (parties
    2k+1, 2k+2, singlet qubits 2k+1, 2k+2) appends its Bell state as fresh
    qubits f, f+1 and teleports f+1 through the singlet
    (bell_measure_reference).  Branches come tape by tape, then by outcome
    with the first pair most significant.
    """
    start = np.ones(1, dtype=complex)
    for _ in range(two_n // 2):
        start = np.kron(start, BELL_VECTORS["phi+"])
    # at the end party 2k+1 holds fresh qubit f_k and party 2k+2 its singlet half
    holders = [q for k in range(two_n // 2) for q in (two_n + 1 + 2 * k, 2 * k + 2)]
    out = []
    for labels in tuples:
        live = [(1.0, start, list(range(1, two_n + 1)))]
        for k, name in enumerate(labels):
            fresh, sent = two_n + 1 + 2 * k, two_n + 2 + 2 * k
            grown = []
            for prob, vec, order in live:
                order = order + [fresh, sent]
                rest = [q for q in order if q not in (sent, 2 * k + 1)]
                for p, r in bell_measure_reference(np.kron(vec, BELL_VECTORS[name]), order,
                                                   sent, 2 * k + 1, 2 * k + 2):
                    grown.append((prob * p, r, rest))
            live = grown
        for prob, vec, order in live:
            src = [order.index(q) for q in holders]
            final = vec.reshape((2,) * two_n).transpose(src).reshape(-1)
            out.append((prob * (1.0 / len(tuples)), final))
    return out


def mix_reference(weights: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Dense mixture sum_b weights[b] |amps[b]><amps[b]| over every entry of every row.

    Over protocol_branches it mixes every branch of every tape, the reference
    that bcabe.protocol's mixture of the tapes' Bell products is held to.
    Every branch of a tape is that tape's product, so the two agree to rounding.
    """
    return np.einsum("b,bi,bj->ij", weights, amps, amps.conj())


def read_state_file(path):
    """Read a state file written by bcabe.cli.write_state_file."""
    with open(path) as fh:
        payload = json.load(fh)
    qubits = int(payload["qubits"])
    data = np.array([complex(re, im) for re, im in payload["data"]])
    if payload["kind"] == "density":
        dim = 2 ** qubits
        if data.size != dim * dim:
            raise ValueError(f"density file needs {dim * dim} entries, found {data.size}")
        return DensityMatrix(qubits, data.reshape(dim, dim))
    raise ValueError(f"unknown state kind {payload['kind']!r}")
