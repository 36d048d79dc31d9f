"""Tensor-core checks: containers, reshape machinery, and measurement math."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from bcabe.tensor import (
    MAX_QUBITS,
    OPERATOR_ATOL,
    PAULI_X,
    STATE_ATOL,
    DensityMatrix,
    PureState,
    QubitSubset,
    apply_unitary_on_subset,
    fidelity_with_pure,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    trace_distance,
    x_blocks,
    x_parts_of,
    x_spectrum,
    x_trace_distance,
    x_validate,
)
from bcabe.states import FamilyLabel, build_family

from oracles import (
    BELL_VECTORS,
    boundary_x_parts,
    dense_family_build,
    density_of,
    embed_reference,
    ket,
    permute_qubits_matrix,
    permute_qubits_vector,
    pt_reference,
    ptrace_reference,
    random_density,
    random_unitary,
    random_x_state,
    tensor_product,
    x_block_eigenvalues,
    x_density,
    x_parts_from,
)

# Frozen expected values, computed by hand:
# the partial transpose of [phi+] over either qubit is SWAP/2, with spectrum
# (-1/2, 1/2, 1/2, 1/2) and hence negativity 1/2.
PHI_PLUS_PT_MATRIX = 0.5 * np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)
PHI_PLUS_PT_SPECTRUM = np.array([-0.5, 0.5, 0.5, 0.5])


def phi_plus() -> DensityMatrix:
    return density_of(PureState(2, BELL_VECTORS["phi+"]))


class TestContainers:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([1.0, 1.0]))

    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_density_requires_psd(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(1, m)

    def test_density_requires_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, m)

    @pytest.mark.parametrize("make", [
        lambda: PureState(1, np.array([np.nan, 0])),
        lambda: DensityMatrix(1, np.full((2, 2), np.nan)),
    ], ids=["pure", "density"])
    def test_nan_rejected(self, make):
        # every threshold comparison is False against NaN, so only a finiteness check catches it
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            PureState(MAX_QUBITS + 1, np.zeros(2 ** (MAX_QUBITS + 1)))

    def test_arrays_are_frozen(self):
        s = PureState(1, ket("0"))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_equality_is_identity(self):
        # the generated eq and hash over ndarray fields raised; the containers compare by identity
        for make in (lambda: PureState(1, ket("0")),
                     lambda: DensityMatrix(1, np.eye(2) / 2),
                     lambda: DensityMatrix(1, x_parts=(np.full(2, 0.5), np.zeros(2)))):
            a, b = make(), make()
            assert (a == b) is False
            assert a == a
            assert len({a, b, a}) == 2

    def test_qubit_subset_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            QubitSubset((2, 1))
        assert QubitSubset.of([3, 1]).indices == (1, 3)


class TestTensorProduct:
    # tensor_product is the tests' oracle; the package keeps its products as plain kron arrays
    def test_pure_kron_order(self):
        # operand a occupies the lower-numbered (most significant) qubits
        s = tensor_product(PureState(1, ket("0")), PureState(1, ket("1")))
        assert s.amplitudes[int("01", 2)] == 1.0

    def test_density_kron_matches_numpy(self):
        a = DensityMatrix(1, np.diag([0.25, 0.75]).astype(complex))
        b = phi_plus()
        out = tensor_product(a, b)
        np.testing.assert_allclose(out.entries, np.kron(a.entries, b.entries))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor_product(PureState(1, ket("0")), phi_plus())

    def test_partial_trace_inverts_tensor_product(self):
        rng = np.random.default_rng(7)
        a = DensityMatrix(2, random_density(4, rng))
        b = DensityMatrix(1, random_density(2, rng))
        joint = tensor_product(a, b)
        back_a = partial_trace(joint, [3])
        back_b = partial_trace(joint, [1, 2])
        assert trace_distance(back_a, a) < 1e-12
        assert trace_distance(back_b, b) < 1e-12


class TestPartialTrace:
    def test_matches_reference_on_random_state(self):
        rng = np.random.default_rng(3)
        rho = DensityMatrix(3, random_density(8, rng))
        got = partial_trace(rho, [2]).entries
        want = ptrace_reference(rho.entries, [1, 3], 3)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        red = partial_trace(phi_plus(), [2])
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-15)

    def test_empty_discard_is_identity(self):
        rho = phi_plus()
        assert partial_trace(rho, []) is rho

    def test_cannot_discard_all(self):
        with pytest.raises(ValueError, match="every qubit"):
            partial_trace(phi_plus(), [1, 2])


class TestPartialTranspose:
    def test_phi_plus_frozen_matrix_and_spectrum(self):
        got = partial_transpose(phi_plus(), [2])
        np.testing.assert_allclose(got, PHI_PLUS_PT_MATRIX, atol=1e-15)
        np.testing.assert_allclose(hermitian_eigenvalues(got), PHI_PLUS_PT_SPECTRUM, atol=1e-15)

    def test_matches_reference_on_random_state(self):
        rng = np.random.default_rng(11)
        rho = DensityMatrix(3, random_density(8, rng))
        for subset in ([1], [2], [3], [1, 3], [2, 3]):
            got = partial_transpose(rho, subset)
            want = pt_reference(rho.entries, subset, 3)
            np.testing.assert_allclose(got, want, atol=0)

    def test_involution_is_exact(self):
        # applying the same partial transpose twice must return the input
        # entry-for-entry, no tolerance
        rng = np.random.default_rng(13)
        rho = DensityMatrix(3, random_density(8, rng))
        for subset in ([2], [1, 3]):
            pt = partial_transpose(rho, subset)
            twice = pt_reference(pt, subset, 3)
            assert np.array_equal(twice, rho.entries)

    def test_trace_preserved_exactly(self):
        rng = np.random.default_rng(17)
        rho = DensityMatrix(2, random_density(4, rng))
        pt = partial_transpose(rho, [1])
        assert np.trace(pt) == np.trace(rho.entries)


class TestEigenvaluesAndDistances:
    def test_eigenvalues_sorted_ascending(self):
        vals = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_eigensolver_residual_meets_target(self):
        # residual ||Mv - lambda v|| <= 1e-9 ||M|| per pair, on a PT matrix
        rng = np.random.default_rng(23)
        m = pt_reference(random_density(16, rng), [1, 3], 4)
        vals, vecs = np.linalg.eigh(m)
        norm = np.linalg.norm(m, 2)
        for lam, v in zip(vals, vecs.T):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-9 * norm

    def test_trace_distance_orthogonal_pure_states(self):
        a = density_of(PureState(2, ket("00")))
        b = density_of(PureState(2, ket("11")))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_self_is_zero(self):
        assert trace_distance(phi_plus(), phi_plus()) == 0.0

    def test_trace_distance_resolves_near_inputs(self, monkeypatch):
        # one eigensolve of the difference sees a gap of 1e-15
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        x = random_density(8, np.random.default_rng(3))
        near = x.copy()
        near[0, 0] += 1e-15
        near[1, 1] -= 1e-15
        distance = trace_distance(x, near)
        assert len(calls) == 1
        assert 0.0 < distance == pytest.approx(0.5 * np.abs(np.diag(near - x)).sum())

    @pytest.mark.parametrize("n", [4, 6])
    def test_x_trace_distance_matches_dense(self, n):
        rng = np.random.default_rng(n)
        a, b = (random_x_state(n, rng) for _ in range(2))
        assert x_trace_distance(x_parts_from(a), x_parts_from(b)) == pytest.approx(
            trace_distance(a, b), abs=1e-12)

    def test_x_parts_of_rejects_dense_state(self):
        with pytest.raises(ValueError, match="not an X-state"):
            x_parts_of(DensityMatrix(3, random_density(8, np.random.default_rng(5))))

    def test_fidelity_with_pure(self):
        rho = phi_plus()
        assert fidelity_with_pure(rho, PureState(2, BELL_VECTORS["phi+"])) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_with_pure(rho, PureState(2, ket("01"))) == pytest.approx(0.0, abs=1e-12)
        # consistency: fidelity = 1 - trace distance when rho is the projector
        psi = PureState(2, BELL_VECTORS["psi-"])
        rho2 = density_of(psi)
        assert fidelity_with_pure(rho2, psi) == pytest.approx(1.0 - trace_distance(rho2, rho2), abs=1e-12)


class TestApplyUnitary:
    def test_single_qubit_flip(self):
        s = apply_unitary_on_subset(density_of(PureState(2, ket("00"))), PAULI_X, [2])
        np.testing.assert_allclose(s.entries, np.outer(ket("01"), ket("01")), atol=1e-15)

    def test_matches_embedded_matrix_on_density(self):
        rng = np.random.default_rng(29)
        rho = DensityMatrix(3, random_density(8, rng))
        u = random_unitary(4, rng)
        got = apply_unitary_on_subset(rho, u, [1, 3])
        big = embed_reference(u, [1, 3], 3)
        want = big @ rho.entries @ big.conj().T
        np.testing.assert_allclose(got.entries, want, atol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(31)
        rho = DensityMatrix(3, random_density(8, rng))
        u = random_unitary(2, rng)
        before = hermitian_eigenvalues(rho.entries)
        after = hermitian_eigenvalues(apply_unitary_on_subset(rho, u, [2]).entries)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary_on_subset(density_of(PureState(1, ket("0"))),
                                    np.array([[1, 0], [0, 2.0]]), [1])


class TestPermutations:
    def test_vector_swap(self):
        v = PureState(2, ket("01")).amplitudes
        out = permute_qubits_vector(v, [2, 1])
        assert out[int("10", 2)] == 1.0

    def test_matrix_permutation_matches_conjugation(self):
        rng = np.random.default_rng(37)
        rho = random_density(8, rng)
        got = permute_qubits_matrix(rho, [2, 3, 1])
        # permutation as an explicit basis relabeling
        d = 8
        want = np.zeros_like(rho)
        for i in range(d):
            for j in range(d):
                ib = format(i, "03b")
                jb = format(j, "03b")
                ni = ib[1] + ib[2] + ib[0]
                nj = jb[1] + jb[2] + jb[0]
                want[int(ni, 2), int(nj, 2)] = rho[i, j]
        np.testing.assert_allclose(got, want, atol=0)


def random_x_matrix(n: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Hermitian, unit-trace X-shaped matrix; anti-diagonal magnitudes grow with scale."""
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    m[np.diag_indices(dim)] = rng.uniform(0.0, 1.0, dim)
    k = np.arange(dim // 2)
    c = scale * (rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
    m[k, k ^ (dim - 1)] = c
    m[k ^ (dim - 1), k] = c.conj()
    return m / np.trace(m).real


class TestXShapedValidation:
    def test_closed_form_agrees_with_dense_rule(self):
        # draws within 1e-12 of the PSD floor are left out: there the closed form, which reads
        # m[k, ~k], and eigvalsh, which reads the lower triangle, may round to opposite sides
        rng = np.random.default_rng(2024)
        accepted = rejected = 0
        for n in range(1, 7):
            for scale in (0.0, 0.05, 0.2, 0.5, 1.0) * 4:
                m = random_x_matrix(n, scale, rng)
                dense = np.linalg.eigvalsh(m)
                assert np.abs(x_spectrum(np.diagonal(m), np.fliplr(m).diagonal()) - dense).max() <= 1e-14
                if abs(dense[0] + OPERATOR_ATOL) < 1e-12:
                    continue
                if dense[0] >= -OPERATOR_ATOL:
                    DensityMatrix(n, m)
                    x_validate(*x_parts_from(m))
                    accepted += 1
                else:
                    assert dense[0] < -100 * OPERATOR_ATOL  # well below the floor, not at its edge
                    with pytest.raises(ValueError, match="PSD"):
                        DensityMatrix(n, m)
                    with pytest.raises(ValueError, match="PSD"):
                        x_validate(*x_parts_from(m))
                    rejected += 1
        assert accepted >= 30 and rejected >= 30

    def test_x_parts_are_frozen_diagonals(self):
        rho = build_family(4, FamilyLabel.SIGMA_PLUS)
        diagonal, anti = rho.x_parts
        assert np.array_equal(diagonal, np.diagonal(rho.entries))
        assert np.array_equal(anti, rho.entries[np.arange(16), np.arange(16) ^ 15])
        with pytest.raises(ValueError):
            anti[0] = 0.0
        assert DensityMatrix(3, random_density(8, np.random.default_rng(5))).x_parts is None
        assert DensityMatrix(0, np.array([[1.0]])).x_parts is None

    def test_validation_eigensolves_only_dense_inputs(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        build_family(8, FamilyLabel.RHO_PLUS)
        assert len(calls) == 0
        DensityMatrix(4, random_density(16, np.random.default_rng(7)))
        assert len(calls) == 1
        DensityMatrix(0, np.array([[1.0]]))
        assert len(calls) == 2


def dense_verdict(m: np.ndarray) -> str | None:
    """The dense checks in their order: the first failure's message, or None."""
    if not np.isfinite(m).all():
        return "density matrix entries must be finite"
    if np.abs(m - m.conj().T).max() > STATE_ATOL:
        return "density matrix is not Hermitian within tolerance"
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > STATE_ATOL:
        return f"trace {tr} deviates from 1 by more than {STATE_ATOL}"
    return None


def mixed_x_state() -> np.ndarray:
    """An X-shaped three-qubit state with every eigenvalue near 1/8, well above the PSD floor."""
    m = np.eye(8, dtype=complex) / 8
    k = np.arange(4)
    m[k, 7 - k] = 0.01 + 0.02j * (k + 1)
    m[7 - k, k] = (0.01 + 0.02j * (k + 1)).conj()
    return m


def _set(m, entries):
    m = m.copy()
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


class TestXPathValidation:
    # each case is a corrupted mixed_x_state; only "nan-off-x" leaves the X shape, so it has
    # no x_parts to validate
    CASES = {
        "nan-on-diagonal": {(2, 2): np.nan},
        "inf-on-anti": {(0, 7): np.inf},
        "nan-off-x": {(0, 1): np.nan},
        "anti-pair-skew": {(1, 6): mixed_x_state()[1, 6] + 2 * STATE_ATOL},
        "imaginary-diagonal": {(3, 3): 1 / 8 + 1j * STATE_ATOL},
        "trace-off": {(4, 4): 1 / 8 + 10 * STATE_ATOL},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejects_as_dense(self, case):
        m = _set(mixed_x_state(), self.CASES[case])
        off_x = np.ones((8, 8), dtype=bool)
        off_x[np.arange(8), np.arange(8)] = off_x[np.arange(8), 7 - np.arange(8)] = False
        assert (np.count_nonzero(m[off_x]) > 0) == (case == "nan-off-x")
        expected = dense_verdict(m)
        assert expected is not None
        with pytest.raises(ValueError) as exc:
            DensityMatrix(3, m)
        assert str(exc.value) == expected
        if case == "nan-off-x":
            with pytest.raises(ValueError, match="off its diagonal"):
                x_parts_from(m)
            return
        with pytest.raises(ValueError) as exc:
            x_validate(*x_parts_from(m))
        assert str(exc.value) == expected

    def test_accepts_skew_within_tolerance(self):
        m = _set(mixed_x_state(), {(1, 6): mixed_x_state()[1, 6] + STATE_ATOL / 2})
        assert dense_verdict(m) is None
        rho = x_density(m)  # x_validate accepts it
        assert rho.x_parts[1][1] == m[1, 6]
        assert DensityMatrix(3, m).x_parts is None


class TestXBuiltDensityMatrix:
    # the X-shaped corruptions of TestXPathValidation, and one pair block pushed below zero
    CASES = {**{name: entries for name, entries in TestXPathValidation.CASES.items()
                if name != "nan-off-x"},
             "negative-eigenvalue": {(2, 5): 0.2, (5, 2): 0.2}}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejects_as_dense(self, case):
        # the same checks in the same order: each raises the message the matrix gets
        m = _set(mixed_x_state(), self.CASES[case])
        with pytest.raises(ValueError) as from_matrix:
            DensityMatrix(3, m)
        with pytest.raises(ValueError) as from_x:
            DensityMatrix(3, x_parts=x_parts_from(m))
        assert str(from_x.value) == str(from_matrix.value)
        if case == "negative-eigenvalue":
            assert "PSD floor" in str(from_x.value) and np.linalg.eigvalsh(m)[0] < -OPERATOR_ATOL
        else:
            assert str(from_x.value) == dense_verdict(m)

    def test_rejects_bad_shapes(self):
        diagonal, anti = x_parts_from(mixed_x_state())
        with pytest.raises(ValueError, match="one length"):
            DensityMatrix(3, x_parts=(diagonal, anti[:4]))
        with pytest.raises(ValueError, match="one length"):
            DensityMatrix(0, x_parts=(np.ones(1), np.ones(1)))
        with pytest.raises(ValueError, match="does not match"):
            DensityMatrix(2, x_parts=(diagonal, anti))

    def test_entries_formed_on_first_read(self):
        m = mixed_x_state()
        rho = DensityMatrix(3, x_parts=x_parts_from(m))
        assert "entries" not in vars(rho)
        assert rho.entries.tobytes() == m.tobytes()
        assert rho.entries is rho.entries
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(rho.x_parts, x_parts_from(m)))

    # sha256 of build_family(n, f).entries.tobytes() over n = 2, 4, 6, 8 and the labels in
    # FamilyLabel order, recorded from the dense build
    FAMILIES_SHA256 = "e077029dbf6ab211a0906f7c6ccd894067d1e644673c6a5e3ad0e09d70b42259"

    def test_family_entries_equal_dense_build(self):
        digest = hashlib.sha256()
        for two_n in (2, 4, 6, 8):
            for label in FamilyLabel:
                rho = build_family(two_n, label)
                dense = dense_family_build(two_n, label)
                assert rho.entries.tobytes() == dense.tobytes()
                assert not rho.entries.flags.writeable
                digest.update(rho.entries.tobytes())
        assert digest.hexdigest() == self.FAMILIES_SHA256


class TestStackedXValidation:
    # one corruption per check, in the order they run
    CASES = {name: TestXBuiltDensityMatrix.CASES[name]
             for name in ("nan-on-diagonal", "anti-pair-skew", "trace-off", "negative-eigenvalue")}

    @staticmethod
    def _stack(states):
        return tuple(np.stack(part) for part in zip(*states))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mid_stack_state_raises_its_own_message(self, case):
        good = x_parts_from(mixed_x_state())
        other = x_parts_from(random_x_state(3, np.random.default_rng(3)))
        bad = x_parts_from(_set(mixed_x_state(), self.CASES[case]))
        with pytest.raises(ValueError) as single:
            DensityMatrix(3, x_parts=bad)
        with pytest.raises(ValueError) as stacked:
            x_validate(*self._stack([good, other, bad, good]))
        assert str(stacked.value) == str(single.value)

    def test_floor_message_names_the_full_spectrum_minimum(self):
        # the floor is read off the blocks' lower eigenvalues unsorted, yet names the value the
        # full sorted spectrum gives
        states = [x_parts_from(random_x_state(3, np.random.default_rng(3))),
                  x_parts_from(_set(mixed_x_state(), self.CASES["negative-eigenvalue"]))]
        diagonal, anti = self._stack(states)
        lo = float(x_spectrum(diagonal, anti)[..., 0].min())
        assert lo < -OPERATOR_ATOL
        with pytest.raises(ValueError) as exc:
            x_validate(diagonal, anti)
        assert str(exc.value) == f"matrix has eigenvalue {lo} below the -{OPERATOR_ATOL} PSD floor"

    def test_valid_stack_passes(self):
        rng = np.random.default_rng(5)
        x_validate(*self._stack([x_parts_from(random_x_state(3, rng)) for _ in range(5)]))
        x_validate(*x_parts_from(mixed_x_state()))  # a lone state, with no stack axis


class TestStackedXSpectrum:
    def test_rows_bit_equal_single_masks(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 8):
            states = [build_family(n, label) for label in FamilyLabel]
            states.append(x_density(random_x_state(n, rng)))
            masks = np.arange(2 ** n)
            for diagonal, anti in (rho.x_parts for rho in states):
                stacked = x_spectrum(diagonal, anti, masks)
                assert stacked.shape == (2 ** n, 2 ** n)
                for i, mask in enumerate(masks):
                    assert np.array_equal(stacked[i], x_spectrum(diagonal, anti, int(mask)))


class TestXBlocks:
    @staticmethod
    def _hex(values):
        return [float(v).hex() for v in np.ravel(values)]

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_equal_blockwise_hypot_reference(self, n):
        # x_blocks skips hypot where every block is level; the reference calls it on every
        # block, so the two agree bit for bit only where hypot(0, |c|) is |c|
        rng = np.random.default_rng(n)
        states = [build_family(n, label).x_parts for label in FamilyLabel] if n > 2 else []
        # a GHZ-diagonal state with random weights: every block level, d_k = d_~k
        w = rng.uniform(size=(2 ** (n - 1), 2)) * (rng.uniform(size=(2 ** (n - 1), 2)) < 0.7)
        w[0, 0] += 0.1
        half_diagonal, half_anti = w.sum(axis=1) / 2 / w.sum(), (w[:, 0] - w[:, 1]) / 2 / w.sum()
        ghz = DensityMatrix(n, x_parts=(np.concatenate([half_diagonal, half_diagonal[::-1]]) + 0j,
                                        np.concatenate([half_anti, half_anti[::-1]]) + 0j))
        states.append(ghz.x_parts)
        states.append(x_parts_from(random_x_state(n, rng)))  # tilted blocks
        states += boundary_x_parts(n)  # the last mixes level and tilted blocks
        masks = rng.choice(2 ** n, size=min(2 ** n, 6), replace=False)
        for diagonal, anti in states:
            for mask in masks.tolist():
                mid, radius = x_blocks(diagonal, anti, mask)
                lower, upper = x_block_eigenvalues(diagonal, anti, mask)
                assert self._hex(mid - radius) == self._hex(lower)
                assert self._hex(mid + radius) == self._hex(upper)
            mid, radius = x_blocks(diagonal, anti, masks)  # masks stacked, mid shared
            for row, mask in enumerate(masks.tolist()):
                lower, upper = x_block_eigenvalues(diagonal, anti, mask)
                assert self._hex((mid - radius)[row]) == self._hex(lower)
        diagonals, antis = (np.stack(part) for part in zip(*states))  # states stacked
        mid, radius = x_blocks(diagonals, antis)
        for row, (diagonal, anti) in enumerate(states):
            lower, upper = x_block_eigenvalues(diagonal, anti)
            assert self._hex(mid[row] - radius[row]) == self._hex(lower)
            assert self._hex(mid[row] + radius[row]) == self._hex(upper)
