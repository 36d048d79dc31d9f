"""State-family checks: parity classes, cat basis, recursion, decompositions."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from bcabe.states import (
    BELL_ORDER,
    BellLabel,
    FamilyLabel,
    NotBellCorrelated,
    bell_product_state,
    bell_state,
    bell_tuple_decomposition,
    build_family,
    family_support_projector,
    ghz_basis,
    pauli_connection_search,
    permutation_invariance_check,
    recursion_blocks,
    verify_recursion,
)
from bcabe.tensor import (
    OPERATOR_ATOL,
    STATE_ATOL,
    DensityMatrix,
    PureState,
    apply_unitary_on_subset,
    partial_trace,
    trace_distance,
    x_matrix,
)

import oracles
from oracles import PAULI_Z, PAULIS, enumerate_parity_strings, fidelity_with_pure

# Frozen expected values (derived by brute-force enumeration, see oracles.py):
P_STRINGS_4 = ["0000", "0011", "0101", "0110"]
Q_STRINGS_4 = ["0001", "0010", "0100", "0111"]

FAMILY_TO_ORACLE = {
    FamilyLabel.RHO_PLUS: ("p", +1),
    FamilyLabel.RHO_MINUS: ("p", -1),
    FamilyLabel.SIGMA_PLUS: ("q", +1),
    FamilyLabel.SIGMA_MINUS: ("q", -1),
}

# base of the recursion: the two_n = 2 "families" are the four Bell projectors
BASE_CASE = {
    FamilyLabel.RHO_PLUS: "phi+",
    FamilyLabel.RHO_MINUS: "phi-",
    FamilyLabel.SIGMA_PLUS: "psi+",
    FamilyLabel.SIGMA_MINUS: "psi-",
}

# every family's (Bell label, lower family) blocks in recursion_blocks order, which
# verify_recursion sums in and so reaches the verify report's bits
RECURSION_BLOCKS = {
    "rho+": [("phi+", "rho+"), ("phi-", "rho-"), ("psi+", "sigma+"), ("psi-", "sigma-")],
    "rho-": [("phi+", "rho-"), ("phi-", "rho+"), ("psi+", "sigma-"), ("psi-", "sigma+")],
    "sigma+": [("psi+", "rho+"), ("psi-", "rho-"), ("phi+", "sigma+"), ("phi-", "sigma-")],
    "sigma-": [("psi+", "rho-"), ("psi-", "rho+"), ("phi+", "sigma-"), ("phi-", "sigma+")],
}


class TestParityStrings:
    def test_frozen_families_at_four(self):
        assert enumerate_parity_strings(4, "p") == P_STRINGS_4
        assert enumerate_parity_strings(4, "q") == Q_STRINGS_4

    @pytest.mark.parametrize("two_n", [4, 6, 8])
    def test_matches_brute_force_filter(self, two_n):
        for cls in ("p", "q"):
            got = enumerate_parity_strings(two_n, cls)
            assert got == oracles.parity_filter(two_n, cls)

    @pytest.mark.parametrize("two_n", [4, 6, 8])
    def test_cardinality(self, two_n):
        for cls in ("p", "q"):
            assert len(enumerate_parity_strings(two_n, cls)) == 2 ** (two_n - 2)

    @pytest.mark.parametrize("two_n", [4, 6])
    def test_classes_and_complements_partition_all_strings(self, two_n):
        p = set(enumerate_parity_strings(two_n, "p"))
        q = set(enumerate_parity_strings(two_n, "q"))
        pbar = {oracles.complement(s) for s in p}
        qbar = {oracles.complement(s) for s in q}
        union = p | q | pbar | qbar
        assert len(p) + len(q) + len(pbar) + len(qbar) == 2 ** two_n
        assert len(union) == 2 ** two_n

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            enumerate_parity_strings(3, "p")
        with pytest.raises(ValueError):
            enumerate_parity_strings(2, "p")


class TestGhzBasis:
    def test_amplitudes(self):
        # p-class bases 0000, 0011, ...: row 3 is base 0011 with sign -
        v = ghz_basis(4)[3]
        np.testing.assert_allclose(v[int("0011", 2)], 1 / np.sqrt(2))
        np.testing.assert_allclose(v[int("1100", 2)], -1 / np.sqrt(2))
        assert np.count_nonzero(v) == 2

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8])
    def test_rows_match_per_vector_oracle(self, two_n):
        got, want = ghz_basis(two_n), oracles.ghz_rows(two_n)
        assert got.shape == want.shape == (2 ** two_n, 2 ** two_n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_read_only(self):
        basis = ghz_basis(4)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 0

    @pytest.mark.parametrize("two_n", [-2, 0, 1, 3, 5])
    def test_bad_sizes_rejected(self, two_n):
        with pytest.raises(ValueError, match="even and >= 2"):
            ghz_basis(two_n)

    @pytest.mark.parametrize("label", BELL_ORDER)
    def test_bell_state_is_its_row(self, label):
        assert np.array_equal(bell_state(label).amplitudes, ghz_basis(2)[label.index])

    @pytest.mark.parametrize("two_n", [4, 6])
    def test_orthonormal_basis(self, two_n):
        mat = ghz_basis(two_n)
        assert len(mat) == 2 ** two_n
        gram = mat.conj() @ mat.T
        residual = np.abs(gram - np.eye(2 ** two_n)).max()
        assert residual < 1e-12

    def test_bell_states_match_oracle(self):
        for label in BELL_ORDER:
            np.testing.assert_allclose(
                bell_state(label).amplitudes, oracles.BELL_VECTORS[label.value], atol=1e-15)


class TestBuildFamily:
    @pytest.mark.parametrize("label", list(FamilyLabel))
    def test_base_case_is_bell_projector(self, label):
        got = build_family(2, label)
        want = oracles.proj(oracles.BELL_VECTORS[BASE_CASE[label]])
        assert trace_distance(got.entries, want) < 1e-12

    @pytest.mark.parametrize("two_n", [4, 6, 8])
    @pytest.mark.parametrize("label", list(FamilyLabel))
    def test_matches_direct_mixture_oracle(self, two_n, label):
        # the index-array cat sum forms the same products as the dense sum
        cls, sign = FAMILY_TO_ORACLE[label]
        want = oracles.family_reference(two_n, cls, sign)
        assert np.array_equal(build_family(two_n, label).entries, want)
        count = 2 ** (two_n - 2)
        assert np.array_equal(x_matrix(*family_support_projector(two_n, label)), want * count)

    def test_smolin_equivalence(self):
        # rho+ at four qubits is the equal mixture of doubled Bell pairs
        got = build_family(4, FamilyLabel.RHO_PLUS)
        assert trace_distance(got.entries, oracles.smolin_state()) < 1e-12

    def test_rank_and_purity(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        vals = np.linalg.eigvalsh(rho.entries)
        np.testing.assert_allclose(vals[-4:], 0.25, atol=1e-12)
        np.testing.assert_allclose(vals[:-4], 0.0, atol=1e-12)

    def test_fidelity_with_single_cat_state(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        first = PureState(4, ghz_basis(4)[0])
        assert fidelity_with_pure(rho, first) == pytest.approx(0.25, abs=1e-12)

    def test_single_qubit_marginal_is_maximally_mixed(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        red = partial_trace(rho, [1, 2, 3])
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_rho_sigma_supports_are_orthogonal(self):
        a = build_family(4, FamilyLabel.RHO_PLUS)
        b = build_family(4, FamilyLabel.SIGMA_PLUS)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        for x, y in itertools.combinations(FamilyLabel, 2):
            overlap = np.trace(build_family(4, x).entries @ build_family(4, y).entries).real
            assert overlap == pytest.approx(0.0, abs=1e-12)

    def test_support_projector(self):
        p = x_matrix(*family_support_projector(4, FamilyLabel.SIGMA_MINUS))
        assert np.trace(p).real == pytest.approx(4, abs=1e-12)
        rho = build_family(4, FamilyLabel.SIGMA_MINUS)
        np.testing.assert_allclose(p @ rho.entries, rho.entries, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 4, 6])  # the support sizes certify measures, 2N - 2
    def test_supports_are_projectors_summing_to_identity(self, k):
        # the dense projector checks, on the matrices the two diagonals stand for
        supports = [x_matrix(*family_support_projector(k, f)) for f in FamilyLabel]
        for p in supports:
            assert np.abs(p - p.conj().T).max() <= OPERATOR_ATOL
            assert np.abs(p @ p - p).max() <= OPERATOR_ATOL
            assert np.linalg.matrix_rank(p) == 2 ** (k - 2)
        np.testing.assert_allclose(sum(supports), np.eye(2 ** k), atol=OPERATOR_ATOL)

    def test_odd_size_rejected(self):
        for build in (build_family, family_support_projector):
            for two_n in (0, 3):
                with pytest.raises(ValueError, match="even and >= 2"):
                    build(two_n, FamilyLabel.RHO_PLUS)


def families(two_n: int) -> dict[FamilyLabel, DensityMatrix]:
    return {f: build_family(two_n, f) for f in FamilyLabel}


def random_x(two_n: int, seed: int) -> DensityMatrix:
    return oracles.x_density(oracles.random_x_state(two_n, np.random.default_rng(seed)))


class TestRecursion:
    @pytest.mark.parametrize("two_n", [4, 6, 8])
    def test_all_eight_checks_pass(self, two_n):
        checks = verify_recursion(families(two_n))
        assert len(checks) == 8
        assert {c.family for c in checks} == set(FamilyLabel)
        assert {c.block_position for c in checks} == {"leading", "trailing"}
        for c in checks:
            assert c.distance < 1e-12, f"{c.family} {c.block_position}: {c.distance}"

    def test_blocks_table_covers_each_family_once(self):
        for label in FamilyLabel:
            blocks = recursion_blocks(label)
            assert len(blocks) == 4
            assert {b for b, _ in blocks} == set(BellLabel)
            assert {f for _, f in blocks} == set(FamilyLabel)

    @pytest.mark.parametrize("label", list(FamilyLabel))
    def test_blocks_table_frozen(self, label):
        assert recursion_blocks(label) == tuple(
            (BellLabel(b), FamilyLabel(f)) for b, f in RECURSION_BLOCKS[label.value])

    def test_label_indices(self):
        # bit 1 is psi (the "q" class), bit 0 the minus sign
        assert [(f.index, f.parity_class, f.sign) for f in FamilyLabel] == [
            (k, *FAMILY_TO_ORACLE[f]) for k, f in enumerate(FAMILY_TO_ORACLE)]
        assert [(b.index, b.sign) for b in BELL_ORDER] == [(0, +1), (1, -1), (2, +1), (3, -1)]
        assert [b.value for b in BELL_ORDER] == ["phi+", "phi-", "psi+", "psi-"]

    def test_rejects_base_size(self):
        with pytest.raises(ValueError):
            verify_recursion(families(2))

    def test_rejects_mixed_sizes(self):
        mixed = {**families(4), FamilyLabel.SIGMA_MINUS: build_family(6, FamilyLabel.SIGMA_MINUS)}
        with pytest.raises(ValueError, match="one even size"):
            verify_recursion(mixed)

    def test_reads_the_given_targets(self):
        # a drifted target shows in its own two checks and in no other
        given = families(4)
        given[FamilyLabel.RHO_MINUS] = oracles.x_density(
            0.9 * given[FamilyLabel.RHO_MINUS].entries + 0.1 * np.eye(16) / 16)
        failed = {(c.family, c.block_position) for c in verify_recursion(given)
                  if c.distance >= 1e-12}
        assert failed == {(FamilyLabel.RHO_MINUS, "leading"), (FamilyLabel.RHO_MINUS, "trailing")}


class TestPauliConnections:
    def test_frozen_examples(self):
        rho = families(4)
        assert pauli_connection_search(rho[FamilyLabel.RHO_PLUS], rho[FamilyLabel.RHO_MINUS]) == (1, "Z")
        assert pauli_connection_search(rho[FamilyLabel.RHO_PLUS], rho[FamilyLabel.SIGMA_PLUS]) == (1, "X")

    def test_identity_pair_finds_nothing(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        assert pauli_connection_search(rho, rho) is None

    @pytest.mark.parametrize("two_n", [4, 6, 8])
    def test_every_distinct_ordered_pair_connected(self, two_n):
        rho = families(two_n)
        for a, b in itertools.permutations(FamilyLabel, 2):
            hit = pauli_connection_search(rho[a], rho[b])
            assert hit is not None, f"no single-qubit Pauli relates {a} to {b}"
            assert hit[0] == 1  # symmetry puts the first hit on qubit 1

    def test_near_miss_finds_nothing(self, monkeypatch):
        # one entry off the true image by 3 STATE_ATOL: every candidate's distance, read
        # on the two diagonals, misses, and none is eigensolved
        rho_a = build_family(4, FamilyLabel.RHO_PLUS)
        image = apply_unitary_on_subset(rho_a, PAULI_Z, [1]).entries.copy()
        image[0, 15] += 3 * STATE_ATOL
        image[15, 0] += 3 * STATE_ATOL
        rho_b = oracles.x_density(image)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        assert pauli_connection_search(rho_a, rho_b) is None
        assert calls == []

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes differ"):
            pauli_connection_search(build_family(4, FamilyLabel.RHO_PLUS),
                                    build_family(6, FamilyLabel.RHO_MINUS))

    def test_phase_flip_toggles_cat_sign(self):
        # Z on qubit 1 sends each + cat state (even rows) to its - partner (the next row)
        basis = ghz_basis(4)
        for row in range(0, 16, 2):
            plus = oracles.density_of(PureState(4, basis[row]))
            minus = oracles.density_of(PureState(4, basis[row + 1]))
            moved = apply_unitary_on_subset(plus, PAULI_Z, [1])
            assert trace_distance(moved, minus) < 1e-12


class TestBellTupleDecomposition:
    def test_smolin_tuples(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        got = bell_tuple_decomposition(rho, ((1, 2), (3, 4)))
        want = {(b, b): 0.25 for b in BellLabel}
        assert {t: w for t, w in got}.keys() == want.keys()
        for t, w in got:
            assert w == pytest.approx(0.25, abs=1e-12)

    def test_six_qubit_tuple_count_and_weights(self):
        rho = build_family(6, FamilyLabel.RHO_PLUS)
        got = bell_tuple_decomposition(rho, ((1, 2), (3, 4), (5, 6)))
        assert len(got) == 16
        for _, w in got:
            assert w == pytest.approx(1 / 16, abs=1e-12)

    def test_weights_match_overlap_oracle(self):
        rho = build_family(6, FamilyLabel.SIGMA_PLUS)
        got = dict(bell_tuple_decomposition(rho, ((1, 2), (3, 4), (5, 6))))
        for labels in itertools.product(BELL_ORDER, repeat=3):
            v = np.ones(1, dtype=complex)
            for lbl in labels:
                v = np.kron(v, oracles.BELL_VECTORS[lbl.value])
            w = float(np.real(v.conj() @ rho.entries @ v))
            if labels in got:
                assert got[labels] == pytest.approx(w, abs=1e-12)
            else:
                assert w < 1e-12

    def test_respects_nontrivial_pairing(self):
        # families are permutation invariant, so any disjoint pairing works
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        got = bell_tuple_decomposition(rho, ((1, 3), (2, 4)))
        assert sum(w for _, w in got) == pytest.approx(1.0, abs=1e-12)

    def test_non_bell_correlated_state_raises(self):
        rho = oracles.density_of(PureState(4, oracles.ket("0000")))
        with pytest.raises(NotBellCorrelated):
            bell_tuple_decomposition(rho, ((1, 2), (3, 4)))

    def test_invalid_pairing_rejected(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        with pytest.raises(ValueError, match="pairing"):
            bell_tuple_decomposition(rho, ((1, 2), (2, 4)))

    def test_bell_product_rows_match_per_qubit_formula(self):
        # amplitude of |x>: the product over pairs (a, b), in pairing order, of the pair's Bell
        # vector at bits x_a x_b; the same multiplications as one kron per tuple, so bit for bit
        pairing = ((1, 4), (2, 6), (3, 5))
        tuples = list(itertools.product(BELL_ORDER, repeat=3))
        rows = bell_product_state(tuples, pairing, 6)
        assert rows.shape == (64, 64)

        def bit(x, q):
            return (x >> (6 - q)) & 1

        for labels, row in zip(tuples, rows):
            want = [np.prod([oracles.BELL_VECTORS[lbl.value][2 * bit(x, a) + bit(x, b)]
                             for lbl, (a, b) in zip(labels, pairing)]) for x in range(64)]
            assert row.tobytes() == np.array(want, dtype=complex).tobytes()

    def test_bell_product_state_placement(self):
        rows = bell_product_state([(BellLabel.PHI_PLUS, BellLabel.PSI_MINUS)], ((1, 3), (2, 4)), 4)
        # amplitude of |0 0 0 1>: qubits (1,3) in phi+ contribute |00>, (2,4) psi- gives |01>
        assert rows.shape == (1, 16)
        v = rows[0]
        assert v[int("0001", 2)] == pytest.approx(0.5)
        assert v[int("0100", 2)] == pytest.approx(-0.5)
        assert v[int("1011", 2)] == pytest.approx(0.5)
        assert v[int("1110", 2)] == pytest.approx(-0.5)


class TestPermutationInvariance:
    def test_identity_permutation_is_exactly_zero(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        moved = oracles.permute_qubits_matrix(rho.entries, [1, 2, 3, 4])
        assert trace_distance(moved, rho.entries) == 0.0

    @pytest.mark.parametrize("two_n", [4, 6, 8])
    @pytest.mark.parametrize("label", list(FamilyLabel))
    def test_all_transpositions(self, label, two_n):
        assert permutation_invariance_check(build_family(two_n, label)) < 1e-12

    def test_sees_a_non_invariant_state(self):
        rho = oracles.x_density(oracles.proj(oracles.ket("0001")))
        assert permutation_invariance_check(rho) == pytest.approx(1.0, abs=1e-12)


class TestCheckersMatchDenseOracles:
    """The structure checks read x_parts; off the families they agree with dense scans."""

    @pytest.mark.parametrize("two_n", [4, 6])
    def test_permutation_check_matches_dense_transpositions(self, two_n):
        rho = random_x(two_n, two_n)
        dense = 0.0
        for i, j in itertools.combinations(range(1, two_n + 1), 2):
            perm = list(range(1, two_n + 1))
            perm[i - 1], perm[j - 1] = j, i
            moved = oracles.permute_qubits_matrix(rho.entries, perm)
            dense = max(dense, trace_distance(moved, rho.entries))
        assert dense > 1e-3
        assert permutation_invariance_check(rho) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("two_n", [4, 6])
    def test_pauli_search_matches_dense_scan(self, two_n):
        rho = random_x(two_n, two_n + 1)
        # a Pauli moves X-shaped entries onto the X, so each image is an X-state again
        candidates = [(q, name, oracles.x_density(
                           apply_unitary_on_subset(rho, PAULIS[name], [q]).entries))
                      for q in range(1, two_n + 1) for name in ("X", "Y", "Z")]
        for _, _, image in candidates:
            first = next((q, name) for q, name, moved in candidates
                         if trace_distance(moved, image) < STATE_ATOL)
            assert pauli_connection_search(rho, image) == first

    def test_non_x_state_rejected(self):
        dense = DensityMatrix(4, oracles.random_density(16, np.random.default_rng(0)))
        given = {**families(4), FamilyLabel.RHO_MINUS: dense}
        with pytest.raises(ValueError, match="not an X-state"):
            verify_recursion(given)
        with pytest.raises(ValueError, match="not an X-state"):
            pauli_connection_search(given[FamilyLabel.RHO_PLUS], dense)
        with pytest.raises(ValueError, match="not an X-state"):
            permutation_invariance_check(dense)
