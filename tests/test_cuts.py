"""Cut analysis, activation, and the covering-LP lower bound."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from bcabe.cuts import (
    NPT_ATOL,
    Cut,
    CutReport,
    EdgeWeights,
    activation_distill,
    analyze_cut,
    enumerate_cuts,
    lp_lower_bound,
    npt_one_vs_rest_scan,
)
from bcabe import certify
from bcabe.certify import cost_certificate
from bcabe.states import (BellLabel, FamilyLabel, bell_state, build_family,
                          family_support_projector, recursion_blocks)
from bcabe.tensor import (
    DensityMatrix,
    apply_unitary_on_subset,
    fidelity_with_pure,
    partial_transpose,
    trace_distance,
    x_matrix,
)

import oracles
from oracles import CORRECTION_MATRICES

ALL_FAMILIES = list(FamilyLabel)

# Spectral facts about the four-qubit families, frozen from the construction:
# across any 1:3 cut the partial transpose dips to -1/8 (negativity 1/2),
# while every 2:2 cut stays positive.
ONE_VS_THREE_MIN_EIG = -0.125
ONE_VS_THREE_NEGATIVITY = 0.5

CORRECTION_TABLES = {
    FamilyLabel.RHO_PLUS: {
        FamilyLabel.RHO_PLUS: "I", FamilyLabel.RHO_MINUS: "Z",
        FamilyLabel.SIGMA_PLUS: "X", FamilyLabel.SIGMA_MINUS: "ZX",
    },
    FamilyLabel.RHO_MINUS: {
        FamilyLabel.RHO_MINUS: "I", FamilyLabel.RHO_PLUS: "Z",
        FamilyLabel.SIGMA_MINUS: "X", FamilyLabel.SIGMA_PLUS: "ZX",
    },
    FamilyLabel.SIGMA_PLUS: {
        FamilyLabel.SIGMA_PLUS: "I", FamilyLabel.SIGMA_MINUS: "Z",
        FamilyLabel.RHO_PLUS: "X", FamilyLabel.RHO_MINUS: "ZX",
    },
    FamilyLabel.SIGMA_MINUS: {
        FamilyLabel.SIGMA_MINUS: "I", FamilyLabel.SIGMA_PLUS: "Z",
        FamilyLabel.RHO_MINUS: "X", FamilyLabel.RHO_PLUS: "ZX",
    },
}


def _supports(k: int) -> dict[FamilyLabel, tuple[np.ndarray, np.ndarray]]:
    return {f: family_support_projector(k, f) for f in FamilyLabel}


def _distill(two_n: int, label: FamilyLabel, pair):
    """activation_distill across one residual pair of the family itself, supports built here."""
    state = build_family(two_n, label)
    return activation_distill(state, label, [pair], _supports(two_n - 2))[tuple(pair)]


class TestCutEnumeration:
    def test_counts(self):
        # 2^(n-1) - 1 canonical proper cuts
        assert len(enumerate_cuts(4)) == 7
        assert len(enumerate_cuts(6)) == 31

    def test_one_vs_rest_filter(self):
        singles = enumerate_cuts(6, side_size=1)
        assert len(singles) == 6
        sides = [c.side_a if len(c.side_a) == 1 else c.side_b for c in singles]
        assert sorted(s[0] for s in sides) == [1, 2, 3, 4, 5, 6]

    def test_two_vs_rest_filter(self):
        cuts = enumerate_cuts(6, side_size=2)
        # C(6,2) = 15 two-element subsets, each appearing once in canonical form
        assert len(cuts) == 15

    def test_ordering(self):
        cuts = enumerate_cuts(4)
        assert [c.side_a for c in cuts] == [
            (1,), (1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_layers_equal_filtered_list(self, n):
        # only the requested layers are generated: the same cuts, in the same order, with
        # the same sides as filtering the checked full list
        full = [Cut(n, (1,) + extra) for k in range(n - 1)
                for extra in itertools.combinations(range(2, n + 1), k)]
        assert enumerate_cuts(n) == full
        for k in range(-1, n + 2):
            want = [c for c in full if k in (len(c.side_a), n - len(c.side_a))]
            got = enumerate_cuts(n, side_size=k)
            assert got == want
            assert [(c.side_a, c.side_b, c.label()) for c in got] == \
                [(c.side_a, c.side_b, c.label()) for c in want]

    def test_each_call_returns_a_new_list(self):
        first = enumerate_cuts(6)
        assert enumerate_cuts(6) is not first
        want = list(first)
        first.clear()
        assert enumerate_cuts(6) == want
        singles = enumerate_cuts(6, side_size=1)
        singles.append(Cut(6, (1, 2)))
        assert enumerate_cuts(6, side_size=1) == want[:1] + want[-5:]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_masks_and_labels(self, n):
        # a shared Cut keeps the mask and label its sides give
        for cut in enumerate_cuts(n):
            side_b = [q for q in range(1, n + 1) if q not in cut.side_a]
            assert cut.mask == sum(1 << (n - q) for q in cut.side_a)
            assert cut.label() == "{%s}|{%s}" % (",".join(map(str, cut.side_a)),
                                                 ",".join(map(str, side_b)))
            assert cut.label() is cut.label()

    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            Cut(4, (2, 3))          # party 1 missing
        with pytest.raises(ValueError):
            Cut(4, (1, 3, 2))       # not increasing
        with pytest.raises(ValueError):
            Cut(4, (1, 5))          # out of range
        with pytest.raises(ValueError):
            Cut(4, (1, 2, 3, 4))    # not proper
        with pytest.raises(ValueError):
            Cut(4, (0, 1))          # below party 1

    def test_crossing_pairs(self):
        cut = Cut(4, (1, 2))
        assert sorted(cut.crossing_pairs()) == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert Cut(4, (1,)).label() == "{1}|{2,3,4}"


def cut_spectrum(rho, cut):
    """The closed-form partial-transpose spectrum across one cut, side_a's bits transposed.

    Read block by block off oracles.x_block_eigenvalues, not off tensor.x_blocks,
    which analyze_cut reads.
    """
    mask = sum(1 << (cut.num_parties - q) for q in cut.side_a)
    return np.sort(np.concatenate(oracles.x_block_eigenvalues(*rho.x_parts, mask)))


def single_cut_report(rho, cut) -> CutReport:
    """The report of one cut, read off its own spectrum one field at a time."""
    spectrum = cut_spectrum(rho, cut)
    lo = float(spectrum[0])
    negative = spectrum[spectrum < -NPT_ATOL]
    return CutReport(cut=cut, min_eigenvalue=lo,
                     negativity=float(-negative.sum()) if negative.size else 0.0,
                     classification="NPT" if lo < -NPT_ATOL else "PPT")


def _bits(report: CutReport):
    return report.cut, report.min_eigenvalue.hex(), report.negativity.hex(), report.classification


def assert_matches_dense(rho, cut, report, dense_pt):
    """The closed form against a dense eigensolve of an independent partial transpose.

    The spectrum must agree to 1e-14, and the report fields must be exactly
    what the dense spectrum gives when read the way analyze_cut reads it.
    """
    spectrum = np.linalg.eigvalsh(dense_pt)
    assert np.abs(cut_spectrum(rho, cut) - spectrum).max() <= 1e-14
    negative = spectrum[spectrum < -NPT_ATOL]
    assert report.min_eigenvalue == float(spectrum[0])
    assert report.negativity == (float(-negative.sum()) if negative.size else 0.0)
    assert report.classification == ("NPT" if spectrum[0] < -NPT_ATOL else "PPT")


class TestCutSpectra:
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_four_qubit_structure(self, label):
        rho = build_family(4, label)
        cuts = enumerate_cuts(4)
        for cut, report in zip(cuts, analyze_cut(rho, cuts), strict=True):
            assert_matches_dense(rho, cut, report,
                                 oracles.pt_reference(rho.entries, list(cut.side_a), 4))
            if len(cut.side_a) in (1, 3):
                assert report.classification == "NPT"
                assert report.min_eigenvalue == pytest.approx(ONE_VS_THREE_MIN_EIG, abs=1e-12)
                assert report.negativity == pytest.approx(ONE_VS_THREE_NEGATIVITY, abs=1e-12)
            else:
                assert report.classification == "PPT"
                assert report.min_eigenvalue >= -1e-12
                assert report.negativity == 0.0

    def test_six_qubit_structure(self):
        for label in ALL_FAMILIES:
            rho = build_family(6, label)
            cuts = enumerate_cuts(6)
            for cut, report in zip(cuts, analyze_cut(rho, cuts), strict=True):
                assert_matches_dense(rho, cut, report,
                                     oracles.pt_reference(rho.entries, list(cut.side_a), 6))
                small = min(len(cut.side_a), len(cut.side_b))
                if small == 1:
                    assert report.classification == "NPT"
                    assert report.min_eigenvalue == pytest.approx(-1 / 32, abs=1e-12)
                    assert report.negativity > 0.1
                elif small == 2:
                    assert report.classification == "PPT"
                    assert report.min_eigenvalue >= -1e-12
                    assert report.negativity == 0.0
                else:
                    # balanced 3:3 cuts stay NPT; only the 2:4 layer is PPT
                    assert report.classification == "NPT"
                    assert report.min_eigenvalue == pytest.approx(-1 / 32, abs=1e-12)

    def test_eight_qubit_matches_dense(self):
        rho = build_family(8, FamilyLabel.RHO_PLUS)
        cuts = enumerate_cuts(8)
        for cut, report in zip(cuts, analyze_cut(rho, cuts), strict=True):
            assert_matches_dense(rho, cut, report, partial_transpose(rho, cut.side_a))

    def test_negativity_matches_bell_state(self):
        # for [phi+] across 1:1 the negativity is 1/2 and the minimum is -1/2
        phi_plus = oracles.x_density(oracles.proj(bell_state(BellLabel.PHI_PLUS).amplitudes))
        [report] = analyze_cut(phi_plus, [Cut(2, (1,))])
        assert report.classification == "NPT"
        assert report.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert report.negativity == pytest.approx(0.5, abs=1e-12)

    def test_families_share_cut_spectra(self):
        reports = {label: npt_one_vs_rest_scan(build_family(4, label)) for label in ALL_FAMILIES}
        for cut_idx in range(4):
            negs = {label: reports[label][cut_idx].negativity for label in ALL_FAMILIES}
            assert max(negs.values()) - min(negs.values()) < 1e-12

    def test_scan_covers_every_party(self):
        reports = npt_one_vs_rest_scan(build_family(4, FamilyLabel.SIGMA_MINUS))
        assert [r.cut.side_a for r in reports] == [(1,), (1, 2, 3), (1, 2, 4), (1, 3, 4)]
        assert all(r.classification == "NPT" for r in reports)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            analyze_cut(build_family(4, FamilyLabel.RHO_PLUS), [Cut(4, (1,)), Cut(6, (1,))])

    def test_cuts_scan_no_entries(self, monkeypatch):
        # the cuts read the state's two diagonals, never a scan of its entries
        rho = build_family(8, FamilyLabel.RHO_PLUS)
        calls = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero",
                            lambda *args, **kwargs: calls.append(1) or count_nonzero(*args, **kwargs))
        reports = analyze_cut(rho, enumerate_cuts(8))
        assert len(reports) == 127
        assert calls == []

    def test_non_x_state_rejected(self):
        rho = DensityMatrix(4, oracles.random_density(16, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="not an X-state"):
            analyze_cut(rho, [Cut(4, (1,))])

    def test_dense_x_shaped_state_rejected(self):
        # the X shape is the caller's choice, x_parts=..., never found in a matrix
        rho = DensityMatrix(4, build_family(4, FamilyLabel.RHO_PLUS).entries)
        assert rho.x_parts is None
        with pytest.raises(ValueError, match="not an X-state"):
            analyze_cut(rho, [Cut(4, (1,))])


    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_reports_equal_single_cut_readout(self, size):
        # one stacked readout of every cut, sorting only the blocks' lower eigenvalues, gives
        # the bits each cut's full sorted spectrum gives alone, signed zeros included
        states = [build_family(size, label) for label in ALL_FAMILIES]
        states += [oracles.x_density(oracles.random_x_state(size, np.random.default_rng(seed)))
                   for seed in range(20)]
        states += [DensityMatrix(size, x_parts=parts) for parts in oracles.boundary_x_parts(size)]
        cuts = enumerate_cuts(size)
        for rho in states:
            assert [_bits(r) for r in analyze_cut(rho, cuts)] == \
                [_bits(single_cut_report(rho, cut)) for cut in cuts]
        assert any(r.classification == "NPT" for rho in states[4:24] for r in analyze_cut(rho, cuts))

    def test_level_blocks_run_no_hypot(self, monkeypatch):
        # a family's blocks are level (d_k = d_~k), where hypot(0, |c|) is |c| exactly, so
        # analyze_cut reads all 127 cuts at 8 without hypot; a tilted state still calls it
        calls = []
        hypot = np.hypot
        monkeypatch.setattr(np, "hypot", lambda *args: calls.append(1) or hypot(*args))
        cuts = enumerate_cuts(8)
        families = [build_family(8, label) for label in ALL_FAMILIES]
        calls.clear()
        for rho in families:
            analyze_cut(rho, cuts)
        assert calls == []
        tilted = oracles.x_density(oracles.random_x_state(8, np.random.default_rng(0)))
        calls.clear()
        analyze_cut(tilted, cuts)
        assert len(calls) >= 1

    def test_empty_cut_list(self):
        assert analyze_cut(build_family(4, FamilyLabel.RHO_PLUS), []) == []


def _corrections(two_n: int, label: FamilyLabel) -> dict[FamilyLabel, str]:
    """Each outcome's correction, as activation_distill names it across the pair (1, 2)."""
    return {f: o.correction for f, o in _distill(two_n, label, (1, 2)).items()}


class TestActivation:
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_correction_table_frozen(self, label):
        for two_n in (4, 6):
            assert _corrections(two_n, label) == CORRECTION_TABLES[label]

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_table_consistent_with_recursion(self, label):
        # outcome family on qubits 3..2N pairs with the Bell label left on 1,2
        blocks = dict(recursion_blocks(label))
        table = _corrections(4, label)
        for bell, family in blocks.items():
            expected = {"phi+": "I", "phi-": "Z", "psi+": "X", "psi-": "ZX"}[bell.value]
            assert table[family] == expected

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_four_qubit_residual_pair_roulette(self, label):
        # any residual pair works; gather the other two and distill across it
        for residual in itertools.combinations(range(1, 5), 2):
            outcomes = _distill(4, label, residual)
            assert set(outcomes) == set(FamilyLabel)
            total = sum(o.probability for o in outcomes.values())
            assert total == pytest.approx(1.0, abs=1e-12)
            for outcome in outcomes.values():
                assert outcome.probability == pytest.approx(0.25, abs=1e-12)
                assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_six_qubit_residual_first_pair(self):
        outcomes = _distill(6, FamilyLabel.RHO_PLUS, (1, 2))
        for outcome in outcomes.values():
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    @pytest.mark.parametrize("two_n, residual", [
        *((4, pair) for pair in itertools.combinations(range(1, 5), 2)),
        (6, (1, 2)), (6, (2, 3)), (6, (1, 6)),
    ])
    def test_matches_dense_reference(self, label, two_n, residual):
        together = [q for q in range(1, two_n + 1) if q not in residual]
        rho = build_family(two_n, label).entries
        for outcome, got in _distill(two_n, label, residual).items():
            support = x_matrix(*family_support_projector(two_n - 2, outcome))
            prob, corrected, fidelity = oracles.activation_reference(
                rho, support, together, two_n, CORRECTION_MATRICES[got.correction])
            assert abs(got.probability - prob) <= 1e-14
            assert np.abs(x_matrix(*got.x_parts) - corrected).max() <= 1e-14
            assert abs(got.fidelity - fidelity) <= 1e-14

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    @pytest.mark.parametrize("two_n", [4, 6])
    def test_gathers_the_named_qubits(self, label, two_n):
        # the families are permutation invariant, so on them a gather of the wrong
        # qubits goes unseen; a fixed random admixture, X-shaped as activation requires,
        # makes every residual pair differ, and its complex anti-diagonal and unequal
        # diagonal[k], diagonal[~k] (a GHZ-diagonal one has neither) the pair's order.
        # Every pair goes through one call, so a pair reading another's residual shows too
        noise = oracles.random_x_state(two_n, np.random.default_rng(two_n))
        rho = 0.9 * build_family(two_n, label).entries + 0.1 * noise
        state, supports = oracles.x_density(rho), _supports(two_n - 2)
        pairs = list(itertools.combinations(range(1, two_n + 1), 2))
        results = activation_distill(state, label, pairs, supports)
        assert list(results) == pairs
        for pair, outcomes in results.items():
            together = [q for q in range(1, two_n + 1) if q not in pair]
            for outcome, got in outcomes.items():
                prob, corrected, fidelity = oracles.activation_reference(
                    rho, x_matrix(*supports[outcome]), together, two_n,
                    CORRECTION_MATRICES[got.correction])
                assert abs(got.probability - prob) <= 1e-14
                assert np.abs(x_matrix(*got.x_parts) - corrected).max() <= 1e-14
                assert abs(got.fidelity - fidelity) <= 1e-14

    @pytest.mark.parametrize("two_n", [4, 6])
    def test_phased_supports_match_dense_reference(self, two_n):
        # a family support has P[s, ~s] = P[~s, s], so it cannot tell which end of its
        # anti-diagonal meets which of rho's; cat states (|s> + i sign |~s>) / sqrt(2) can
        k, label = two_n - 2, FamilyLabel.SIGMA_MINUS
        dense = {}
        for f in FamilyLabel:
            m = np.zeros((2 ** k, 2 ** k), dtype=complex)
            for s in range(2 ** (k - 1)):  # first bit 0; odd popcount is the "q" class
                if bin(s).count("1") % 2 == (f.parity_class == "q"):
                    v = np.zeros(2 ** k, dtype=complex)
                    v[s], v[2 ** k - 1 - s] = 1 / np.sqrt(2), 1j * f.sign / np.sqrt(2)
                    m += oracles.proj(v)
            dense[f] = m
        supports = {f: oracles.x_parts_from(m) for f, m in dense.items()}
        noise = oracles.random_x_state(two_n, np.random.default_rng(10 + two_n))
        rho = 0.9 * build_family(two_n, label).entries + 0.1 * noise
        together = list(range(3, two_n + 1))
        for outcome, got in activation_distill(oracles.x_density(rho), label, [(1, 2)],
                                               supports)[1, 2].items():
            prob, corrected, fidelity = oracles.activation_reference(
                rho, dense[outcome], together, two_n, CORRECTION_MATRICES[got.correction])
            assert abs(got.probability - prob) <= 1e-14
            assert np.abs(x_matrix(*got.x_parts) - corrected).max() <= 1e-14
            assert abs(got.fidelity - fidelity) <= 1e-14

    def test_non_x_state_rejected(self):
        # a state built from a matrix has no x_parts, and off the X the closed form does not hold
        noise = oracles.random_density(16, np.random.default_rng(4))
        rho = DensityMatrix(4, 0.9 * build_family(4, FamilyLabel.RHO_PLUS).entries + 0.1 * noise)
        with pytest.raises(ValueError, match="not an X-state"):
            activation_distill(rho, FamilyLabel.RHO_PLUS, [(1, 2)], _supports(2))

    @pytest.mark.parametrize("support", [
        x_matrix(*family_support_projector(2, FamilyLabel.SIGMA_MINUS)),  # a dense matrix
        family_support_projector(2, FamilyLabel.SIGMA_MINUS)[:1],         # one vector
        tuple(part[:2] for part in family_support_projector(2, FamilyLabel.SIGMA_MINUS)),
    ], ids=["matrix", "one-vector", "short"])
    def test_malformed_support_rejected(self, support):
        # a support is given by its two diagonals, each of length 2**(2N-2)
        supports = _supports(2) | {FamilyLabel.SIGMA_MINUS: support}
        with pytest.raises(ValueError, match="two vectors of length 4"):
            activation_distill(build_family(4, FamilyLabel.RHO_PLUS), FamilyLabel.RHO_PLUS,
                               [(1, 2)], supports)

    def test_corrections_derived_independently(self):
        # search over single-qubit Paulis for the unique fix of each raw residual
        z = np.diag([1.0, -1.0]).astype(complex)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        candidates = {"I": np.eye(2, dtype=complex), "Z": z, "X": x, "ZX": z @ x}
        phi_plus = bell_state(BellLabel.PHI_PLUS)
        outcomes = _distill(4, FamilyLabel.RHO_MINUS, (1, 2))
        for outcome in outcomes.values():
            raw = apply_unitary_on_subset(DensityMatrix(2, x_parts=outcome.x_parts),
                                          candidates[outcome.correction].conj().T, [1])
            found = [name for name, matrix in candidates.items()
                     if abs(fidelity_with_pure(apply_unitary_on_subset(raw, matrix, [1]),
                                               phi_plus) - 1.0) < 1e-10]
            assert found == [outcome.correction]

    def test_zero_probability_outcome_raises_value_error(self):
        # a zero support gives the residual 0 / 0; the finiteness check rejects it
        zero = {f: (np.zeros(4), np.zeros(4)) for f in FamilyLabel}
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            activation_distill(build_family(4, FamilyLabel.RHO_PLUS), FamilyLabel.RHO_PLUS,
                               [(1, 2)], zero)

    def test_outcomes_compare_without_raising(self):
        first = _distill(4, FamilyLabel.RHO_PLUS, (3, 4))
        again = _distill(4, FamilyLabel.RHO_PLUS, (3, 4))
        outcome = first[FamilyLabel.RHO_PLUS]
        assert outcome == outcome
        # outcomes, like the states they hold, compare by identity
        assert (outcome == again[FamilyLabel.RHO_PLUS]) is False
        assert len(set(first.values())) == 4

    def test_no_pairs(self):
        rho = build_family(4, FamilyLabel.RHO_PLUS)
        assert activation_distill(rho, FamilyLabel.RHO_PLUS, [], _supports(2)) == {}

    def test_bad_gather_sets(self):
        for pair in [(3,), (2, 3, 4), (1, 5)]:  # too few, too many, out of range
            with pytest.raises(ValueError, match=r"two qubits of 1\.\.4"):
                _distill(4, FamilyLabel.RHO_PLUS, pair)
        with pytest.raises(ValueError, match="strictly increasing"):
            _distill(4, FamilyLabel.RHO_PLUS, (2, 1))
        with pytest.raises(ValueError, match="1-based"):
            _distill(4, FamilyLabel.RHO_PLUS, (0, 1))
        odd = DensityMatrix(3, np.eye(8) / 8)
        with pytest.raises(ValueError):
            activation_distill(odd, FamilyLabel.RHO_PLUS, [(1, 2)], _supports(2))  # odd size
        with pytest.raises(ValueError):  # supports on 4 qubits, not the 2 gathered
            activation_distill(build_family(4, FamilyLabel.RHO_PLUS), FamilyLabel.RHO_PLUS,
                               [(1, 2)], _supports(4))


class TestEdgeWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeWeights(4, {(2, 1): 1.0})   # unordered pair
        with pytest.raises(ValueError):
            EdgeWeights(4, {(1, 5): 1.0})   # out of range
        with pytest.raises(ValueError):
            EdgeWeights(4, {(1, 2): -0.5})  # negative

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, weight):
        # a NaN passes every comparison test and would make total() NaN
        with pytest.raises(ValueError, match=r"non-finite weight .* on pair \(2, 3\)"):
            EdgeWeights(4, {(1, 2): 1.0, (2, 3): weight})

    def test_crossing_sum(self):
        ew = EdgeWeights(4, {(1, 2): 1.0, (3, 4): 1.0})
        assert ew.total() == 2.0
        assert ew.crossing_sum(Cut(4, (1,))) == 1.0
        assert ew.crossing_sum(Cut(4, (1, 2))) == 0.0
        assert ew.crossing_sum(Cut(4, (1, 3))) == 2.0


class TestCoveringBound:
    @pytest.mark.parametrize("two_n", [4, 6, 8, 10])
    def test_optimum_is_half_the_parties(self, two_n):
        value, witness = lp_lower_bound(two_n, enumerate_cuts(two_n, side_size=1))
        assert value == pytest.approx(two_n / 2, abs=1e-9)
        assert witness.total() == pytest.approx(value, abs=1e-9)
        for cut in enumerate_cuts(two_n, side_size=1):
            assert witness.crossing_sum(cut) >= 1.0 - 1e-9

    def test_disjoint_pairs_witness_is_optimal(self):
        # the perfect matching e_12 = e_34 = 1 achieves the bound at n=4
        matching = EdgeWeights(4, {(1, 2): 1.0, (3, 4): 1.0})
        cuts = enumerate_cuts(4, side_size=1)
        for cut in cuts:
            assert matching.crossing_sum(cut) >= 1.0
        value, _ = lp_lower_bound(4, cuts)
        assert matching.total() == pytest.approx(value, abs=1e-9)

    def test_empty_constraints(self):
        value, witness = lp_lower_bound(4, [])
        assert value == 0.0
        assert witness.weights == {}

    def test_cut_party_count_validation(self):
        with pytest.raises(ValueError):
            lp_lower_bound(4, [Cut(4, (1,)), Cut(6, (1,))])

    def test_brute_force_cross_check(self):
        # at n=4 check the LP against a fine grid over matchings plus a star
        value, _ = lp_lower_bound(4, enumerate_cuts(4, side_size=1))
        star = EdgeWeights(4, {(1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0})
        for cut in enumerate_cuts(4, side_size=1):
            if cut.side_a == (1,):
                assert star.crossing_sum(cut) == 3.0
        assert value <= star.total()


class TestCostCertificate:
    @pytest.mark.parametrize("label", [FamilyLabel.RHO_PLUS, FamilyLabel.SIGMA_MINUS])
    def test_exact_four_qubits(self, label):
        certificate, ensemble, transcript = cost_certificate(4, label)
        assert certificate.lower_bound == pytest.approx(2.0, abs=1e-9)
        assert certificate.achieved == 2
        assert certificate.exact
        assert certificate.witness_weights.total() == pytest.approx(2.0, abs=1e-9)
        assert certificate.protocol_transcript_id == transcript.transcript_id
        assert ensemble.singlets_used == 2
        assert trace_distance(ensemble.mixed, build_family(4, label)) < 1e-12

    def test_exact_six_qubits(self):
        certificate, ensemble, _ = cost_certificate(6, FamilyLabel.RHO_PLUS)
        assert certificate.lower_bound == pytest.approx(3.0, abs=1e-9)
        assert certificate.achieved == 3
        assert certificate.exact
        assert trace_distance(ensemble.mixed, build_family(6, FamilyLabel.RHO_PLUS)) < 1e-12

    def test_one_activation_per_protocol_pair(self, monkeypatch):
        # each pair's activation leaves a Bell pair across both of its parties'
        # single-party cuts, so the N pairs the protocol spends cover all 2N cuts;
        # one call distills across all of them
        calls = []
        genuine = certify.activation_distill

        def spy(rho, label, pairs, supports):
            calls.append(list(pairs))
            return genuine(rho, label, pairs, supports)

        monkeypatch.setattr(certify, "activation_distill", spy)
        _, _, transcript = cost_certificate(6, FamilyLabel.RHO_PLUS)
        assert calls == [[(1, 2), (3, 4), (5, 6)]]
        assert tuple(calls[0]) == transcript.pairing
        assert sorted(q for pair in calls[0] for q in pair) == list(range(1, 7))

    def test_sampled_mode_still_counts_singlets(self):
        certificate, _, _ = cost_certificate(4, FamilyLabel.RHO_MINUS, mode="sampled",
                                             seed=3, samples=50)
        assert certificate.achieved == 2
        assert certificate.exact
