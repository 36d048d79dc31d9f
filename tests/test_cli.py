"""Command-line behavior: formats, determinism, exit codes, failure injection."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcabe.certify as certify
import bcabe.cli as cli
import bcabe.cuts as cuts
import bcabe.protocol as protocol
import bcabe.states as states
import bcabe.tensor as tensor
from bcabe.cli import main, write_state_file
from bcabe.states import FamilyLabel, build_family
from bcabe.tensor import DensityMatrix

from oracles import read_state_file, x_density

SRC = Path(__file__).resolve().parent.parent / "src"

def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _payload(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "header"}
    return json.dumps(body, sort_keys=True)


def _count_calls(monkeypatch, names) -> dict[str, int]:
    """Count calls to the named bcabe.states, bcabe.cuts or bcabe.tensor functions.

    Each function is replaced in every module binding it.
    """
    calls = dict.fromkeys(names, 0)
    modules = [m for name, m in list(sys.modules.items())
               if name == "bcabe" or name.startswith("bcabe.")]
    for name in calls:
        original = next(getattr(m, name) for m in (states, cuts, tensor) if hasattr(m, name))

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls


# sha256 of the report without its header (json.dumps sort_keys=True, indent=2), numpy 2.4.6
VERIFY_PAYLOAD_SHA256 = {
    4: "ecb52f5e3cd12686937cbc96be66b9b7173f0fbd2dd69f0b306b6af26bfcc142",
    6: "38d6c05714c9af3d78922e51ae667de0c06fc93a5cc32a0777fa6ed068774388",
    8: "a19dbb4c04cf2114f5513b7055e51aa9f8b4d54c78963e6c3c083f5000f2c700",
}

# the same digest of every cuts report; the size-8 values are the benchmark's per-op digests
CUTS_PAYLOAD_SHA256 = {
    (4, "rho+"): "4053967bbb0457c2f028f11b0e696ee64b30c6c52bfe8a3c87292ed3d4b3d75a",
    (4, "rho-"): "d3e60343c9a9b2e31ca2c87ae9762053efa7441a225c507976dcfa5ff12e2524",
    (4, "sigma+"): "c7c0724280136a556d88d3f5084afa877f65ec295d31f727074dccc1ca1e5604",
    (4, "sigma-"): "6f3e2b92e4c53859670825895aff6b8dac9b913cb6af87d1236962db42109120",
    (6, "rho+"): "bf2e21d67e6b19f12948248f9f7630b009147dcbcb55014aedc0151ba2e5b9f7",
    (6, "rho-"): "a28d7a4c17a16f7403458acf28d4f507d9ebb2dfe7cc92095a7b26a48c74fe5e",
    (6, "sigma+"): "ac1752fdb37ebecf789cd42eb5e5a8524d6794c3ddb2b099c8250a3fb7ffc9b0",
    (6, "sigma-"): "8b558ba22b42454d368c73195649a84b72101124d8f85faaee786464e158918e",
    (8, "rho+"): "17b18227ddae8073ecb895086e6d913b8ab403f969ce5d0cfbf28f1ab3ac8fd0",
    (8, "rho-"): "1a270be208753a73f48a138889084bf5f430ffabc8e2d2d914d5501b98df7897",
    (8, "sigma+"): "baacae718d0b473dc6ccc0bf11efd4ebd549f62230ff612051dad5adc5563fb4",
    (8, "sigma-"): "54d79658c578223570a968d026fefe7544b9caf9eb89f5e718449943ca8e909f",
}


def _digest(path) -> str:
    body = {k: v for k, v in _load(path).items() if k != "header"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest()


class TestStateFiles:
    def test_density_roundtrip_bit_exact(self, tmp_path):
        rho = build_family(4, FamilyLabel.SIGMA_MINUS)
        path = tmp_path / "state.json"
        write_state_file(path, rho)
        back = read_state_file(path)
        assert isinstance(back, DensityMatrix)
        assert np.array_equal(back.entries, rho.entries)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"qubits": 2, "kind": "density", "data": [[1.0, 0.0]]}))
        with pytest.raises(ValueError):
            read_state_file(path)

    def test_state_command(self, tmp_path):
        out = tmp_path / "rho.json"
        assert main(["state", "--size", "4", "--family", "rho+", "--out", str(out)]) == 0
        rho = read_state_file(out)
        assert np.array_equal(rho.entries, build_family(4, FamilyLabel.RHO_PLUS).entries)

    # sha256 of the file `bcabe state --size 4 --family F` writes, recorded from the dense build
    STATE_FILE_SHA256 = {
        "rho+": "4bec8f8dd507c9eb2ca4605f2a5e34f96064006e1df28fc427c5b8ff88883a6f",
        "rho-": "323369c03485ab71869df3b3bddf0fb87caf82f8363b14ec317961925597b50d",
        "sigma+": "d306a329e837746d51c9061b1e8442eb98af59129c4464ee0f210056e8c8a41a",
        "sigma-": "8b129d2b148d8b45e8c0f96e91197b74de3bd7477d29fd73b4cd3afd6f55dbf0",
    }

    @pytest.mark.parametrize("family", sorted(STATE_FILE_SHA256))
    def test_state_file_pinned(self, family, tmp_path):
        out = tmp_path / "state.json"
        assert main(["state", "--size", "4", "--family", family, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.STATE_FILE_SHA256[family]


class TestVerifyCommand:
    def test_passes_at_four(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--size", "4", "--out", str(out)]) == 0
        report = _load(out)
        assert report["passed"] is True
        names = [c["check"] for c in report["checks"]]
        assert "recursion-max-distance" in names
        assert "doubled-bell-mixture-distance" in names
        assert all(c["passed"] for c in report["checks"])
        assert len(report["results"]["pauli_connections"]) == 12

    def test_passes_at_six(self, tmp_path):
        out = tmp_path / "verify6.json"
        assert main(["verify", "--size", "6", "--out", str(out)]) == 0
        report = _load(out)
        # the doubled-Bell comparison only applies to the four-qubit member
        assert "doubled-bell-mixture-distance" not in [c["check"] for c in report["checks"]]

    @pytest.mark.parametrize("size", sorted(VERIFY_PAYLOAD_SHA256))
    def test_payload_pinned(self, size, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--size", str(size), "--out", str(out)]) == 0
        assert _digest(out) == VERIFY_PAYLOAD_SHA256[size]

    @pytest.mark.parametrize("size", [4, 6])
    def test_builds_each_family_once(self, size, tmp_path, monkeypatch):
        # four families at the size, shared by every check, and for the recursion four at
        # the size below and the four Bell projectors, the families at size 2: at size 4
        # those are the same four, and the doubled-Bell reference builds them again
        calls = _count_calls(monkeypatch, ["build_family"])
        assert main(["verify", "--size", str(size), "--out", str(tmp_path / "verify.json")]) == 0
        assert calls == {"build_family": 12}

    @pytest.mark.parametrize("size", [4, 6, 8])
    def test_makes_no_dense_call(self, size, tmp_path, monkeypatch):
        # every check reads the states' two diagonals: no conjugation, no dense distance,
        # no eigensolve
        calls = _count_calls(monkeypatch, ["apply_unitary_on_subset", "trace_distance"])
        eigensolves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigensolves.append(m) or eigvalsh(m))
        assert main(["verify", "--size", str(size), "--out", str(tmp_path / "verify.json")]) == 0
        assert calls == {"apply_unitary_on_subset": 0, "trace_distance": 0}
        assert eigensolves == []

    def test_tampered_state_fails(self, tmp_path, monkeypatch):
        # the one build reaches every check: the recursion target, the Pauli images
        # and the doubled-Bell comparison all see the drift; the drifted state is
        # still permutation invariant
        genuine = build_family(4, FamilyLabel.RHO_PLUS)
        drifted = x_density(0.9 * genuine.entries + 0.1 * np.eye(16) / 16)

        def tampered(two_n, label):  # the size-2 Bell projectors stay genuine
            if (two_n, label) == (4, FamilyLabel.RHO_PLUS):
                return drifted
            return build_family(two_n, label)

        monkeypatch.setattr(cli, "build_family", tampered)
        out = tmp_path / "verify.json"
        assert main(["verify", "--size", "4", "--out", str(out)]) == 1
        report = _load(out)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["check"] for c in failed] == ["recursion-max-distance",
                                                "pauli-connections-missing",
                                                "doubled-bell-mixture-distance"]


class TestCutsCommand:
    def test_four_qubit_report(self, tmp_path):
        out = tmp_path / "cuts.json"
        assert main(["cuts", "--size", "4", "--family", "sigma+", "--out", str(out)]) == 0
        rows = _load(out)["results"]["cuts"]
        assert len(rows) == 7
        asserted_npt = [r for r in rows if r["asserted"] == "NPT"]
        asserted_ppt = [r for r in rows if r["asserted"] == "PPT"]
        assert len(asserted_npt) == 4 and len(asserted_ppt) == 3
        assert all(r["classification"] == r["asserted"] for r in rows)

    def test_six_qubit_unasserted_layer(self, tmp_path):
        out = tmp_path / "cuts6.json"
        assert main(["cuts", "--size", "6", "--family", "rho+", "--out", str(out)]) == 0
        rows = _load(out)["results"]["cuts"]
        assert len(rows) == 31
        free = [r for r in rows if r["asserted"] is None]
        assert len(free) == 10    # the balanced 3:3 layer carries no assertion
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("size, family", sorted(CUTS_PAYLOAD_SHA256))
    def test_payload_pinned(self, size, family, tmp_path):
        out = tmp_path / "cuts.json"
        assert main(["cuts", "--size", str(size), "--family", family, "--out", str(out)]) == 0
        assert _digest(out) == CUTS_PAYLOAD_SHA256[size, family]

    def test_repeated_op_reads_the_shared_table(self, tmp_path):
        # the second op in a process takes its cuts from the table the first one built
        cuts._cut_layer.cache_clear()
        payloads = []
        for run in ("first", "second"):
            out = tmp_path / f"{run}.json"
            assert main(["cuts", "--size", "8", "--family", "sigma-", "--out", str(out)]) == 0
            payloads.append(_payload(_load(out)))
        assert payloads[0] == payloads[1]
        assert cuts._cut_layer.cache_info().hits == 7

    def test_import_builds_no_cut_table(self):
        # the table is built on first use, so a fresh interpreter's import pays nothing for it
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        probe = "import bcabe.cli, bcabe.cuts; print(bcabe.cuts._cut_layer.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True)
        assert run.stdout.strip() == "0"

    def test_ops_import_no_numpy_module(self, tmp_path):
        # what an op imports lazily adds to its memory peak: a cuts and an exact certify op,
        # run after the import, must import no numpy module (np.unique's numpy.ma, say)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        probe = ("import sys, bcabe.cli; before = set(sys.modules); "
                 f"cuts = bcabe.cli.main(['cuts', '--size', '8', '--out', {str(tmp_path / 'c.json')!r}]); "
                 f"cert = bcabe.cli.main(['certify', '--size', '6', '--out', {str(tmp_path / 'e.json')!r}]); "
                 "print(cuts, cert, *sorted(set(sys.modules) - before))")
        run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True)
        codes, new = run.stdout.split()[:2], run.stdout.split()[2:]
        assert codes == ["0", "0"]
        assert [name for name in new if name.split(".")[0] == "numpy"] == []

    def test_reads_every_cut_in_one_call(self, tmp_path, monkeypatch):
        # one analyze_cut call for all 31 cuts, which the benchmark's cuts span counts
        calls = _count_calls(monkeypatch, ["analyze_cut", "build_family"])
        assert main(["cuts", "--size", "6", "--out", str(tmp_path / "cuts6.json")]) == 0
        assert calls == {"analyze_cut": 1, "build_family": 1}


class TestCertifyCommand:
    @pytest.mark.parametrize("size", [4, 6, 8])
    @pytest.mark.parametrize("family", ["rho+", "rho-", "sigma+", "sigma-"])
    def test_exact_makes_no_dense_call(self, size, family, tmp_path, monkeypatch):
        # the exact mixture is the family, kept on its X like the target: its validation
        # and the distance read the two diagonals, with no dense distance and no eigensolve
        calls = _count_calls(monkeypatch, ["trace_distance"])
        eigensolves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigensolves.append(m) or eigvalsh(m))
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", str(size), "--family", family, "--out", str(out)]) == 0
        assert calls == {"trace_distance": 0}
        assert eigensolves == []

    def test_exact_payload_independent_of_blas_threads(self, tmp_path):
        # the exact mixture is summed in integers and its distance read on the X, so no
        # payload bit depends on the BLAS summation order or thread count
        texts = []
        for threads in ("1", "2"):
            run = tmp_path / f"threads{threads}"
            run.mkdir()
            env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
            subprocess.run([sys.executable, "-m", "bcabe.cli", "certify", "--size", "8",
                            "--family", "rho+", "--out", "cert8.json"],
                           cwd=run, env=env, check=True, capture_output=True)
            texts.append((_payload(_load(run / "cert8.json")),
                          (run / "cert8.json.transcript").read_bytes()))
        assert texts[0] == texts[1]

    def test_dropped_tape_weight_fails_the_distance_check(self, tmp_path, monkeypatch, capsys):
        # negative control for the X path: an exact run that loses one tape's weight mixes
        # the other K - 1 tapes, whose products leave nonzero integers off the X, so the
        # mixture comes out dense and the distance check fails, by 1/K
        genuine = np.bincount

        def bincount(x, minlength=0):
            counts = genuine(x, minlength=minlength)
            counts[-1] = 0
            return counts

        monkeypatch.setattr(np, "bincount", bincount)
        ensemble, _ = protocol.prepare_bcabe(4, FamilyLabel.RHO_PLUS)
        assert ensemble.mixed.x_parts is None
        off_x, k = ensemble.mixed.entries.copy(), np.arange(16)
        off_x[k, k] = off_x[k, k[::-1]] = 0
        assert np.count_nonzero(off_x) > 0
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", "4", "--family", "rho+", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        check = _load(out)["checks"][1]
        assert (check["check"], check["passed"]) == ("prepared-state-distance", False)
        assert check["measured"] == pytest.approx(0.25, abs=1e-12)

    def test_exact_four(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", "4", "--family", "rho+",
                     "--out", str(out)]) == 0
        report = _load(out)
        # exact mode reads neither value, but the payload keeps the defaults
        assert report["parameters"] == {"size": 4, "family": "rho+", "mode": "exact",
                                        "seed": 0, "samples": 10000}
        results = report["results"]
        assert results["lower_bound"] == 2.0
        assert results["achieved"] == 2
        assert results["exact"] is True
        assert results["prepared_state_distance"] < 1e-12
        transcript_path = results["transcript_path"]
        assert transcript_path.endswith(".transcript")
        with open(transcript_path) as fh:
            header = json.loads(fh.readline())
        assert header["num_parties"] == 4

    def test_sampled_smoke(self, tmp_path):
        out = tmp_path / "cert-sampled.json"
        code = main(["certify", "--size", "4", "--family", "rho-", "--mode", "sampled",
                     "--seed", "5", "--samples", "64", "--tolerance", "1.0",
                     "--out", str(out)])
        assert code == 0
        results = _load(out)["results"]
        assert results["achieved"] == 2 and results["exact"] is True

    @pytest.mark.parametrize("seed, distance", [(0, 0.0750), (1, 0.0674), (2, 0.0541)])
    def test_sampled_threshold_derived_from_size_and_samples(self, seed, distance, tmp_path):
        # 2,000 runs over K = 64 tapes: these distances are sampling noise, and each failed
        # the fixed threshold 0.05 that preceded the derived one
        out = tmp_path / "cert8s.json"
        assert main(["certify", "--size", "8", "--family", "rho+", "--mode", "sampled",
                     "--samples", "2000", "--seed", str(seed), "--out", str(out)]) == 0
        check = _load(out)["checks"][1]
        assert check["check"] == "prepared-state-distance"
        assert check["threshold"] == cli.sampled_threshold(8, 2000)
        assert round(check["threshold"], 4) == 0.1206
        assert check["measured"] == pytest.approx(distance, abs=5e-5)

    def test_sampled_distance_of_twice_the_threshold_fails(self, tmp_path, monkeypatch):
        eps = cli.sampled_threshold(6, 500)
        monkeypatch.setattr(cli, "trace_distance", lambda a, b: 2 * eps)
        out = tmp_path / "cert6s.json"
        assert main(["certify", "--size", "6", "--family", "sigma-", "--mode", "sampled",
                     "--samples", "500", "--out", str(out)]) == 1
        check = _load(out)["checks"][1]
        assert (check["measured"], check["threshold"], check["passed"]) == (2 * eps, eps, False)

    @pytest.mark.parametrize("size, fewest", [(4, 9), (6, 13), (8, 30)])
    def test_run_count_whose_check_cannot_fail_refused(self, size, fewest, tmp_path, capsys):
        # below the fewest runs the derived threshold is at least 1, which no trace distance
        # exceeds; an explicit --tolerance still lets such a run go ahead
        assert cli.sampled_threshold(size, fewest - 1) >= 1 > cli.sampled_threshold(size, fewest)
        base = ["certify", "--size", str(size), "--mode", "sampled", "--samples"]
        with pytest.raises(SystemExit) as exc:
            main(base + [str(fewest - 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"give at least {fewest} runs" in err and "Traceback" not in err
        assert main(base + [str(fewest), "--out", str(tmp_path / "fewest.json")]) == 0
        assert _load(tmp_path / "fewest.json")["checks"][1]["threshold"] < 1
        assert main(base + [str(fewest - 1), "--tolerance", "0.5",
                            "--out", str(tmp_path / "given.json")]) in (0, 1)
        assert _load(tmp_path / "given.json")["checks"][1]["threshold"] == 0.5

    def test_given_tolerance_wins(self, tmp_path):
        out = tmp_path / "cert8s.json"
        assert main(["certify", "--size", "8", "--family", "rho+", "--mode", "sampled",
                     "--samples", "2000", "--seed", "0", "--tolerance", "0.05",
                     "--out", str(out)]) == 1
        assert _load(out)["checks"][1]["threshold"] == 0.05

    def test_builds_family_and_supports_once(self, tmp_path, monkeypatch):
        # the cut scan, every activation and the distance check share one build
        calls = _count_calls(monkeypatch, ["build_family", "family_support_projector"])
        out = tmp_path / "cert6.json"
        assert main(["certify", "--size", "6", "--family", "sigma+", "--out", str(out)]) == 0
        assert calls == {"build_family": 1, "family_support_projector": 4}

    def test_bounds_over_the_scanned_cuts(self, tmp_path, monkeypatch):
        # the LP gets exactly the cuts the scan proved NPT, in scan order, and the
        # single-party cuts are enumerated once
        scanned, bounded, enumerated = [], [], []
        genuine_scan, genuine_bound = certify.npt_one_vs_rest_scan, certify.lp_lower_bound
        genuine_enumerate = cuts.enumerate_cuts

        def scan(rho):
            reports = genuine_scan(rho)
            scanned.append([r.cut for r in reports])
            return reports

        def bound(num_parties, cut_list):
            bounded.append((num_parties, list(cut_list)))
            return genuine_bound(num_parties, cut_list)

        def enumerate_cuts(*args, **kwargs):
            enumerated.append((args, kwargs))
            return genuine_enumerate(*args, **kwargs)

        monkeypatch.setattr(certify, "npt_one_vs_rest_scan", scan)
        monkeypatch.setattr(certify, "lp_lower_bound", bound)
        monkeypatch.setattr(cuts, "enumerate_cuts", enumerate_cuts)
        out = tmp_path / "cert6.json"
        assert main(["certify", "--size", "6", "--family", "rho+", "--out", str(out)]) == 0
        assert len(scanned) == 1 and len(bounded) == 1
        num_parties, cut_list = bounded[0]
        assert num_parties == 6
        assert len(cut_list) == 6 and all(a is b for a, b in zip(cut_list, scanned[0], strict=True))
        assert [c.side_a for c in cut_list] == [(1,)] + [
            tuple(q for q in range(1, 7) if q != k) for k in range(6, 1, -1)]
        assert enumerated == [((6,), {"side_size": 1})]

    def test_inexact_certificate_fails(self, tmp_path, monkeypatch):
        genuine = cli.cost_certificate

        def doctored(two_n, label, mode="exact", seed=0, samples=10000):
            certificate, ensemble, transcript = genuine(two_n, label, mode=mode,
                                                        seed=seed, samples=samples)
            broken = dataclasses.replace(certificate, lower_bound=certificate.lower_bound + 1.0,
                                         exact=False)
            return broken, ensemble, transcript

        monkeypatch.setattr(cli, "cost_certificate", doctored)
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", "4", "--family", "rho+", "--out", str(out)]) == 1
        assert _load(out)["passed"] is False

    def test_failed_step_exits_one_without_traceback(self, tmp_path, monkeypatch, capsys):
        # a RuntimeError from the certificate (here a skewed activation) is a failed
        # check: exit 1 and one stderr line naming the step, not a traceback
        genuine = certify.activation_distill

        def skewed(*args):
            return {pair: {f: dataclasses.replace(o, probability=0.3) for f, o in outcomes.items()}
                    for pair, outcomes in genuine(*args).items()}

        monkeypatch.setattr(certify, "activation_distill", skewed)
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", "4", "--family", "rho+", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "activation across pair (1, 2)" in err and "0.3" in err
        assert not out.exists()


    def test_failed_protocol_run_exits_one_without_traceback(self, tmp_path, monkeypatch, capsys):
        # a doctored fix (phi-'s sign left out) fails the protocol run's own check on its
        # teleport branches
        fixes = list(protocol._FIXES)
        fixes[1] = (0, 0)
        monkeypatch.setattr(protocol, "_FIXES", fixes)
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", "4", "--family", "rho+", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "certify failed: the teleport branches of pair (1, 2) differ\n"
        assert not out.exists()

FAMILIES = ("rho+", "rho-", "sigma+", "sigma-")
WRITTEN_REPORTS = ([["cuts", "--size", str(size), "--family", f] for size in (4, 6, 8) for f in FAMILIES]
                   + [["verify", "--size", str(size)] for size in (4, 6, 8)]
                   + [["certify", "--size", str(size), "--family", f] for size in (4, 6) for f in FAMILIES])

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from([-0.0, 5e-324, 1e16, float("nan"), float("-inf")])
           | st.text() | st.sampled_from(["\n", "\x00\x1f\x7f", "é€😀", "}\n{", '"\\', ""]))
keys = st.text(max_size=6) | st.sampled_from(["cut", "passed", "\n", "é"])
rows = st.dictionaries(keys, scalars, max_size=6)
tables = st.lists(rows, max_size=5)
payloads = st.dictionaries(
    keys, scalars | rows | tables | st.dictionaries(keys, tables | rows | scalars, max_size=3),
    max_size=5)


class TestReportWriter:
    # the writer must give json.dumps(report, sort_keys=True, indent=2) + "\n" byte for byte

    @pytest.mark.parametrize("argv", WRITTEN_REPORTS, ids=" ".join)
    def test_every_written_report(self, argv, tmp_path):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_stdout_report(self, capsys):
        assert main(["cuts", "--size", "4", "--family", "sigma-"]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(payloads)
    def test_flat_rows(self, payload):
        # None, bools, ints, signed zeros, subnormals, large and non-finite floats, non-ASCII
        # and control-character strings, empty lists and dicts, at every nesting the reports use
        with contextlib.redirect_stdout(io.StringIO()) as written:
            cli._write_report(None, payload)
        text = written.getvalue()
        report = {"header": json.loads(text)["header"], **payload}
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestDeterminismAndExitCodes:
    def test_reports_byte_identical_without_header(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--size", "4", "--out", str(first)]) == 0
        assert main(["verify", "--size", "4", "--out", str(second)]) == 0
        assert _payload(_load(first)) == _payload(_load(second))

    def test_certify_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            assert main(["certify", "--size", "4", "--family", "sigma-",
                         "--out", str(path)]) == 0
        a, b = _load(first), _load(second)
        # transcript paths differ by construction; everything else matches
        for report, path in ((a, first), (b, second)):
            assert report["results"].pop("transcript_path") == str(path) + ".transcript"
        assert _payload(a) == _payload(b)

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["state", "--size", "3", "--family", "rho+", "--out", "/tmp/x"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["cuts", "--size", "4", "--family", "tau+"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--size", "10"])
        assert exc.value.code == 2

    def test_usage_error_leaves_parser_intact(self, tmp_path):
        # the parser is built once per process; a refused call must not leak into the next
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--size", "4", "--seed", "3"])
        assert exc.value.code == 2
        out = tmp_path / "cert.json"
        assert main(["certify", "--size", "4", "--family", "rho-", "--out", str(out)]) == 0
        assert _load(out)["parameters"] == {"size": 4, "family": "rho-", "mode": "exact",
                                            "seed": 0, "samples": 10000}
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("option, value", [
        ("--samples", "0"), ("--samples", "-3"), ("--samples", "ten"), ("--seed", "-1"),
        ("--tolerance", "inf"), ("--tolerance", "nan"), ("--tolerance", "0"),
        ("--tolerance", "-1"),
    ])
    def test_bad_sampled_arguments_exit_two(self, option, value, capsys):
        # refused while parsing, before any cut scan or protocol run
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--size", "4", "--mode", "sampled", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--mode", "exact"]])
    @pytest.mark.parametrize("option, value", [
        ("--seed", "0"), ("--samples", "10000"), ("--tolerance", "0.05"),
    ])
    def test_sampled_arguments_refused_in_exact_mode(self, option, value, mode, capsys):
        # exact mode would ignore them, so even their default values are refused
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--size", "4"] + mode + [option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{option}: only with --mode sampled" in err and "Traceback" not in err

    def test_io_error_exit_three(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "out.json"
        assert main(["state", "--size", "4", "--family", "rho+", "--out", str(missing)]) == 3
