import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from facetor.cli import main
from facetor.taylor import taylor_complex

from helpers import RP2_FACETS

FIG1_DOC = {"m": 5, "complement": [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]]}
EX513_DOC = {"m": 6, "complement": [[1, 2], [3, 4], [5, 6]]}


def _cycle_doc(n: int) -> dict:
    return {"m": n, "facets": [[i, i % n + 1] for i in range(1, n + 1)]}


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(FIG1_DOC))
    return str(path)


@pytest.fixture
def ex513_path(tmp_path):
    path = tmp_path / "ex513.json"
    path.write_text(json.dumps(EX513_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestZk:
    def test_pentagon_series_text(self, capsys, fig1_path):
        code, out, _ = run(capsys, "zk", fig1_path)
        assert code == 0
        assert out == "1 + 2x^3 + 2x^5 + 5x^6 + 2x^7 (total 12)\n"

    def test_octahedron_series_text(self, capsys, ex513_path):
        code, out, _ = run(capsys, "zk", ex513_path)
        assert code == 0
        assert out == "1 + 3x^3 + 3x^6 + x^9 (total 8)\n"

    def test_json_schema(self, capsys, fig1_path):
        code, out, _ = run(capsys, "zk", fig1_path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "zk"
        assert doc["series"] == [[0, 1], [3, 2], [5, 2], [6, 5], [7, 2]]
        assert doc["total"] == 12

    def test_deterministic(self, capsys, fig1_path):
        _, out1, _ = run(capsys, "zk", fig1_path, "--json")
        _, out2, _ = run(capsys, "zk", fig1_path, "--json")
        assert out1 == out2


class TestTor:
    def test_table(self, capsys, fig1_path):
        code, out, _ = run(capsys, "tor", fig1_path)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q=0 sigma={} deg=0 rank=1"
        assert "q=3 sigma={1,2,3,4,5} deg=7 rank=2" in lines
        assert lines[-1] == "total rank 12"

    def test_json_blocks(self, capsys, fig1_path):
        code, out, _ = run(capsys, "tor", fig1_path, "--json")
        doc = json.loads(out)
        assert doc["total_rank"] == 12
        top = [b for b in doc["blocks"] if b["sigma"] == [1, 2, 3, 4, 5]]
        assert top == [{"q": 3, "sigma": [1, 2, 3, 4, 5], "deg": 7, "rank": 2, "torsion": []}]

    def test_facets_input(self, capsys, tmp_path):
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"m": 3, "facets": [[1, 2, 3]]}))
        code, out, _ = run(capsys, "tor", str(path))
        assert code == 0
        assert out == "q=0 sigma={} deg=0 rank=1\ntotal rank 1\n"

    def test_integer_coefficients(self, capsys, tmp_path):
        from helpers import RP2_FACETS

        path = tmp_path / "rp2.json"
        path.write_text(json.dumps({"m": 6, "facets": RP2_FACETS}))
        code, out, _ = run(capsys, "tor", str(path), "--coeff", "z", "--json")
        assert code == 0
        doc = json.loads(out)
        torsion_blocks = [b for b in doc["blocks"] if b["torsion"]]
        assert {"q": 3, "sigma": [1, 2, 3, 4, 5, 6], "deg": 9, "rank": 0, "torsion": [2]} in torsion_blocks


class TestRing:
    def test_pentagon_products(self, capsys, fig1_path):
        code, out, _ = run(capsys, "ring", fig1_path)
        assert code == 0
        assert "basis (rank 12):" in out
        assert "[s1] * [s2] = s1*s2" in out
        product_lines = [
            l for l in out.splitlines() if l.startswith("  [") and "] * [" in l
        ]
        assert len(product_lines) == 1

    def test_integer_coefficients_rejected(self, capsys, fig1_path):
        with pytest.raises(SystemExit) as err:
            main(["ring", fig1_path, "--coeff", "z"])
        assert err.value.code == 2
        # so the help offers only the fields
        with pytest.raises(SystemExit):
            main(["ring", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "coefficients: q (rationals), f:<p> (prime field)" in help_text
        assert "z (integers)" not in help_text


class TestStarLink:
    def test_link_of_vertex(self, capsys, ex513_path):
        code, out, _ = run(capsys, "link", ex513_path, "--omega", "1")
        assert code == 0
        assert out.splitlines()[0] == "link of {1}: facets {3,5}, {3,6}, {4,5}, {4,6}"

    def test_star_of_nonface_is_void(self, capsys, ex513_path):
        code, out, _ = run(capsys, "star", ex513_path, "--omega", "1,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "star of {1,2}: void complex"
        assert lines[-1] == "total rank 0"

    def test_star_tor_table(self, capsys, ex513_path):
        code, out, _ = run(capsys, "star", ex513_path, "--omega", "1", "--json")
        doc = json.loads(out)
        assert doc["void"] is False
        assert doc["tor"]["total_rank"] == 8

    def test_bad_omega(self, capsys, ex513_path):
        code, _, err = run(capsys, "star", ex513_path, "--omega", "1,9")
        assert code == 2
        assert "omega" in err

    def test_link_presentation_is_minimal_before_the_cap(self, capsys, tmp_path):
        # 24 two-element members: compressing by {8} and adding the vertex
        # gives 25 members, past the cap of 24, but only 10 are minimal
        members = [[i, j] for i in range(1, 8) for j in range(i + 1, 8)] + [[1, 8], [2, 8], [3, 8]]
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({"m": 8, "complement": members}))
        for flags, digest in [
            ((), "0371b73e69e0f8eb37e5ad282d173169985b084bedb37271eadbcccc946327be"),
            (("--json",), "c215199604cc389eaa404d686553eacf234893f93469abf093cc80daff01ca0b"),
        ]:
            code, out, err = run(capsys, "link", str(path), "--omega", "8", *flags)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            if not flags:
                assert out.splitlines()[0] == "link of {8}: facets {4}, {5}, {6}, {7}"
                assert out.endswith("total rank 288\n")


class TestMaz:
    def test_preset_s2s1(self, capsys, ex513_path):
        code, out, _ = run(capsys, "maz", ex513_path, "--preset", "s2s1")
        assert code == 0
        assert out == (
            "1 + 6x^2 + 9x^3 + 12x^4 + 36x^5 + 35x^6 + 36x^7 + 54x^8 + 27x^9 (total 216)\n"
        )

    def test_preset_d2s1_matches_zk(self, capsys, fig1_path):
        code, out, _ = run(capsys, "maz", fig1_path, "--preset", "d2s1")
        assert code == 0
        assert out == "1 + 2x^3 + 2x^5 + 5x^6 + 2x^7 (total 12)\n"

    def test_pairs_document(self, capsys, tmp_path, ex513_path):
        pairs = [{"X": [[2, 1]], "A": [[1, 1]]} for _ in range(6)]
        ppath = tmp_path / "pairs.json"
        ppath.write_text(json.dumps(pairs))
        code, out, _ = run(capsys, "maz", ex513_path, "--pairs", str(ppath))
        assert code == 0
        assert "(total 216)" in out

    def test_missing_spec(self, capsys, ex513_path):
        code, _, err = run(capsys, "maz", ex513_path)
        assert code == 2
        assert "pairs" in err or "preset" in err

    def test_preset_choices_and_conflicts(self, capsys, tmp_path, ex513_path):
        with pytest.raises(SystemExit) as err:
            main(["maz", ex513_path, "--preset", "s3s1"])
        assert err.value.code == 2
        assert "invalid choice: 's3s1' (choose from 's2s1', 'd2s1')" in capsys.readouterr().err
        ppath = tmp_path / "pairs.json"
        ppath.write_text(json.dumps([{"X": [[2, 1]], "A": []}] * 6))
        code, out, err = run(capsys, "maz", ex513_path, "--preset", "d2s1", "--pairs", str(ppath))
        assert (code, out, err) == (2, "", "input error: use either --pairs or --preset, not both\n")
        with pytest.raises(SystemExit):
            main(["maz", "--help"])
        assert "--preset {s2s1,d2s1}" in capsys.readouterr().out

    def test_bad_pairs_degree(self, capsys, tmp_path, ex513_path):
        pairs = [{"X": [[0, 1]], "A": []} for _ in range(6)]
        ppath = tmp_path / "pairs.json"
        ppath.write_text(json.dumps(pairs))
        code, _, err = run(capsys, "maz", ex513_path, "--pairs", str(ppath))
        assert code == 2
        assert "degree" in err

    @pytest.mark.parametrize("key", ["X", "A"])
    def test_repeated_pairs_degree(self, capsys, tmp_path, key):
        # a repeated degree is an input error, not a silent last-one-wins:
        # [[2, 1], [2, 1]] used to read as [[2, 1]]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"m": 2, "complement": [[1, 2]]}))
        pairs = [{"X": [[2, 1]], "A": [[1, 1]]} for _ in range(2)]
        pairs[0][key] = [[2, 1], [3, 1], [2, 1]]
        ppath = tmp_path / "pairs.json"
        ppath.write_text(json.dumps(pairs))
        code, out, err = run(capsys, "maz", str(path), "--pairs", str(ppath))
        assert code == 2
        assert out == ""
        assert f"pairs[0].{key}[2]" in err and "repeated" in err

    def test_shape_checked_before_values(self, capsys, tmp_path):
        # the document's shape is read whole before PairSpec checks the
        # values, so a later malformed pair is named ahead of a bad degree
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"m": 2, "complement": [[1, 2]]}))
        ppath = tmp_path / "pairs.json"
        ppath.write_text(json.dumps([{"X": [[0, 1]], "A": []}, {"X": [], "A": [[1]]}]))
        code, out, err = run(capsys, "maz", str(path), "--pairs", str(ppath))
        assert (code, out) == (2, "")
        assert "pairs[1].A[0]: expected [degree, rank]" in err


class TestCompress:
    def test_document_round_trip(self, capsys, fig1_path):
        code, out, _ = run(capsys, "compress", fig1_path, "--omega", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"m": 5, "complement": [[5], [2, 4], [2, 3], [3, 4, 5]]}

    def test_empty_member_survives(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"m": 2, "complement": [[1, 2]]}))
        code, out, _ = run(capsys, "compress", str(path), "--omega", "1,2")
        assert code == 0
        assert json.loads(out) == {"m": 2, "complement": [[]]}


class TestVerify:
    def test_file_mode_passes(self, capsys, fig1_path):
        code, out, _ = run(capsys, "verify", fig1_path)
        assert code == 0
        assert "0 failed" in out
        assert out.count("PASS") >= 11

    def test_all_sigma_sweep(self, capsys, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"m": 3, "complement": [[1, 2], [2, 3]]}))
        code, out, _ = run(capsys, "verify", str(path), "--all-sigma", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert doc["checked"] > 8

    def test_random_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "--trials", "5", "--seed", "3")
        assert code == 0
        assert "5 trials" in out

    def test_random_options_have_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for line in (
            "--trials TRIALS --random only: number of trials, >= 0 (default 50)",
            "--seed SEED --random only: seed of the trial stream (default 0)",
            "--max-m MAX_M --random only: most vertices per trial, 1..24 (default 6)",
            "--max-s MAX_S --random only: most members per trial, 0..24 (default 4)",
        ):
            assert line in help_text

    def test_random_mode_honours_all_sigma(self, capsys):
        argv = ("verify", "--random", "--trials", "3", "--seed", "1")
        code, out, _ = run(capsys, *argv)
        code_all, out_all, _ = run(capsys, *argv, "--all-sigma")
        assert (code, code_all) == (0, 0)
        assert out.endswith("random sweep: 3 trials, 28 blocks, 0 failures\n")
        assert out_all.endswith("random sweep: 3 trials, 79 blocks, 0 failures\n")

    def test_random_mode_json(self, capsys):
        # the JSON summary counts what the text summary reads
        code, out, _ = run(capsys, "verify", "--random", "--trials", "3", "--seed", "1", "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "verify",
            "mode": "random",
            "trials": 3,
            "seed": 1,
            "checked": 28,
            "failed": 0,
        }

    def test_random_mode_failure(self, capsys, monkeypatch):
        # one failing block planted in the first trial fails that trial
        # alone, and the sweep exits 4
        import facetor.cli as cli_mod

        real, planted = cli_mod.compare_blocks, []

        def plant_once(P, coeffs, all_sigma):
            checked, blocks = real(P, coeffs, all_sigma)
            if not planted:
                planted.append(P)
                blocks = blocks + [(0, 0, (((1, ()), (0, ())),) * len(coeffs), False)]
            return checked, blocks

        monkeypatch.setattr(cli_mod, "compare_blocks", plant_once)
        argv = ("verify", "--random", "--trials", "2", "--seed", "1")
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 4
        assert lines[0].endswith(" FAIL") and lines[1].endswith(" PASS")
        assert lines[2].startswith("random sweep: 2 trials, ") and lines[2].endswith(" blocks, 1 failures")
        planted.clear()
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 4
        assert json.loads(out)["failed"] == 1

    def test_all_sigma_gated_above_twelve_vertices(self, capsys, tmp_path, monkeypatch):
        # 2^m subsets, about threefold per vertex: m = 13 exits 3 before
        # any block is built, and in random mode before the first trial
        import facetor.cli as cli_mod
        import facetor.hochster as hochster_mod
        from facetor.hochster import ALL_SIGMA_MAX_M, check_all_sigma

        assert ALL_SIGMA_MAX_M == 12
        check_all_sigma(12)
        built = []
        monkeypatch.setattr(hochster_mod, "tor_bigraded", lambda P, coeff: built.append(P))
        monkeypatch.setattr(cli_mod, "random_complement", lambda *a: built.append(a))
        path = tmp_path / "m13.json"
        path.write_text(json.dumps({"m": 13, "complement": [[1, 2]]}))
        message = "capability error: sweeping all 2^13 subsets exceeds the supported maximum m = 12\n"
        for argv in (
            ("verify", str(path), "--all-sigma"),
            ("verify", "--random", "--all-sigma", "--max-m", "13", "--trials", "1"),
        ):
            assert run(capsys, *argv) == (3, "", message)
        assert built == []

    def test_random_mode_without_all_sigma_keeps_max_m(self, capsys):
        # the bound concerns the all-sigma sweep only
        assert run(capsys, "verify", "--random", "--max-m", "13", "--max-s", "2", "--trials", "2") == (
            0,
            "trial 0: m=7 s=1 P={{1,3}} 4 blocks PASS\n"
            "trial 1: m=5 s=2 P={{1,2,3,4}, {3,4}} 9 blocks PASS\n"
            "random sweep: 2 trials, 13 blocks, 0 failures\n",
            "",
        )

    def test_random_mode_reaches_the_member_limit(self, capsys):
        # up to 24 members: the full complex would have up to 2^24
        # generators, the Lyubeznik build that verify reads stays small
        code, out, err = run(
            capsys, "verify", "--random", "--trials", "30", "--seed", "7", "--max-m", "8", "--max-s", "24"
        )
        assert (code, err) == (0, "")
        assert out.endswith(" 0 failures\n")

    def test_random_mode_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--random", "--trials", "4", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "--random", "--trials", "4", "--seed", "9")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--max-m", "30", "--max-s", "2", "--trials", "40", "--seed", "1"),
            ("--max-m", "0"),
            ("--trials", "-5"),
            ("--max-s", "25", "--trials", "0"),
        ],
        ids=["max-m-30", "max-m-0", "trials-negative", "max-s-25"],
    )
    def test_random_mode_rejects_bad_numbers(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--random", *argv])
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "expected an integer" in out.err

    def test_random_mode_accepts_bounds(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "--trials", "0", "--max-m", "24", "--max-s", "24"
        )
        assert code == 0
        assert out == "random sweep: 0 trials, 0 blocks, 0 failures\n"

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "input" in err

    def test_input_file_with_random_is_an_input_error(self, capsys, fig1_path, monkeypatch):
        # the sweep would otherwise run and exit 0 without reading the file
        import facetor.cli as cli_mod

        monkeypatch.setattr(cli_mod, "random_complement", lambda *a: pytest.fail("a trial ran"))
        message = "input error: use either an input file or --random, not both\n"
        for extra in ((), ("--trials", "1"), ("--json",)):
            assert run(capsys, "verify", fig1_path, "--random", *extra) == (2, "", message)

    def test_failure_exit_code(self, capsys, fig1_path, monkeypatch):
        import facetor.cli as cli_mod

        fake = (1, [(0, 0, (((1, ()), (0, ())),), False)])
        monkeypatch.setattr(cli_mod, "compare_blocks", lambda P, coeffs, all_sigma: fake)
        code, out, _ = run(capsys, "verify", fig1_path)
        assert code == 4
        assert out == (
            "FAIL q=0 sigma={} [Q:Z^1|oracle:0]\n"
            "checked 1 (q, sigma) blocks over Q, F2, Z: 0 passed, 1 failed\n"
        )
        code, out, _ = run(capsys, "verify", fig1_path, "--json")
        assert code == 4
        assert json.loads(out) == {
            "command": "verify",
            "mode": "file",
            "m": 5,
            "coeffs": ["Q", "F2", "Z"],
            "blocks": [
                {
                    "q": 0,
                    "sigma": [],
                    "groups": {"Q": {"left": {"rank": 1, "torsion": []}, "right": {"rank": 0, "torsion": []}}},
                    "ok": False,
                }
            ],
            "checked": 1,
            "failed": 1,
        }


FIG1_VERIFY_TEXT = """\
PASS q=0 sigma={} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=1 sigma={1,5} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=1 sigma={2,4} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=1 sigma={1,2,3} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=1 sigma={3,4,5} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=2 sigma={1,2,3,4} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=2 sigma={1,2,3,5} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=2 sigma={1,2,4,5} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=2 sigma={1,3,4,5} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=2 sigma={2,3,4,5} [Q:Z^1, F2:Z^1, Z:Z^1]
PASS q=3 sigma={1,2,3,4,5} [Q:Z^2, F2:Z^2, Z:Z^2]
checked 46 (q, sigma) blocks over Q, F2, Z: 46 passed, 0 failed
"""


@pytest.mark.parametrize(
    "doc, flags, text, digest",
    [
        (FIG1_DOC, (), FIG1_VERIFY_TEXT, None),
        (
            {"m": 6, "facets": RP2_FACETS},
            ("--json",),
            None,
            "ed7ed821fe0e715d693a80a85aa29e5f68b7cdef51356270af0fc598376b2145",
        ),
        (
            FIG1_DOC,
            ("--all-sigma", "--json"),
            None,
            "d77cfc58745d53b24e16eae7f5e30d40fde64cadd7afe44b15d1a1d8b8426d2e",
        ),
        (_cycle_doc(7), (), None, "a65f7ffc35b2fc217c094cac120a693a7596bf8d12cce0c28076b3d6185cecac"),
        (
            _cycle_doc(7),
            ("--json",),
            None,
            "24c64a01aa34fab3fedb41df39d4152f60af6ffd00fe02f54a4be7d11f131add",
        ),
        (
            _cycle_doc(6),
            ("--all-sigma",),
            None,
            "83eba764a0462c231814f34e787c299cbd31cf57a0b6fc6f69f94ce4702547cf",
        ),
    ],
    ids=["fig1-text", "rp2-json", "fig1-all-sigma-json", "c7-text", "c7-json", "c6-all-sigma"],
)
def test_verify_file_output_pinned(capsys, tmp_path, doc, flags, text, digest):
    # recorded bytes of the file-mode report: block order, group
    # rendering and the summary line all stay fixed
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), *flags)
    assert (code, err) == (0, "")
    if text is not None:
        assert out == text
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_random_output_pinned(capsys):
    # recorded bytes of the random sweep that CI runs
    code, out, err = run(
        capsys, "verify", "--random", "--trials", "50", "--seed", "7", "--max-m", "7", "--max-s", "5"
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "85bdd4d24f7d717b35f80e7ee83e85188d3bf9bb8f509aba4bf324063bd86a0d"
    )


_RING_DOCS = {
    "fig1": FIG1_DOC,
    "ex513": EX513_DOC,
    "c5": {"m": 5, "facets": [[i, i % 5 + 1] for i in range(1, 6)]},
    "c6": {"m": 6, "facets": [[i, i % 6 + 1] for i in range(1, 7)]},
    "rp2": {"m": 6, "facets": RP2_FACETS},
    "c7": {"m": 7, "facets": [[i, i % 7 + 1] for i in range(1, 8)]},
}


_RING_PINS = [
    ("fig1", "q", (), "82d7d0b82895f2b32eda5871f9d0d235968048b6bdddcbee847626de4f9fb51b"),
    ("fig1", "f:2", (), "82d7d0b82895f2b32eda5871f9d0d235968048b6bdddcbee847626de4f9fb51b"),
    ("fig1", "f:3", (), "82d7d0b82895f2b32eda5871f9d0d235968048b6bdddcbee847626de4f9fb51b"),
    ("ex513", "q", (), "17fceb7473d6832157c0eb79eab8b8835141e7e9d61ddf6abfc9bb13f3573ab3"),
    ("ex513", "f:2", (), "cb893cf87a141a10ae2d016678c32cfc8363d5c0a6341bdad714b82b165d7559"),
    ("ex513", "f:3", (), "5524b908fe624458c5941421a75ea94f697c3d1591be2c6f6a509be01426da2d"),
    ("c5", "q", (), "8ff956116ddabd0fd82a89de633945d2888fad1ca284259599d1b1959bd2c952"),
    ("c5", "f:2", (), "11eb1469571dbddda5686d8eb41fdb1964bff16cd9495c378cfd6e24cbf21914"),
    ("c5", "f:3", (), "10e28bceeeac5d654438e18d0d3f33af68c0be7276b24fede4c02b3da66af3c7"),
    ("c6", "q", (), "ede4691f4310b03d9e3cf13b6821e816069fbf70475eca61783a1945e2d69669"),
    ("c6", "f:2", (), "75982dd3f228edd51e9425ca1b3dccf716252917b214e0810eed19e0d9cd233e"),
    ("c6", "f:3", (), "5d038f9ba029f67562f704c5f5db183965b3039b26a6692f9f8da9f8cc4bf7a2"),
    ("rp2", "q", (), "aabe40e8911091d0c25cd321d2d019e8b82586dafc4997c7cf882519b6a6c5c8"),
    ("rp2", "f:2", (), "f1a09acdac38c8bd4cd4e32b73df93a0bf6a611a756b3acbac8b668ebc843f4c"),
    ("rp2", "f:3", (), "aabe40e8911091d0c25cd321d2d019e8b82586dafc4997c7cf882519b6a6c5c8"),
    ("fig1", "q", ("--json",), "c00b990dd57bec62c2ab9bcf18d99bcaa6bd04a111e36c91f302d13b9ff0872a"),
    ("rp2", "q", ("--json",), "e3fd3d9b13376736a41dcfd01b6fa31e9bb24f2621cdbede0beb8fac65d90148"),
    ("c7", "q", (), "c412967ac80bd5fdd50b4209eaeb1167d79402c97d8f884af7b82ecabeb41f2c"),
    ("c7", "f:2", (), "0d5b3ba742cc41b75d882f5adc542094d52b0a46a48604123936f93ed46242b2"),
]


@pytest.mark.parametrize(
    "name, coeff, flags, digest",
    _RING_PINS,
    ids=[f"{name}-{coeff}" + "".join(flags) for name, coeff, flags, _ in _RING_PINS],
)
def test_ring_output_pinned(capsys, tmp_path, name, coeff, flags, digest):
    # recorded bytes of the ring report: basis names, representatives'
    # coordinates and the product table stay fixed whatever elimination
    # produces the representatives
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_RING_DOCS[name]))
    code, out, err = run(capsys, "ring", str(path), "--coeff", coeff, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_STAR_LINK_PINS = [
    ("fig1", "star", "4f584214281af7b4ae13d72325fff27dab090ea6b57e74a7b7e984f8bfa76c48"),
    ("fig1", "link", "b3ceebaecc3035a6e78efe46495a7dbcd020e365147f253ce8241ffd9bdfbef4"),
    ("ex513", "star", "770dc4a30ca1c9a819cfd6834b2c8fca959a4a7c7ed89b40d6d46c96f7045687"),
    ("ex513", "link", "16eeab9921e5b6d71c162e6ec810f80b90adcf149f540b2992550c9f168b8cf8"),
    ("c5", "star", "2c4028f677e6d30ffe9485df289dbb680464eea925a1fd55a4bbd9af3c7ab3a3"),
    ("c5", "link", "6782f001618a5e5b14cdf242c53c5784dac634c3babfcc00de5e753fe5e6a6b9"),
    ("c6", "star", "68f3be842ae8a8fcc718dbb04e6355be9b320fa03b19d1306ace647769bd11b1"),
    ("c6", "link", "8b3834cb1ae778f78a6c568ba80945cacf2f93c821597bafd51a8a76a221927b"),
    ("rp2", "star", "1804b41b1e4e129b289e551bed60a336a287d7d16c05da702b28ef0ff371068b"),
    ("rp2", "link", "0b5de9d012ce4296b58ef611e5ece5d0c7dec15feaeb2c7c6efbafd06d69934f"),
]


@pytest.mark.parametrize(
    "name, which, digest", _STAR_LINK_PINS, ids=[f"{name}-{which}" for name, which, _ in _STAR_LINK_PINS]
)
def test_star_link_output_pinned(capsys, tmp_path, name, which, digest):
    # recorded bytes of every omega, faces and non-faces alike, over Q, Z
    # and F2, plain and --json, in that order, concatenated
    doc = _RING_DOCS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    h = hashlib.sha256()
    for omega in range(1 << doc["m"]):
        arg = ",".join(str(v) for v in range(1, doc["m"] + 1) if omega >> (v - 1) & 1)
        for coeff in ("q", "z", "f:2"):
            for flags in ((), ("--json",)):
                code, out, err = run(capsys, which, str(path), "--omega", arg, "--coeff", coeff, *flags)
                assert (code, err) == (0, "")
                h.update(out.encode())
    assert h.hexdigest() == digest


def test_worked_examples_output_pinned():
    # recorded stdout of the worked-examples script, its pentagon ring
    # table included
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "scripts/worked_examples.py"], cwd=root, capture_output=True, check=True
    )
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "3a718d36b40b52bb5308607ab1e5c492d0ae435e202875407e3a1e983bb3c06f"
    )


def test_closed_stdout_exits_quietly():
    # the sweep writes about 138 KB, well past a 64 KB pipe buffer, so it
    # is still writing when the reader closes the pipe after one line
    root = Path(__file__).resolve().parent.parent
    argv = ["verify", "--random", "--trials", "3000", "--max-m", "4", "--max-s", "3", "--seed", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "facetor.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"trial 0:")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err


def test_parser_reuse_changes_nothing(capsys, fig1_path):
    # main builds its parser on the first call and reuses it; each call
    # must behave as it does with a freshly built parser
    from facetor import cli

    sequence = [
        ["tor", fig1_path, "--coeff", "z", "--json"],
        ["tor", fig1_path],
        ["verify", fig1_path, "--all-sigma"],
        ["verify", fig1_path],
        ["ring", fig1_path, "--coeff", "z"],
        ["ring", fig1_path],
        ["frobnicate"],
        ["zk", fig1_path],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._build_parser.cache_clear()
    reused = [call(argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 2, 0]


class TestInputValidity:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "tor", str(path))
        assert code == 2
        assert "JSON" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "tor", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")

    def test_input_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(json.dumps({"m": 3, "complement": [[1]]}).encode() + b"\xff")
        code, out, err = run(capsys, "tor", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "UTF-8" in err

    def test_pairs_not_utf8(self, capsys, tmp_path, ex513_path):
        ppath = tmp_path / "pairs.json"
        ppath.write_bytes(json.dumps([{"X": [[2, 1]], "A": [[1, 1]]}] * 6).encode() + b"\xff")
        code, out, err = run(capsys, "maz", ex513_path, "--pairs", str(ppath))
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "UTF-8" in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
    )
    def test_overlong_integer(self, capsys, tmp_path, ex513_path):
        # json raises a plain ValueError on an integer past the limit
        digits = sys.get_int_max_str_digits() + 700
        path = tmp_path / "long.json"
        path.write_text('{"m": ' + "1" * digits + ', "complement": []}')
        ppath = tmp_path / "pairs.json"
        ppath.write_text("[" + ", ".join(['{"A": [[1, 1]]}'] * 5 + ['{"A": [[1, ' + "7" * digits + "]]}"]) + "]")
        for argv, named in [(("tor", str(path)), path), (("maz", ex513_path, "--pairs", str(ppath)), ppath)]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"input error: {named}: Exceeds the limit")

    def test_vertex_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 3, "complement": [[1, 4]]}))
        code, _, err = run(capsys, "tor", str(path))
        assert code == 2
        assert "complement[0][1]" in err

    def test_m_too_large(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 25, "complement": []}))
        code, _, err = run(capsys, "tor", str(path))
        assert code == 2
        assert "m:" in err

    def test_both_keys(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 3, "complement": [], "facets": [[1]]}))
        code, _, err = run(capsys, "tor", str(path))
        assert code == 2
        assert "exactly one" in err

    def test_void_facet_list(self, capsys, tmp_path):
        path = tmp_path / "void.json"
        path.write_text(json.dumps({"m": 3, "facets": []}))
        code, out, err = run(capsys, "tor", str(path))
        assert code == 2
        assert out == ""
        assert err == 'input error: void complex has no missing-face presentation; use {"complement": [[]]}\n'
        # the form the message names is accepted
        path.write_text(json.dumps({"m": 3, "complement": [[]]}))
        assert run(capsys, "tor", str(path))[0] == 0

    def test_internal_fault_is_not_an_input_error(self, tmp_path, monkeypatch):
        # a ValueError raised inside the computation is a fault of the
        # program, not of the input: it must escape main (exit 1), not
        # be reported as exit 2.  Every block of FIG1 reads its group off
        # its size, so the 5-cycle, whose blocks reach homology_at, runs.
        import facetor.taylor as taylor_mod

        def broken(*_args):
            raise ValueError("not a chain complex: d_out composed with d_in is nonzero")

        monkeypatch.setattr(taylor_mod, "homology_at", broken)
        with pytest.raises(ValueError, match="not a chain complex"):
            main(["tor", _cycle_path(tmp_path, 5)])

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_void_star_capability(self, capsys, tmp_path):
        path = tmp_path / "void.json"
        path.write_text(json.dumps({"m": 2, "complement": [[]]}))
        code, _, err = run(capsys, "star", str(path), "--omega", "1")
        assert code == 3
        assert "void" in err

    def test_member_limit_capability(self, capsys, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"m": 5, "complement": [[1]] * 25}))
        # the Lyubeznik build caps the minimal presentation, one member
        # here; the ring's full build caps the 25 given members
        for argv in (("tor",), ("zk",), ("maz", "--preset", "s2s1"), ("star", "--omega", "2"), ("verify",)):
            code, _, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, err) == (0, ""), argv
        code, _, err = run(capsys, "ring", str(path))
        assert (code, err) == (3, "capability error: 25 members exceed the supported maximum 24\n")
        # the 9-cycle has 27 minimal members in one part
        c9 = _cycle_path(tmp_path, 9)
        for argv in (("tor",), ("zk",), ("verify",)):
            code, _, err = run(capsys, argv[0], c9, *argv[1:])
            assert (code, err) == (3, "capability error: 27 members exceed the supported maximum 24\n"), argv
        # the star and link of 1 have 7 and 8 minimal members
        code, out, err = run(capsys, "link", c9, "--omega", "1")
        assert (code, err) == (0, "")
        assert out.endswith("total rank 256\n")
        code, out, err = run(capsys, "star", c9, "--omega", "1")
        assert (code, err) == (0, "")
        assert out.endswith("total rank 128\n")
        # the star's blocks are the link's blocks whose sigma avoids 1
        star_blocks = json.loads(run(capsys, "star", c9, "--omega", "1", "--json")[1])["tor"]["blocks"]
        link_blocks = json.loads(run(capsys, "link", c9, "--omega", "1", "--json")[1])["tor"]["blocks"]
        assert star_blocks == [b for b in link_blocks if 1 not in b["sigma"]]

    def test_large_prime_coefficients(self, capsys, fig1_path):
        code, out, _ = run(capsys, "tor", fig1_path, "--coeff", f"f:{2**61 - 1}")
        assert code == 0
        assert out.endswith("total rank 12\n")
        with pytest.raises(SystemExit) as err:
            main(["tor", fig1_path, "--coeff", f"f:{2**89 - 1}"])
        assert err.value.code == 2
        assert "too large" in capsys.readouterr().err

    def test_verify_output_deterministic(self, capsys, fig1_path):
        code, out, _ = run(capsys, "verify", fig1_path)
        assert code == 0
        taylor_complex.cache_clear()  # the second run recomputes every block
        code1, out1, _ = run(capsys, "verify", fig1_path)
        assert code1 == 0
        assert out == out1


def _cycle_path(tmp_path, n: int) -> str:
    path = tmp_path / f"c{n}.json"
    path.write_text(json.dumps(_cycle_doc(n)))
    return str(path)


class TestCycleReach:
    # the full Taylor complex of the 8-cycle has 2^20 generators, so
    # these run only on the Lyubeznik subcomplex (1,296 generators)
    def test_c8_verify(self, capsys, tmp_path):
        path = _cycle_path(tmp_path, 8)
        for flags, summary in (((), "1564 passed, 0 failed"), (("--all-sigma",), "1636 passed, 0 failed")):
            code, out, err = run(capsys, "verify", path, *flags)
            assert (code, err) == (0, "")
            assert out.endswith(f"{summary}\n")

    def test_c8_zk_series(self, capsys, tmp_path):
        code, out, _ = run(capsys, "zk", _cycle_path(tmp_path, 8))
        assert code == 0
        assert out == "1 + 20x^3 + 64x^4 + 90x^5 + 64x^6 + 20x^7 + x^10 (total 260)\n"

    def test_c8_integer_tor_matches_oracle(self, capsys, tmp_path):
        from facetor import CochainComplex, SimplicialComplex, full_subcomplex
        from facetor.bitsets import mask_of, popcount
        from facetor.linalg import ZZ

        code, out, _ = run(capsys, "tor", _cycle_path(tmp_path, 8), "--coeff", "z", "--json")
        assert code == 0
        got = {
            (b["q"], mask_of(b["sigma"], 8)): (b["rank"], tuple(b["torsion"]))
            for b in json.loads(out)["blocks"]
        }
        K = SimplicialComplex.from_facets(8, [[i, i % 8 + 1] for i in range(1, 9)])
        expected = {}
        for sigma in range(1 << 8):
            oracle = CochainComplex(full_subcomplex(K, sigma))
            for q in range(popcount(sigma) + 1):
                group = oracle.cohomology(popcount(sigma) - q - 1, ZZ)
                if not group.is_zero:
                    expected[(q, sigma)] = group.signature
        assert got == expected

    def test_c7_maz_series_in_bounded_memory(self, capsys, tmp_path):
        # the full Taylor complexes of C7's 15 faces sum to 245,760
        # generators; the Lyubeznik ones keep the traced peak small
        import tracemalloc

        path = _cycle_path(tmp_path, 7)
        expected = {
            "s2s1": "1 + 7x^2 + 42x^3 + 84x^4 + 105x^5 + 119x^6 + 112x^7 + 63x^8 + 15x^9 (total 548)\n",
            "d2s1": "1 + 14x^3 + 35x^4 + 35x^5 + 14x^6 + x^9 (total 100)\n",
        }
        for preset, series in expected.items():
            taylor_complex.cache_clear()
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "maz", path, "--preset", preset)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            assert out == series
            assert peak < 20 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ("tor",),
        ("zk",),
        ("ring",),
        ("star", "--omega", "1"),
        ("link", "--omega", "1"),
        ("maz", "--preset", "s2s1"),
        ("compress", "--omega", "1"),
        ("verify",),
    ],
    ids=lambda argv: argv[0],
)
def test_subcommand_output_deterministic(capsys, fig1_path, argv):
    first = run(capsys, argv[0], fig1_path, *argv[1:])
    taylor_complex.cache_clear()  # the second run recomputes every block
    second = run(capsys, argv[0], fig1_path, *argv[1:])
    assert first[0] == 0
    assert second == first


def test_only_verify_reads_a_build_again(capsys, fig1_path):
    # verify reads one Lyubeznik build over Q, F2 and Z; ring reads it
    # once for its ranks and builds its full complex outside the cache
    for command, traffic in (("verify", (1, 2)), ("ring", (1, 0))):
        taylor_complex.cache_clear()
        code, _, _ = run(capsys, command, fig1_path)
        info = taylor_complex.cache_info()
        assert (code, info.misses, info.hits) == (0, *traffic), command


# Fuzzing the loaders: arbitrary JSON values, and valid documents with
# at most one fault each.  Integer leaves stay in -1..6, so an accepted
# document has m <= 6; complements have at most 6 members, and facet
# lists live on m <= 4, whose minimal non-faces number at most 6, so no
# run is slow.
_leaves = st.none() | st.booleans() | st.integers(-1, 6) | st.floats() | st.text(max_size=3)
_keys = st.sampled_from(["m", "complement", "facets", "X", "A"]) | st.text(max_size=3)
json_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_keys, children, max_size=4),
    max_leaves=12,
)
_bad = st.sampled_from([0, 7, -1, 25, True, 1.0, "1", None, [1], {}])


@st.composite
def near_miss_inputs(draw):
    key = draw(st.sampled_from(["complement", "facets"]))
    m = draw(st.integers(1, 6 if key == "complement" else 4))
    lists = draw(st.lists(st.lists(st.integers(1, m), max_size=4), max_size=6 if key == "complement" else 4))
    doc = {"m": m, key: lists}
    fault = draw(st.sampled_from(["none", "m", "vertex", "member", "both", "no m", "extra"]))
    if fault == "m":
        doc["m"] = draw(_bad)
    elif fault == "vertex" and lists:
        lists[draw(st.integers(0, len(lists) - 1))].append(draw(_bad))
    elif fault == "member":
        lists.append(draw(_bad))
    elif fault == "both":
        doc["facets" if key == "complement" else "complement"] = []
    elif fault == "no m":
        del doc["m"]
    elif fault == "extra":
        doc[draw(st.text(max_size=3))] = draw(json_values)
    return doc


@st.composite
def near_miss_pairs(draw, m=2):
    term = st.tuples(st.integers(1, 3), st.integers(0, 3)).map(list)
    side = st.lists(term, max_size=3)
    doc = draw(st.lists(st.fixed_dictionaries({}, optional={"X": side, "A": side}), min_size=m, max_size=m))
    fault = draw(st.sampled_from(["none", "length", "degree", "rank", "term", "side", "entry", "key"]))
    entry = doc[draw(st.integers(0, m - 1))]
    if fault == "length":
        doc = doc + doc[:1] if draw(st.booleans()) else doc[1:]
    elif fault == "degree":
        entry["X"] = [[draw(st.integers(-1, 0) | _bad), 1]]
    elif fault == "rank":
        entry["A"] = [[1, draw(st.integers(-2, -1) | _bad)]]
    elif fault == "term":
        entry["X"] = [draw(_bad | st.just([1, 1, 1]))]
    elif fault == "side":
        entry["A"] = draw(_bad)
    elif fault == "entry":
        doc[0] = draw(_bad)
    elif fault == "key":
        entry[draw(st.text(max_size=2))] = []
    return doc


def _run_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_exit(code: int, out: str, err: str) -> None:
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert err.startswith(("input error:", "capability error:"))


@given(doc=json_values | near_miss_inputs())
def test_load_input_fuzz(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    _check_exit(*_run_quietly(["tor", str(path)]))


@given(doc=json_values | near_miss_pairs())
def test_load_pairs_fuzz(tmp_path_factory, doc):
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "input.json").write_text(json.dumps({"m": 2, "complement": [[1, 2]]}))
    (folder / "pairs.json").write_text(json.dumps(doc))
    argv = ["maz", str(folder / "input.json"), "--pairs", str(folder / "pairs.json")]
    _check_exit(*_run_quietly(argv))
