import json

import pytest

from facetor.cli import main
from facetor.taylor import taylor_complex

FIG1_DOC = {"m": 5, "complement": [[1, 5], [2, 4], [1, 2, 3], [3, 4, 5]]}
EX513_DOC = {"m": 6, "complement": [[1, 2], [3, 4], [5, 6]]}


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

    def test_bad_pairs_degree(self, capsys, tmp_path, ex513_path):
        pairs = [{"X": [[0, 1]], "A": []} for _ in range(6)]
        ppath = tmp_path / "pairs.json"
        ppath.write_text(json.dumps(pairs))
        code, _, err = run(capsys, "maz", ex513_path, "--pairs", str(ppath))
        assert code == 2
        assert "degree" in err


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

    def test_random_mode_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--random", "--trials", "4", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "--random", "--trials", "4", "--seed", "9")
        assert out1 == out2

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "input" in err

    def test_failure_exit_code(self, capsys, fig1_path, monkeypatch):
        import facetor.cli as cli_mod

        fake = [(0, 0, {"Q": {"left": (1, ()), "right": (0, ())}}, False)]
        monkeypatch.setattr(cli_mod, "_verify_complement", lambda P, all_sigma: fake)
        code, out, _ = run(capsys, "verify", fig1_path)
        assert code == 4
        assert "FAIL" in out


class TestInputValidity:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "tor", str(path))
        assert code == 2
        assert "JSON" in err

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
        code, _, err = run(capsys, "tor", str(path))
        assert code == 3
        assert err.startswith("capability error: 25 members exceed")

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
