import json
from pathlib import Path

import pytest

from decspace.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_check_poset_all(tmp_path, capsys):
    path = tmp_path / "chain3.txt"
    path.write_text("0 < 1\n1 < 2\n2 < 3\n")
    code, out = run(capsys, "check", f"poset:{path}", "all")
    assert code == 0
    assert "PASS" in out


def test_check_forests_decomposition(capsys):
    code, out = run(capsys, "check", "forests", "decomposition", "--nodes", "3")
    assert code == 0


def test_check_forests_segal_fails_with_witness(capsys):
    code, out = run(capsys, "check", "forests", "segal", "--nodes", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["check"] == "segal"
    assert payload["pass"] is False
    assert any(not sq["pass"] for sq in payload["squares"])


def test_check_json_deterministic(capsys):
    code1, out1 = run(capsys, "check", "binomial", "decomposition", "--max", "3", "--format", "json")
    code2, out2 = run(capsys, "check", "binomial", "decomposition", "--max", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("check_binomial_all_max3.json", "check binomial all --max 3 --format json"),
        ("check_forests_all_nodes2.json", "check forests all --nodes 2 --format json"),
        (
            "check_graphs_all_vertices2_corrupt1.json",
            "check graphs all --vertices 2 --corrupt-seed 1 --format json",
        ),
        ("coproduct_forests_nodes3.csv", "coproduct forests --nodes 3 --format csv"),
        ("check_injections_all_max3.json", "check injections all --max 3 --format json"),
        ("check_forests_all_nodes3.txt", "check forests all --nodes 3 --format text"),
        ("check_graphs_all.json", "check graphs all --format json"),
        ("check_vect_all.txt", "check vect all --format text"),
        ("coproduct_injections_max3.csv", "coproduct injections --max 3 --format csv"),
        (
            "check_injections_all_max3_corrupt2.json",
            "check injections all --max 3 --corrupt-seed 2 --format json",
        ),
        ("coproduct_binomial_max3.csv", "coproduct binomial --max 3 --format csv"),
        ("coproduct_graphs_vertices2.csv", "coproduct graphs --vertices 2 --format csv"),
        ("coproduct_vect_dim2.csv", "coproduct vect --dim 2 --format csv"),
        ("coproduct_poset_diamond.csv", "coproduct poset:{golden}/poset_diamond.txt"),
    ],
)
def test_output_matches_golden(capsys, golden, argv):
    # the golden files are recorded outputs of the same commands; any change
    # to a verdict, a witness or a table entry shows up as a byte difference
    _, out = run(capsys, *argv.format(golden=GOLDEN).split())
    assert out == (GOLDEN / golden).read_text()


def test_coproduct_binomial_table(capsys):
    code, out = run(capsys, "coproduct", "binomial", "--max", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "f,a,b,coefficient"
    assert "2,1,1,2" in lines
    assert "3,1,2,3" in lines


def test_coproduct_single_element(capsys):
    code, out = run(capsys, "coproduct", "forests", "--nodes", "2", "--element", "(())")
    assert code == 0
    rows = [l for l in out.strip().splitlines()[1:]]
    assert len(rows) == 3


def test_coproduct_unknown_key(capsys):
    code = main(["coproduct", "forests", "--nodes", "2", "--element", "zzz"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: element 'zzz' not found; known keys: (()), (), ()(), 0\n"
    )


def test_coproduct_k2(capsys):
    code, out = run(capsys, "coproduct", "graphs", "--vertices", "2", "--element", "2:01")
    assert code == 0
    body = out.strip().splitlines()[1:]
    assert len(body) == 3
    assert "2:01,1:,1:,2" in body


def test_hall_match(capsys):
    code, out = run(capsys, "hall", "--q", "2", "--n", "2", "--k", "1")
    assert code == 0
    assert "enumerated=3 gaussian=3 MATCH" in out
    code, out = run(capsys, "hall", "--q", "3", "--n", "2", "--k", "1")
    assert code == 0
    assert "enumerated=4 gaussian=4 MATCH" in out
    code, out = run(capsys, "hall", "--q", "2", "--n", "3", "--k", "0")
    assert code == 0
    assert "MATCH" in out


def test_hall_bad_field(capsys):
    code = main(["hall", "--q", "6", "--n", "2", "--k", "1"])
    assert code == 2


def test_coassoc_binomial(capsys):
    code, _ = run(capsys, "coassoc", "binomial", "--max", "3")
    assert code == 0


def test_coassoc_corrupted_fails(capsys):
    code, _ = run(capsys, "coassoc", "forests", "--nodes", "2", "--corrupt-seed", "5")
    assert code == 1


def test_invalid_space(capsys):
    code = main(["check", "nonsense", "segal"])
    assert code == 2


def test_missing_poset_file(capsys):
    code = main(["check", "poset:/nonexistent/file.txt", "all"])
    assert code == 2


def test_poset_file_not_utf8_rejected(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 < 1\n1 < \xff\n")
    assert main(["check", f"poset:{path}", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not UTF-8 text")


@pytest.mark.parametrize("flag", ["--grade", "--max", "--nodes", "--vertices", "--dim"])
def test_grade_flag_on_poset_rejected(tmp_path, capsys, flag):
    path = tmp_path / "chain2.txt"
    path.write_text("0 < 1\n1 < 2\n")
    assert main(["check", f"poset:{path}", "segal", flag, "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} does not apply to a poset space\n"
    # the negative-bound and one-bound checks come first
    assert main(["check", f"poset:{path}", "segal", flag, "-1"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "check binomial all --max -1",
        "check forests segal --nodes -2",
        "check graphs all --vertices -1",
        "check vect all --dim -1",
        "coproduct binomial --grade -3",
        "coassoc forests --grade 2 --nodes -1",
    ],
)
def test_negative_grade_bound_rejected(capsys, argv):
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "must be >= 0" in err


def test_corrupt_seed_applies_to_poset(tmp_path, capsys):
    path = tmp_path / "chain2.txt"
    path.write_text("0 < 1\n1 < 2\n")
    code, out = run(capsys, "check", f"poset:{path}", "decomposition", "--corrupt-seed", "0")
    assert code == 1
    assert out.startswith("decomposition[poset-nerve~corrupt0]: FAIL")
    assert "square does not commute" in out
    assert main(["check", f"poset:{path}", "all", "--level", "1", "--corrupt-seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no inner face" in captured.err


@pytest.mark.parametrize("space", ["binomial", "injections", "forests", "graphs", "poset"])
def test_q_flag_off_vect_rejected(tmp_path, capsys, space):
    if space == "poset":
        path = tmp_path / "chain2.txt"
        path.write_text("0 < 1\n1 < 2\n")
        space = f"poset:{path}"
    assert main(["check", space, "segal", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --q applies only to vect\n"
    # the negative-bound check comes first
    assert main(["check", space, "segal", "--q", "3", "--grade", "-1"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_corrupt_seed_without_inner_face_rejected(capsys):
    assert main("check binomial all --level 1 --corrupt-seed 0".split()) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no inner face" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "check binomial all --max 2 --nodes 3",
        "coproduct forests --grade 2 --nodes 2",
        "coassoc vect --dim 1 --grade 1 --vertices 1",
    ],
)
def test_conflicting_grade_bounds_rejected(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: give one grade bound")
