"""CLI verbs, exit codes, and deterministic output."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from schmidtkit import (
    Bipartition,
    IndicesOutOfRange,
    InvalidArgs,
    MalformedCut,
    basis_state,
    ghz,
    haar_random_state,
    new_state,
    reduced_density,
    save_density,
    save_state,
    w_state,
)
from schmidtkit.cli import main, parse_cut, parse_grouping


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture(tmp_path, name, state):
    path = tmp_path / f"{name}.json"
    save_state(path, state)
    return str(path)


def test_parse_cut_pinned():
    assert parse_cut("1|2,3", 3) == Bipartition((1,), (2, 3))
    assert parse_cut("1,3|2", 3) == Bipartition((1, 3), (2,))
    assert parse_cut("2 , 3|1", 3) == Bipartition((2, 3), (1,))


@pytest.mark.parametrize("text, exc", [
    ("1,2", MalformedCut),
    ("1|2|3", MalformedCut),
    ("1,|2,3", MalformedCut),
    ("a|2,3", MalformedCut),
    ("1|1,2", IndicesOutOfRange),
    ("1|2,4", IndicesOutOfRange),
    ("1|2", IndicesOutOfRange),
])
def test_parse_cut_rejections(text, exc):
    with pytest.raises(exc):
        parse_cut(text, 3)


def test_parse_grouping():
    assert parse_grouping("2,1").sizes == (2, 1)
    with pytest.raises(InvalidArgs):
        parse_grouping("2,x")


def test_check_exit_codes(tmp_path, capsys):
    w = write_fixture(tmp_path, "w", w_state())
    g = write_fixture(tmp_path, "ghz", ghz(3))
    code, out, _ = run(capsys, "check", w)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "NotDecomposable"
    assert doc["stage"] == "SNotScaledUnitary"
    code, out, _ = run(capsys, "check", g)
    assert code == 0
    assert json.loads(out)["decomposable"] is True


def test_check_residual_key_sets_of_fixture_files(tmp_path, capsys):
    # the key sets behind the pinned check and decompose output of the
    # fixture files: an accept carries every stage's residual, a reject
    # only those of the stages it reached
    paths = {}
    for name in ("ghz4", "w"):
        paths[name] = str(tmp_path / f"{name}.json")
        assert run(capsys, "gen", "--fixture", name, "--out", paths[name])[0] == 0
    code, out, _ = run(capsys, "check", paths["ghz4"])
    assert code == 0
    assert set(json.loads(out)["residuals"]) == {
        "max_commutator", "max_ss_off_diagonal", "reconstruction",
        "tail_orthonormality", "tail_product_ratio"}
    for verb in ("check", "decompose"):
        code, out, _ = run(capsys, verb, paths["w"])
        assert code == 1
        doc = json.loads(out)
        assert doc["stage"] == "SNotScaledUnitary"
        assert set(doc["witness"]) == {"ss_dagger"}
        assert set(doc["residuals"]) == {"max_commutator", "max_off_diagonal"}


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden_cli.json"


def rounded_digest(text):
    """sha256 of the sorted-key JSON document with floats rounded to 1e-9."""
    def fix(v):
        if isinstance(v, float):
            return round(v, 9) + 0.0
        if isinstance(v, list):
            return [fix(x) for x in v]
        if isinstance(v, dict):
            return {k: fix(x) for k, x in v.items()}
        return v
    doc = json.dumps(fix(json.loads(text)), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_fixture_reports_match_golden_digests(tmp_path, monkeypatch, capsys):
    # the pinned check and decompose output of the W and GHZ4 fixture
    # files, so a change to W's witness or GHZ4's residuals fails here
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    for name in ("w", "ghz4"):
        assert run(capsys, "gen", "--fixture", name, "--out", f"{name}.json")[0] == 0
        for verb in ("check", "decompose"):
            code, out, _ = run(capsys, verb, f"{name}.json")
            assert [code, rounded_digest(out)] == golden[f"{verb} {name}.json"], verb


def test_check_output_is_deterministic(tmp_path, capsys):
    w = write_fixture(tmp_path, "w", w_state())
    _, first, _ = run(capsys, "check", w)
    _, second, _ = run(capsys, "check", w)
    assert first == second


def test_out_file_matches_stdout(tmp_path, capsys):
    g = write_fixture(tmp_path, "ghz", ghz(3))
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", g, "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_decompose_joint_and_cut(tmp_path, capsys):
    g = write_fixture(tmp_path, "ghz", ghz(3))
    code, out, _ = run(capsys, "decompose", g)
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]
    assert np.allclose(doc["coefficients"], [2 ** -0.5] * 2)

    code, out, _ = run(capsys, "decompose", g, "--cut", "1,2|3")
    assert code == 0
    doc = json.loads(out)
    assert doc["bipartition"] == {"left": [1, 2], "right": [3]}
    assert doc["dims"] == [4, 2]

    w = write_fixture(tmp_path, "w", w_state())
    code, out, _ = run(capsys, "decompose", w)
    assert code == 1
    assert json.loads(out)["decomposition"] is None


def test_decompose_bipartite_default_cut(tmp_path, capsys):
    b = write_fixture(tmp_path, "bell",
                      ghz(2))
    code, out, _ = run(capsys, "decompose", b)
    assert code == 0
    assert json.loads(out)["bipartition"] == {"left": [1], "right": [2]}


def test_number_verb(tmp_path, capsys):
    w = write_fixture(tmp_path, "w", w_state())
    code, out, _ = run(capsys, "number", w, "--cut", "1|2,3")
    assert code == 0
    assert json.loads(out)["schmidt_number"] == 2


def test_spectra_verb(tmp_path, capsys):
    w = write_fixture(tmp_path, "w", w_state())
    code, out, _ = run(capsys, "spectra", w, "--cut", "1|2,3")
    assert code == 0
    values = json.loads(out)["spectrum"]
    assert np.allclose(values, [2 / 3, 1 / 3])

    code, out, _ = run(capsys, "spectra", w, "--equal")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert np.allclose(doc["spectra"]["1"], [2 / 3, 1 / 3])

    # |0> x Bell has unequal single-subsystem spectra
    state = new_state((2, 2, 2), np.kron([1, 0], ghz(2).amplitudes))
    uneq = write_fixture(tmp_path, "uneq", state)
    code, out, _ = run(capsys, "spectra", uneq, "--equal")
    assert code == 1
    assert json.loads(out)["equal"] is False


def test_spectra_equal_prints_every_cut_of_a_reject(tmp_path, capsys):
    # check's explain pass stops at the first failing cut; spectra --equal
    # still prints all 2^4 - 2 cuts
    haar = write_fixture(tmp_path, "haar", haar_random_state((2, 2, 2, 2), seed=1))
    code, out, _ = run(capsys, "spectra", haar, "--equal")
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False and len(doc["spectra"]) == 14


def test_partition_verb(tmp_path, capsys):
    code, out, _ = run(capsys, "partition", "--dims", "2,3,4,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 10
    assert doc["left"] == [1, 4]
    assert doc["summary"] == "K=10 left={1,4} right={2,3}"

    code, out, _ = run(capsys, "partition", "--dims", "2,3,4,5",
                       "--target", "7")
    assert code == 0
    assert json.loads(out)["feasible"] is True

    code, out, _ = run(capsys, "partition", "--dims", "2,3,4,5",
                       "--target", "11")
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["max_k"] == 10


def test_compose_verb(tmp_path, capsys):
    g = write_fixture(tmp_path, "ghz", ghz(3))
    code, _, _ = run(capsys, "decompose", g, "--out",
                     str(tmp_path / "left.json"))
    assert code == 0
    b = write_fixture(tmp_path, "bell", ghz(2))
    code, _, _ = run(capsys, "decompose", b, "--out",
                     str(tmp_path / "right.json"))
    assert code == 0
    # strip the bipartition annotation so the file is a plain decomposition
    for name in ("left.json", "right.json"):
        path = tmp_path / name
        doc = json.loads(path.read_text())
        doc.pop("bipartition", None)
        path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "compose", str(tmp_path / "left.json"),
                       str(tmp_path / "right.json"), "--grouping", "2,1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["coefficients"]) == 4
    assert np.allclose(doc["coefficients"], 0.5)


def test_inequality_verb(tmp_path, capsys):
    g = write_fixture(tmp_path, "ghz", ghz(3))
    z = write_fixture(tmp_path, "zero", basis_state((2, 2, 2), (0, 0, 0)))
    code, out, _ = run(capsys, "inequality", g, z,
                       "--alpha", "1,0", "--beta", "0.5,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] is True and doc["holds"] is True

    code, out, _ = run(capsys, "inequality", g, z,
                       "--alpha", "1,0", "--beta", "0.5,0",
                       "--cut", "1|2,3")
    assert code == 0
    assert json.loads(out)["mode"] == "bipartite"


def test_purify_and_link_verbs(tmp_path, capsys):
    rho = reduced_density(ghz(3), (1, 2))
    dpath = tmp_path / "rho.json"
    save_density(dpath, rho)
    code, out, _ = run(capsys, "purify", str(dpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]

    ppath = tmp_path / "pur.json"
    ppath.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "link", str(ppath), str(ppath))
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] < 1e-10
    u = np.array([[z[0] + 1j * z[1] for z in row] for row in doc["unitary"]])
    assert np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-10)


def test_link_refuses_different_states(tmp_path, capsys):
    g = write_fixture(tmp_path, "ghz", ghz(3))
    w = write_fixture(tmp_path, "w", w_state())
    code, _, err = run(capsys, "link", g, w)
    assert code == 2
    assert "DifferentStates" in err


def test_gen_verb(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--fixture", "w")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]
    rt3 = 3 ** -0.5
    assert np.allclose([p[0] for p in doc["amplitudes"]],
                       [0, rt3, rt3, 0, rt3, 0, 0, 0])

    code, out, _ = run(capsys, "gen", "--fixture", "ghz4")
    assert json.loads(out)["dims"] == [2] * 4

    code, out, _ = run(capsys, "gen", "--dims", "2,3", "--seed", "5")
    first = out
    code, out, _ = run(capsys, "gen", "--dims", "2,3", "--seed", "5")
    assert out == first
    code, out, _ = run(capsys, "gen", "--dims", "2,3", "--seed", "6")
    assert out != first

    code, out, _ = run(capsys, "gen", "--dims", "2,2,2", "--rank", "2",
                       "--label", "probe")
    assert code == 0
    assert json.loads(out)["label"] == "probe"

    code, _, err = run(capsys, "gen", "--fixture", "ghzx")
    assert code == 2
    code, _, err = run(capsys, "gen")
    assert code == 2


def test_gen_roundtrips_through_check(tmp_path, capsys):
    path = tmp_path / "state.json"
    code, _, _ = run(capsys, "gen", "--dims", "2,2,2", "--rank", "2",
                     "--seed", "9", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["decomposable"] is True

    code, _, _ = run(capsys, "gen", "--dims", "2,2,2", "--seed", "9",
                     "--out", str(path))
    code, _, _ = run(capsys, "check", str(path))
    assert code == 1


def test_usage_and_input_errors(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "check", str(tmp_path / "missing.json"))[0] == 2

    w = write_fixture(tmp_path, "w", w_state())
    code, _, err = run(capsys, "number", w, "--cut", "1,2")
    assert code == 2
    assert "MalformedCut" in err
    code, _, err = run(capsys, "number", w, "--cut", "1|1,2")
    assert code == 2
    assert "IndicesOutOfRange" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(capsys, "check", str(bad))[0] == 2

    code, _, err = run(capsys, "partition", "--dims", "2,3,4,5",
                       "--target", "0")
    assert code == 2


def test_density_negative_check(tmp_path, capsys):
    # density file for W traced to one qubit, purified, then checked
    rho = reduced_density(w_state(), (1, 2))
    dpath = tmp_path / "rho.json"
    save_density(dpath, rho)
    code, out, _ = run(capsys, "purify", str(dpath))
    assert code == 0
    spath = tmp_path / "pur.json"
    spath.write_text(out)
    code, out, _ = run(capsys, "check", str(spath))
    assert code == 1
