"""CLI verbs, exit codes, and deterministic output."""

import ast
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
    dumps_canonical,
    ghz,
    haar_random_state,
    max_schmidt_number,
    new_state,
    random_decomposition,
    rank_inequality_check,
    reduced_density,
    save_decomposition,
    save_density,
    save_state,
    w_state,
)
from schmidtkit import cli, partition
from schmidtkit.cli import main, parse_cut, parse_grouping

RT2 = 2 ** -0.5


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


# the argv of every golden label, as the benchmark's cli_files runs them
GOLDEN_ARGV = {
    "gen w": ["gen", "--fixture", "w", "--out", "w.json"],
    "gen ghz4": ["gen", "--fixture", "ghz4", "--out", "ghz4.json"],
    **{label: argv for f, cut in (("w.json", "1|2,3"), ("ghz4.json", "1,2|3,4"))
       for label, argv in ((f"check {f}", ["check", f]),
                           (f"decompose {f}", ["decompose", f]),
                           (f"decompose --cut {f}", ["decompose", f, "--cut", cut]),
                           (f"number {f}", ["number", f, "--cut", cut]),
                           (f"spectra {f}", ["spectra", f]),
                           (f"spectra --equal {f}", ["spectra", f, "--equal"]))},
    "partition qubits16": ["partition", "--dims", ",".join(["2"] * 16)],
}


def test_fixture_reports_match_golden_digests(tmp_path, monkeypatch, capsys):
    # the pinned output of every golden label: the W and GHZ4 fixture files,
    # each verb read on them, and the 16-qubit partition, so a change to
    # W's witness, GHZ4's residuals or a spectra table fails here
    golden = json.loads(GOLDEN.read_text())
    assert sorted(GOLDEN_ARGV) == sorted(golden)
    monkeypatch.chdir(tmp_path)
    for label, argv in GOLDEN_ARGV.items():
        code, out, _ = run(capsys, *argv)
        assert [code, rounded_digest(out)] == golden[label], label


def test_check_on_nan_state_file_is_a_usage_error(tmp_path, capsys):
    # exit 2, not 1 ("not decomposable") from a LinAlgError traceback
    path = tmp_path / "nan.json"
    path.write_text('{"version": 1, "dims": [2, 2, 2], "amplitudes": '
                    '[[NaN, 0]' + ', [0, 0]' * 6 + ', [1, 0]]}')
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert "norm" in err


@pytest.mark.parametrize("verb, body, shown", [
    ("check", '"dims": [2, 2], "amplitudes": [[NaN, 0], [0, 0], [0, 0], [1, 0]]',
     "norm nan differs"),
    ("check", '"dims": [2, 2], "amplitudes": [[Infinity, 0], [0, 0], [0, 0], [1, 0]]',
     "norm inf differs"),
    ("purify", '"dims": [2], "entries": [[0.6, 0], [0, 0], [0, 0], [0.5, 0]]',
     "trace (1.1+0j) is not 1"),
], ids=["nan", "inf", "trace"])
def test_container_errors_show_plain_numbers(tmp_path, capsys, verb, body, shown):
    # a user reads Python's numbers, not numpy's repr of its scalars
    path = tmp_path / "in.json"
    path.write_text(f'{{"version": 1, {body}}}')
    code, out, err = run(capsys, verb, str(path))
    assert code == 2 and out == ""
    assert shown in err and "np." not in err


@pytest.mark.parametrize("entries, error", [
    ("[[0.6, 0], [0, 0], [0, 0], [0.5, 0]]", "NotNormalizable"),
    ("[[0.5, 0], [0.1, 0], [0, 0], [0.5, 0]]", "NotPSD"),
], ids=["trace", "hermiticity"])
def test_density_file_with_fine_dims_is_refused_by_its_fault(tmp_path, capsys, entries, error):
    # dims [2] and a 2x2 matrix agree: a trace off 1 is a normalisation
    # fault and a matrix that is not Hermitian a positivity one, and
    # neither is named DimensionMismatch
    path = tmp_path / "rho.json"
    path.write_text(f'{{"version": 1, "dims": [2], "entries": {entries}}}')
    code, out, err = run(capsys, "purify", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}: ")


def test_check_output_is_deterministic(tmp_path, capsys):
    w = write_fixture(tmp_path, "w", w_state())
    _, first, _ = run(capsys, "check", w)
    _, second, _ = run(capsys, "check", w)
    assert first == second


@pytest.mark.parametrize("argv, want", [
    (["check", "{ghz}"], 0),
    (["check", "{w}"], 1),
    (["decompose", "{ghz}", "--cut", "1|2,3"], 0),
    (["decompose", "{w}"], 1),
    (["number", "{w}", "--cut", "1|2,3"], 0),
    (["spectra", "{w}"], 0),
    (["spectra", "{haar}", "--equal"], 1),
    (["partition", "--dims", "2,3,4,5"], 0),
    (["partition", "--dims", "2,3,4,5", "--target", "7"], 0),
    (["partition", "--dims", "2,3,4,5", "--target", "11"], 1),
    (["compose", "{left}", "{right}", "--grouping", "2,1"], 0),
    (["inequality", "{ghz}", "{zero}", "--alpha", "1,0", "--beta", "0.5,0"], 0),
    (["inequality", "{e1}", "{e2}", "--alpha", "1,0", "--beta", "1,0"], 1),
    (["purify", "{rho}"], 0),
    (["link", "{ghz}", "{ghz}"], 0),
    (["gen", "--fixture", "w"], 0),
], ids=["check-ghz", "check-w", "decompose-cut", "decompose-w", "number", "spectra",
        "spectra-equal-haar", "partition", "partition-feasible", "partition-infeasible",
        "compose", "inequality", "inequality-inapplicable", "purify", "link", "gen"])
def test_out_file_matches_stdout(argv, want, tmp_path, capsys):
    # every verb, its negative verdicts included, writes the same bytes to
    # --out as to stdout
    files = {name: write_fixture(tmp_path, name, state) for name, state in (
        ("ghz", ghz(3)), ("w", w_state()), ("haar", haar_random_state((2, 2, 2), seed=1)),
        ("zero", basis_state((2, 2, 2), (0, 0, 0))), ("e1", basis_state((2, 2, 2), (0, 0, 1))),
        ("e2", basis_state((2, 2, 2), (0, 1, 0))))}
    for name, dims in (("left", (2, 2, 3)), ("right", (2, 2))):
        files[name] = str(tmp_path / f"{name}.json")
        save_decomposition(files[name], random_decomposition(dims, 2, seed=5))
    files["rho"] = str(tmp_path / "rho.json")
    save_density(files["rho"], reduced_density(ghz(3), (1, 2)))
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, *[arg.format(**files) for arg in argv], "--out", str(target))
    assert code == want
    assert target.read_bytes() == out.encode()


def test_cli_writes_reports_only_in_main():
    # one write path: the verbs return their reports and main alone writes
    # --out and stdout, so a second copy of either write fails here
    tree = ast.parse(Path(cli.__file__).read_text())

    def writes(node):
        calls = [ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)]
        return sorted("write_text" if name.endswith(".write_text") else name for name in calls
                      if name == "sys.stdout.write" or name.endswith(".write_text"))

    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert writes(tree) == writes(main_def) == ["sys.stdout.write", "write_text"]


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

    # without --cut, the spectrum of subsystem 1
    code, out, _ = run(capsys, "spectra", w)
    assert code == 0
    doc = json.loads(out)
    assert doc["keep"] == [1] and np.allclose(doc["spectrum"], [2 / 3, 1 / 3])

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


def test_spectra_equal_prints_the_deciding_cut_of_a_reject(tmp_path, capsys):
    # spectra --equal stops at the first failing cut, and check's certified
    # reject reports that walk, so both print site 1 and that cut, (1, 2) for Haar
    haar = write_fixture(tmp_path, "haar", haar_random_state((2, 2, 2, 2), seed=1))
    code, out, _ = run(capsys, "spectra", haar, "--equal")
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False and list(doc["spectra"]) == ["1", "1,2"]
    code, out, _ = run(capsys, "check", haar)
    assert code == 1
    assert json.loads(out)["witness"]["spectra"] == doc["spectra"]


def test_spectra_equal_on_an_unequal_file_prints_site_one_and_the_deciding_cut(
        tmp_path, capsys):
    # a Bell pair on subsystems 1 and 3, subsystem 2 in |0>: the cut (1, 2)
    # has site 3's spectrum, equal to site 1's, and (1, 3) is pure, so the
    # walk stops there and prints the two spectra's nonzero entries only
    amps = np.zeros((2, 2, 2))
    amps[0, 0, 0] = amps[1, 0, 1] = RT2
    path = write_fixture(tmp_path, "bell13", new_state((2, 2, 2), amps.reshape(-1)))
    code, out, _ = run(capsys, "spectra", path, "--equal")
    assert code == 1
    doc = json.loads(out)
    assert doc["equal"] is False and list(doc["spectra"]) == ["1", "1,3"]
    assert np.allclose(doc["spectra"]["1"], [0.5, 0.5], atol=1e-15)
    assert np.allclose(doc["spectra"]["1,3"], [1.0], atol=1e-15)


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

    # |001> + |010> is |0> times a Bell pair: both terms are decomposable,
    # their sum is not, so the joint ranks have nothing to compare
    e1 = write_fixture(tmp_path, "e1", basis_state((2, 2, 2), (0, 0, 1)))
    e2 = write_fixture(tmp_path, "e2", basis_state((2, 2, 2), (0, 1, 0)))
    code, out, _ = run(capsys, "inequality", e1, e2, "--alpha", "1,0", "--beta", "1,0")
    assert code == 1
    doc = json.loads(out)
    assert doc["applicable"] is False and doc["rank_psi"] is None
    assert doc["detail"] == "superposition is not decomposable; inequality not applicable"


def test_inequality_reads_negative_parts_after_equals(tmp_path, capsys):
    phi, gamma = ghz(3), haar_random_state((2, 2, 2), seed=1)
    cut = Bipartition((1,), (2, 3))
    want = rank_inequality_check(phi, gamma, 1, -1, cut)
    code, out, _ = run(capsys, "inequality", write_fixture(tmp_path, "phi", phi),
                       write_fixture(tmp_path, "gamma", gamma),
                       "--alpha=1,0", "--beta=-1,0", "--cut", "1|2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["mode"] == "bipartite"
    assert (doc["rank_phi"], doc["rank_gamma"], doc["rank_psi"]) == \
        (want.rank_phi, want.rank_gamma, want.rank_psi)


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
    code, out, _ = run(capsys, "gen", "--fixture", "bell")
    doc = json.loads(out)
    assert doc["dims"] == [2, 2]
    assert np.allclose([p[0] for p in doc["amplitudes"]], [RT2, 0, 0, RT2])

    code, out, _ = run(capsys, "gen", "--dims", "2,3", "--seed", "5")
    first = out
    code, out, _ = run(capsys, "gen", "--dims", "2,3", "--seed", "5")
    assert out == first
    code, out, _ = run(capsys, "gen", "--dims", "2,3", "--seed", "6")
    assert out != first
    # no --seed is seed 0
    assert run(capsys, "gen", "--dims", "2,3")[1] == \
        run(capsys, "gen", "--dims", "2,3", "--seed", "0")[1]

    code, out, _ = run(capsys, "gen", "--dims", "2,2,2", "--rank", "2",
                       "--label", "probe")
    assert code == 0
    assert json.loads(out)["label"] == "probe"

    code, _, err = run(capsys, "gen", "--fixture", "ghzx")
    assert code == 2
    code, _, err = run(capsys, "gen")
    assert code == 2


def test_gen_negative_seed_writes_nothing(tmp_path, capsys):
    # the generators refuse the seed, so neither --out nor stdout is written
    path = tmp_path / "state.json"
    for extra in ([], ["--rank", "2"]):
        code, out, err = run(capsys, "gen", "--dims", "2,2,2", "--seed", "-1",
                             "--out", str(path), *extra)
        assert (code, out) == (2, "")
        assert err == "error: InvalidArgs: seed must be a nonnegative integer, got -1\n"
        assert not path.exists()


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
    assert "InvalidArgs: target must be a positive integer, got 0" in err


STATE_WITH = '{"version": 1, "dims": [2], "amplitudes": [[1, 0], [%s, 0]]}'
DECOMPOSITION_WITH = '{"version": 1, "dims": [2, 2], "coefficients": [%s], "subsystems": %s}'
QUBIT_FAMILY = "[[[1, 0], [0, 0]]]"
RAGGED_FAMILY = "[[[1, 0], [0, 0]], [[0, 1]]]"  # its second vector is one entry short


@pytest.mark.parametrize("argv, content", [
    (["check", "{f}"], None),
    (["check", "{f}"], b'{"version": 1, "dims": [2], "label": "\xff"}'),
    (["check", "{f}"], STATE_WITH % ("1" + "0" * 400)),
    (["check", "{f}"], STATE_WITH % ("1" * 5000)),
    (["check", "{f}"], "[" * 100000 + "]" * 100000),
    (["compose", "{f}", "{f}", "--grouping", "1,1"],
     DECOMPOSITION_WITH % ("0.8, 0.6", f"[{RAGGED_FAMILY}, {RAGGED_FAMILY}]")),
    (["compose", "{f}", "{f}", "--grouping", "1,1"],
     DECOMPOSITION_WITH % ("1" + "0" * 400, f"[{QUBIT_FAMILY}, {QUBIT_FAMILY}]")),
    (["gen", "--fixture", "w", "--out", "{f}"], None),
], ids=["directory", "not-utf8", "float-overflow", "int-digit-limit", "deep-nesting",
        "ragged-family", "coefficient-overflow", "out-directory"])
def test_unreadable_and_malformed_files_exit_2(tmp_path, capsys, argv, content):
    # a file the loaders cannot read or --out cannot write is an input
    # error, never a traceback with exit 1, the code of a negative verdict,
    # and leaves stdout empty; None makes f a directory
    path = tmp_path / "in.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = run(capsys, *[arg.format(f=path) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("target, code, doc", [
    (None, 0, {"dims": [2, 3, 4, 5], "k": 10, "left": [1, 4], "right": [2, 3],
               "left_product": 10, "right_product": 12,
               "summary": "K=10 left={1,4} right={2,3}"}),
    ("10", 0, {"dims": [2, 3, 4, 5], "k": 10, "left": [1, 4], "right": [2, 3],
               "left_product": 10, "right_product": 12, "target": 10, "feasible": True,
               "summary": "K=10 >= 10 via left={1,4}"}),
    ("11", 1, {"dims": [2, 3, 4, 5], "target": 11, "feasible": False, "max_k": 10,
               "summary": "infeasible: max K=10 < 11"}),
], ids=["no-target", "feasible", "infeasible"])
def test_partition_solves_once(monkeypatch, capsys, target, code, doc):
    solves = []

    def counted(dims):
        solves.append(dims)
        return max_schmidt_number(dims)

    # decide reaches the solver through the partition module, the CLI through its own name
    monkeypatch.setattr(partition, "max_schmidt_number", counted)
    monkeypatch.setattr(cli, "max_schmidt_number", counted)
    argv = ["partition", "--dims", "2,3,4,5"] + (["--target", target] if target else [])
    assert run(capsys, *argv) == (code, dumps_canonical(doc), "")
    assert len(solves) == 1


@pytest.mark.parametrize("argv, message", [
    (["inequality", "{ghz}", "{ghz}", "--alpha", "1", "--beta", "0,0"],
     "InvalidArgs: --alpha '1' must be 're,im'"),
    (["inequality", "{ghz}", "{ghz}", "--alpha", "a,b", "--beta", "0,0"],
     "InvalidArgs: --alpha 'a,b' must be 're,im'"),
    (["gen", "--fixture", "dicke"], "InvalidArgs: unknown fixture 'dicke'"),
    (["link", "{qubit}", "{qubit}"],
     "TooFewSubsystems: a purification needs a reference subsystem, got dims (2,)"),
    # argparse reads a value that starts with "-" as an option: write --beta=-1,0
    (["inequality", "{ghz}", "{ghz}", "--alpha", "1,0", "--beta", "-1,0"],
     "argument --beta: expected one argument"),
    # only gen takes --seed (test_gen_verb checks that it changes the state)
    (["number", "{ghz}", "--cut", "1|2,3", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["check", "{ghz}", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["decompose", "{ghz}", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["inequality", "{ghz}", "{ghz}", "--alpha", "1,0", "--beta", "0,1", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    # options that would otherwise be ignored
    (["spectra", "{ghz}", "--equal", "--cut", "1|2,3"],
     "argument --cut: not allowed with argument --equal"),
    (["gen", "--fixture", "w", "--dims", "2,2", "--rank", "1"],
     "argument --dims: not allowed with argument --fixture"),
    # a fixture takes neither, not even the default seed spelled out
    (["gen", "--fixture", "w", "--rank", "1", "--seed", "5"],
     "InvalidArgs: --rank and --seed need --dims, not --fixture"),
    (["gen", "--fixture", "ghz4", "--seed", "0"],
     "InvalidArgs: --rank and --seed need --dims, not --fixture"),
    (["gen", "--fixture", "bell", "--rank", "1"],
     "InvalidArgs: --rank and --seed need --dims, not --fixture"),
    # the generators' own seed check
    (["gen", "--dims", "2,2", "--seed", "-1"],
     "InvalidArgs: seed must be a nonnegative integer, got -1"),
    (["gen", "--dims", "2,2,2", "--rank", "2", "--seed", "-1"],
     "InvalidArgs: seed must be a nonnegative integer, got -1"),
    (["gen", "--dims", "2,-1,2"], "DimensionMismatch: dimensions must be positive integers"),
    (["gen", "--fixture", "ghz1000"], "DimensionMismatch: dims multiply to"),
], ids=["alpha-one-part", "alpha-not-float", "unknown-fixture", "link-one-subsystem",
        "beta-negative-without-equals", "number-seed", "check-seed", "decompose-seed",
        "inequality-seed", "spectra-equal-and-cut", "gen-fixture-and-dims",
        "gen-fixture-rank-and-seed", "gen-fixture-default-seed", "gen-fixture-rank",
        "gen-negative-seed", "gen-rank-negative-seed", "gen-negative-dim", "gen-fixture-too-large"])
def test_cli_argument_errors_exit_2(argv, message, tmp_path, capsys):
    files = {"ghz": write_fixture(tmp_path, "ghz", ghz(3)),
             "qubit": write_fixture(tmp_path, "qubit", basis_state((2,), (0,)))}
    code, _, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("alpha, beta, name, value", [
    ("nan,0", "1,0", "alpha", "(nan+0j)"),
    ("inf,0", "1,0", "alpha", "(inf+0j)"),
    ("1,0", "0,-inf", "beta", "-infj"),
], ids=["alpha-nan", "alpha-inf", "beta-minus-inf"])
def test_inequality_non_finite_scalar_exits_2(alpha, beta, name, value, tmp_path, capsys):
    g = write_fixture(tmp_path, "ghz", ghz(3))
    code, out, err = run(capsys, "inequality", g, g, f"--alpha={alpha}", f"--beta={beta}")
    assert (code, out) == (2, "")
    assert err == f"error: InvalidArgs: {name} must be finite, got {value}\n"


@pytest.mark.parametrize("size", ["1e300", "1e308"])
def test_inequality_takes_large_finite_scalars(size, tmp_path, capsys):
    # the combination's norm overflowed: numpy warned and the verb exited 2
    g = write_fixture(tmp_path, "ghz", ghz(3))
    want = run(capsys, "inequality", g, g, "--alpha=1,0", "--beta=1,0")
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, "inequality", g, g, f"--alpha={size},0", f"--beta={size},0") == want


def test_memory_error_exits_2_with_one_line(monkeypatch, capsys):
    # numpy raises MemoryError for a state too large to allocate, as for
    # gen --fixture ghz40; exit 1 would read as a negative verdict
    def too_large(args):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(cli, "_cmd_gen", too_large)
    code, out, err = run(capsys, "gen", "--fixture", "ghz40")
    assert (code, out) == (2, "")
    assert err == "error: MemoryError: Unable to allocate 16.0 TiB for an array\n"


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
