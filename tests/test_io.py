"""JSON round trips and document validation."""

import json

import numpy as np
import pytest

from schmidtkit import (
    Bipartition,
    DecomposabilityReport,
    InvalidArgs,
    check_decomposable,
    dumps_canonical,
    ghz,
    haar_random_state,
    load_decomposition,
    load_density,
    load_state,
    new_state,
    pure_density,
    random_decomposable_state,
    report_to_dict,
    save_decomposition,
    save_density,
    save_state,
    schmidt_decompose_bipartite,
    w_state,
)
from schmidtkit.io import complex_pairs, decomposition_to_dict
from test_multipartite import eps_band_state, eqspec_state, w_qubits
from test_tolerances import near_product_tail


def test_state_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    state = new_state((3, 4), amps / np.linalg.norm(amps), label="sample")
    path = tmp_path / "s.json"
    save_state(path, state)
    back = load_state(path)
    assert back.dims == (3, 4)
    assert back.label == "sample"
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_state_load_renormalizes(tmp_path):
    # writer quantized the amplitudes; loader repairs the norm drift
    doc = {"version": 1, "dims": [2],
           "amplitudes": [[0.7071068, 0.0], [0.7071068, 0.0]]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    state = load_state(path)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_density_round_trip_exact(tmp_path):
    rho = pure_density(w_state())
    path = tmp_path / "d.json"
    save_density(path, rho)
    back = load_density(path)
    assert back.dims == (2, 2, 2)
    assert np.array_equal(back.entries, rho.entries)


def test_decomposition_round_trip_exact(tmp_path):
    dec = schmidt_decompose_bipartite(
        ghz(3), Bipartition((1,), (2, 3))).decomposition
    path = tmp_path / "dec.json"
    save_decomposition(path, dec)
    back = load_decomposition(path)
    assert back.dims == dec.dims
    assert np.array_equal(back.coefficients, dec.coefficients)
    for mine, theirs in zip(back.vectors, dec.vectors):
        assert np.array_equal(mine, theirs)


def test_decomposition_dict_carries_bipartition():
    cut = Bipartition((1, 3), (2,))
    dec = schmidt_decompose_bipartite(ghz(3), cut).decomposition
    doc = decomposition_to_dict(dec, cut)
    assert doc["bipartition"] == {"left": [1, 3], "right": [2]}
    assert "bipartition" not in decomposition_to_dict(dec)


def test_dumps_canonical_is_deterministic():
    doc = {"b": [1.0, 2.0], "a": {"z": 1, "k": [0.5]}}
    text = dumps_canonical(doc)
    assert text == dumps_canonical(dict(reversed(list(doc.items()))))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_dumps_canonical_rejects_nan():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("version"), "version"),
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(version=1.0), "version"),
    (lambda d: d.update(dims=[2, 0]), "dims"),
    (lambda d: d.update(dims="2"), "dims"),
    (lambda d: d.update(amplitudes=[[0.5, 0.0, 0.0]] * 2), "pair"),
    (lambda d: d.update(amplitudes=[["a", 0.0]] * 2), "pair"),
    (lambda d: d.update(amplitudes=[[1.0, 0.0]]), "amplitudes"),
    (lambda d: d.update(amplitudes="1,0"), "must be a list"),
    (lambda d: d.update(label=7), "label"),
])
def test_state_document_validation(tmp_path, mutate, message):
    doc = {"version": 1, "dims": [2],
           "amplitudes": [[1.0, 0.0], [0.0, 0.0]], "label": "x"}
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgs, match=message):
        load_state(path)


STATE_DOC = {"version": 1, "dims": [1, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
DECOMPOSITION_DOC = {"version": 1, "dims": [1, 1], "coefficients": [1.0],
                     "subsystems": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}


@pytest.mark.parametrize("load, doc, message", [
    (load_state, {**STATE_DOC, "version": True}, "version"),
    (load_state, {**STATE_DOC, "dims": [True, 2]}, "dims"),
    (load_state, {**STATE_DOC, "amplitudes": [[True, False], [0.0, 0.0]]}, "pair"),
    (load_density, {"version": 1, "dims": [1], "entries": [[True, 0.0]]}, "pair"),
    (load_decomposition, {**DECOMPOSITION_DOC, "coefficients": [True]}, "coefficients"),
    (load_decomposition, {**DECOMPOSITION_DOC, "subsystems": [[[[True, 0.0]]], [[[1.0, 0.0]]]]},
     "pair"),
], ids=["version", "dims", "amplitude", "density-entry", "coefficient", "family-vector"])
def test_json_booleans_are_not_numbers(tmp_path, load, doc, message):
    # bool is an int in Python, so true would pass as 1 without its own
    # check; the same document with numbers in place of the booleans loads
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgs, match=message):
        load(path)
    path.write_text(json.dumps(doc).replace("true", "1").replace("false", "0"))
    load(path)


def test_non_json_and_non_object_inputs(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidArgs, match="not valid JSON"):
        load_state(path)
    path.write_text("[1, 2]")
    with pytest.raises(InvalidArgs, match="top level"):
        load_state(path)


def test_density_entry_count_checked(tmp_path):
    doc = {"version": 1, "dims": [2], "entries": [[1.0, 0.0]] * 3}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgs, match="entries"):
        load_density(path)


def test_decomposition_document_validation(tmp_path):
    base = {
        "version": 1, "dims": [2, 2], "coefficients": [1.0],
        "subsystems": [[[[1.0, 0.0], [0.0, 0.0]]],
                       [[[1.0, 0.0], [0.0, 0.0]]]],
    }
    path = tmp_path / "dec.json"

    doc = dict(base)
    doc["coefficients"] = "1"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgs, match="coefficients"):
        load_decomposition(path)

    doc = dict(base)
    doc["subsystems"] = doc["subsystems"][:1]
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgs, match="one family per subsystem"):
        load_decomposition(path)

    doc = dict(base)
    doc["subsystems"] = [doc["subsystems"][0] * 2, doc["subsystems"][1]]
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgs, match="one vector per coefficient"):
        load_decomposition(path)


def test_report_to_dict_rejection_shape():
    doc = report_to_dict(check_decomposable(w_state()))
    assert doc["verdict"] == "NotDecomposable"
    assert doc["decomposable"] is False
    assert doc["stage"] == "SNotScaledUnitary"
    assert doc["decomposition"] is None
    ss = np.array(doc["witness"]["ss_dagger"])
    assert np.max(np.abs(ss - np.array([[1, 1], [1, 2]]) / 3)) < 1e-12
    assert set(doc["tolerances"]) == {"rank_tol", "diag_tol", "orth_tol",
                                      "seed"}
    # whole document must be serializable deterministically
    text = dumps_canonical(doc)
    assert json.loads(text)["stage"] == "SNotScaledUnitary"


def test_report_to_dict_acceptance_shape():
    doc = report_to_dict(check_decomposable(ghz(3)))
    assert doc["decomposable"] is True
    assert doc["decomposition"]["dims"] == [2, 2, 2]
    assert doc["residuals"]["reconstruction"] < 1e-12
    dumps_canonical(doc)


def test_report_to_dict_converts_complex_and_passes_the_rest():
    # a complex matrix becomes rows of [re, im] pairs; strings and None
    # are left as they are
    rep = DecomposabilityReport(
        False, "SNotScaledUnitary",
        {"ss_dagger": np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, 2.0]]),
         "note": "overlap", "missing": None})
    doc = report_to_dict(rep)
    assert doc["witness"] == {
        "ss_dagger": [[[1.0, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.0, 0.0]]],
        "note": "overlap", "missing": None}
    assert doc["residuals"] == {}
    assert json.loads(dumps_canonical(doc))["witness"] == doc["witness"]


def test_report_to_dict_keeps_bools_and_gives_1d_complex_flat_pairs():
    # a bool stays a bool (it is also an int), and a 1-D complex array
    # gets one flat list of pairs, the nesting a 1-D real array gets
    rep = DecomposabilityReport(
        False, "SNotScaledUnitary",
        {"flag": True, "diagonal": np.array([1 + 1j, 2]), "real": np.array([1.0, 2.0])})
    doc = report_to_dict(rep)
    assert doc["witness"] == {"flag": True,
                              "diagonal": [[1.0, 1.0], [2.0, 0.0]], "real": [1.0, 2.0]}
    assert type(doc["witness"]["flag"]) is bool
    text = dumps_canonical(doc)
    assert '"flag": true' in text
    assert json.loads(text)["witness"] == doc["witness"]


def report_corpus():
    """Reports of every stage, no-pair and missed-rebuild rejects among them."""
    states = [w_qubits(n) for n in range(3, 9)] + [ghz(n) for n in range(3, 7)]
    for dims in [(2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2)]:
        states += [random_decomposable_state(dims, rank, seed=rank)
                   for rank in range(1, min(dims) + 1)]
        states.append(haar_random_state(dims, seed=1))
    states += [eps_band_state((2, 2, 2), eps, seed)
               for eps in (1e-8, 3e-8, 1e-7) for seed in range(10)]
    states += [eqspec_state(), near_product_tail(1e-5)]
    return [check_decomposable(state) for state in states]


def test_report_values_are_what_report_to_dict_converts():
    # report_to_dict converts arrays alone: every other value must
    # already be a float, an int or the str -> list of float spectra
    # table, so a numpy or complex scalar fails here, not in json.dumps
    reports = report_corpus()
    assert {r.stage for r in reports} == {None, "SpectraUnequal", "SNotScaledUnitary",
                                          "SlicesNotSimultaneouslyDiagonalizable"}
    assert any("max_off_diagonal" in r.residuals for r in reports)  # no pair, as W
    assert any("reconstruction" in r.witness for r in reports)
    for report in reports:
        for name, value in report.witness.items():
            if name == "spectra":
                assert type(value) is dict and value
                for key, spectrum in value.items():
                    assert type(key) is str and type(spectrum) is list
                    assert all(type(x) is float for x in spectrum)
            else:
                assert type(value) in (float, int) or isinstance(value, np.ndarray), name
        for name, value in {**report.residuals, **report.tolerances_used}.items():
            assert type(value) in (float, int), name
        doc = report_to_dict(report)
        assert json.loads(dumps_canonical(doc)) == doc


def per_element_pairs(values: np.ndarray) -> list:
    """The encoding complex_pairs replaced: one [re, im] per element, nested by hand."""
    if values.ndim > 1:
        return [per_element_pairs(row) for row in values]
    return [[float(z.real), float(z.imag)] for z in values]


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)], ids=str)
def test_complex_pairs_keeps_shape_and_per_element_text(shape):
    rng = np.random.default_rng(len(shape))
    size = int(np.prod(shape))
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    values *= 10.0 ** rng.integers(-320, 300, size)  # subnormals to near overflow
    values[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 5e-324j]
    values = values.reshape(shape)
    pairs = complex_pairs(values)
    assert np.array(pairs).shape == shape + (2,)
    assert json.dumps(pairs) == json.dumps(per_element_pairs(values))
    assert "-0.0" in json.dumps(pairs) and "5e-324" in json.dumps(pairs)
