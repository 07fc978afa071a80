"""Library refusals that no other test reaches: each call must raise the
named exception class with a message holding the fragment; and document
refusals of long values, whose message must stay one short line."""

import json
from fractions import Fraction as F

import pytest

from urnova import as_fraction, builtin_kernel, diagonal_family, urn_model, ustatistic
from urnova.coefficients import gamma_coeff, pair_covariance_factor, phi_coeff, psi_coeff
from urnova.conditional import cond_expectation, nested_conditional_at, symmetrized_offdiagonal
from urnova.decomposition import (
    decompose,
    degenerate_cov,
    project_level,
    wor_level_variance_printed,
)
from urnova.errors import (
    ArityMismatch,
    DegenerateAssumption,
    IndexOutOfRange,
    MissingMultiset,
    NonNumericAlphabet,
    UnknownSymbol,
    ValidationError,
    ZeroDenominator,
)
from urnova.cli import main
from urnova.models import Alphabet, Symbol, UrnModel
from urnova.weak_copy import build_weak_copy
from urnova.weak_independence import check_weak_independence, offdiagonal_functional

MODEL = urn_model([("a", 0), ("b", 1)], {"a": 1, "b": 2}, 1, 4)
MAX2 = builtin_kernel(MODEL.alphabet, 2, "max")
MAX3 = builtin_kernel(MODEL.alphabet, 3, "max")

REFUSALS = {
    "gamma_coeff-pivot": (lambda: gamma_coeff(3, 1, F(-1, 3)),
                          DegenerateAssumption, "pivot at (q=1, n=1) vanishes"),
    "gamma_coeff-index": (lambda: gamma_coeff(3, 4, 1), ValueError, "bad level k=4"),
    "phi_coeff-index": (lambda: phi_coeff(1, 2, 0, 0, 1, 1), ValueError, "bad indices"),
    "psi_coeff-index": (lambda: psi_coeff(2, 0, 3, 1, 1, 1), ValueError, "bad indices"),
    "pair_covariance_factor-index": (lambda: pair_covariance_factor(2, 3, 1),
                                     ValueError, "bad overlap r=3"),
    "cond_expectation-common": (lambda: cond_expectation(MODEL, MAX2, ("a", "b", "a")),
                                ArityMismatch, "more common values"),
    "symmetrized_offdiagonal-overlap": (lambda: symmetrized_offdiagonal(MODEL, MAX2, 2),
                                        IndexOutOfRange, "overlap 2 outside 0..1"),
    "reconstruction_value-length": (
        lambda: decompose(MODEL, MAX2, 2).reconstruction_value(("a",)),
        ArityMismatch, "need 2 labels"),
    "decompose-arity": (lambda: decompose(MODEL, MAX2, 3),
                        ArityMismatch, "arity must equal the horizon"),
    "project_level-arity": (lambda: project_level(MODEL, MAX2, 3, 1),
                            ArityMismatch, "arity must equal the horizon"),
    "degenerate_cov-arity": (lambda: degenerate_cov(MODEL, MAX2, MAX3, 1),
                             ArityMismatch, "share an arity"),
    "wor_level_variance_printed-level": (lambda: wor_level_variance_printed(5, 2, 3, 1),
                                         ZeroDenominator, "vanishing binomial"),
    "indicator-without-target": (lambda: builtin_kernel(MODEL.alphabet, 2, "indicator"),
                                 MissingMultiset, "needs a target"),
    "indicator-size": (lambda: builtin_kernel(MODEL.alphabet, 2, "indicator", ("a",)),
                       ArityMismatch, "target has size 1, requested arity 2"),
    "unknown-builtin": (lambda: builtin_kernel(MODEL.alphabet, 2, "median"),
                        ValueError, "unknown builtin kernel 'median'"),
    "ustatistic-size": (lambda: ustatistic(MAX3, 2), ArityMismatch, "below kernel arity"),
    "Alphabet.value": (lambda: Alphabet((Symbol("a"),)).value("a"),
                       NonNumericAlphabet, "'a' has no numeric value"),
    "UrnModel-alpha": (lambda: UrnModel(MODEL.alphabet, (("a", F(1)),), F(1), 3),
                       ValidationError, "alpha must assign a weight to every symbol"),
    "alpha_of": (lambda: MODEL.alpha_of("z"), UnknownSymbol, "unknown symbol 'z'"),
    "build_weak_copy-seed-arity": (lambda: build_weak_copy(MODEL, 1, MAX3, F(1, 2)),
                                   ArityMismatch, "seed statistic must have arity 2"),
    "check_weak_independence-level": (lambda: check_weak_independence(MODEL, 0),
                                      ValidationError, "level must be at least 1"),
    "offdiagonal_functional-symbol": (lambda: offdiagonal_functional(MODEL, ("q",), 0),
                                      UnknownSymbol, "unknown symbol 'q'"),
    "offdiagonal_functional-overlap-high": (lambda: offdiagonal_functional(MODEL, ("a",), 2),
                                            IndexOutOfRange, "overlap 2 outside 0..1"),
    "offdiagonal_functional-overlap-low": (lambda: offdiagonal_functional(MODEL, ("a",), -1),
                                           IndexOutOfRange, "overlap -1 outside 0..1"),
    "nested_conditional_at-values": (
        lambda: nested_conditional_at(MODEL, MAX2, (1,), (2,), ("a", "b")),
        ArityMismatch, "2 values for an observed block of 1 coordinates"),
    "DiagonalFamily.value-arity": (lambda: diagonal_family(MODEL, MAX2).value(("a", "b", "a")),
                                   ArityMismatch, "arity 2 evaluated on 3 labels"),
    "as_fraction-zero-denominator": (lambda: as_fraction("1/0"),
                                     ValidationError, "not an exact rational: '1/0'"),
    "as_fraction-decimal": (lambda: as_fraction("0.5"),
                            ValidationError, "not an exact rational: '0.5'"),
    "as_fraction-exponent": (lambda: as_fraction("1e50"),
                             ValidationError, "not an exact rational: '1e50'"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, exception, fragment = REFUSALS[name]
    with pytest.raises(exception) as refusal:
        call()
    assert type(refusal.value) is exception
    assert fragment in str(refusal.value)


# a repr of up to 40 characters is shown whole
@pytest.mark.parametrize("value, shown", [
    ("x" * 38, "'" + "x" * 38 + "'"),
    ("x" * 39, "'" + "x" * 39 + "... (41 characters)"),
    ("1" * 5000, "'" + "1" * 39 + "... (5002 characters)"),
])
def test_a_long_refused_value_is_cut_in_the_message(value, shown):
    with pytest.raises(ValidationError) as refusal:
        as_fraction(value)
    assert str(refusal.value) == f"not an exact rational: {shown}"


# a model document whose alpha is refused, and the cut echo of the refusal
@pytest.mark.parametrize("alpha, echo", [
    (["x" * 5000], "alpha must map labels to weights, not ['" + "x" * 38
     + "... (5004 characters)"),
    ({"x" * 5000: "bad"}, "alpha['" + "x" * 39 + "... (5002 characters)]: not a rational: 'bad'"),
], ids=["alpha-list", "alpha-key"])
def test_a_long_document_value_is_cut_in_the_message(tmp_path, capsys, alpha, echo):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"symbols": [{"label": "a"}], "alpha": alpha, "c": "1",
                                "length": 2}))
    assert main(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error[parse]: {path}: {echo}\n"
    assert len(err) < 200


def test_a_long_multiplicity_is_cut_in_the_message(tmp_path, capsys):
    model, kernel = tmp_path / "m.json", tmp_path / "k.json"
    model.write_text(json.dumps({"symbols": [{"label": "a"}], "alpha": {"a": "1"}, "c": "1",
                                 "length": 2}))
    kernel.write_text(json.dumps({"arity": 1, "entries": [{"multiset": {"a": "x" * 5000},
                                                           "value": "1"}]}))
    assert main(["decompose", "--model", str(model), "--kernel", str(kernel), "--M", "1"]) == 2
    assert capsys.readouterr().err == (f"error[parse]: {kernel}: entries[0].multiset: bad "
                                       f"multiplicity for 'a': '{'x' * 39}... (5002 characters)\n")
