"""Each corpus item's verdict, stage and residual keys, as pinned.

The corpus (state_corpus.CORPUS) stays off the band near the
tolerances, where every order of the decision's steps settles the same
verdict and stage: an accept reports the gate's residuals, a
SpectraUnequal reject none.  A change that moves the stage of an item,
or the keys its report carries, fails here.
"""

import pytest

from schmidtkit import check_decomposable

from state_corpus import CORPUS

ACCEPT = (True, None, {"max_commutator", "max_ss_off_diagonal", "reconstruction",
                       "tail_orthonormality"})
# n > 3: the tail vectors are split, and the split reports its ratio
ACCEPT_SPLIT = (True, None, ACCEPT[2] | {"tail_product_ratio"})
SPECTRA = (False, "SpectraUnequal", set())

PINNED = {
    "w-3": (False, "SNotScaledUnitary", {"max_commutator", "max_off_diagonal"}),
    "w-4": SPECTRA,
    "w-5": SPECTRA,
    "w-6": SPECTRA,
    "w-7": SPECTRA,
    "w-8": SPECTRA,
    "w-9": SPECTRA,
    "w-10": SPECTRA,
    "w-11": SPECTRA,
    "w-12": SPECTRA,
    "ghz-3": ACCEPT,
    "ghz-4": ACCEPT_SPLIT,
    "ghz-5": ACCEPT_SPLIT,
    "ghz-6": ACCEPT_SPLIT,
    "ghz-7": ACCEPT_SPLIT,
    "ghz-8": ACCEPT_SPLIT,
    "rotated-ghz-3": ACCEPT,
    "rotated-ghz-4": ACCEPT_SPLIT,
    "rotated-ghz-5": ACCEPT_SPLIT,
    "rotated-ghz-6": ACCEPT_SPLIT,
    "rotated-ghz-7": ACCEPT_SPLIT,
    "rotated-ghz-8": ACCEPT_SPLIT,
    "haar-2^3": SPECTRA,
    "haar-8^3": SPECTRA,
    "haar-16^3": SPECTRA,
    "haar-32^3": SPECTRA,
    "haar-2^8": SPECTRA,
    "haar-2^10": SPECTRA,
    "haar-2^12": SPECTRA,
    "haar-2^14": SPECTRA,
    "haar-2^16": SPECTRA,
    "swap12-2^3": SPECTRA,
    "swap12-3^3": SPECTRA,
    "swap12-8^3": SPECTRA,
    "swap12-32^3": SPECTRA,
    "swap12-2^4": SPECTRA,
    "swap12-2^6": SPECTRA,
    "swap13-2^3": SPECTRA,
    "swap13-3^3": SPECTRA,
    "swap13-8^3": SPECTRA,
    "swap13-32^3": SPECTRA,
    "swap13-2^4": SPECTRA,
    "swap13-2^6": SPECTRA,
    "decomposable-3^3-r1": ACCEPT,
    "decomposable-3^3-r2": ACCEPT,
    "decomposable-3^3-r3": ACCEPT,
    "decomposable-8^3-r1": ACCEPT,
    "decomposable-8^3-r4": ACCEPT,
    "decomposable-8^3-r8": ACCEPT,
    "decomposable-2x3x4-r1": ACCEPT,
    "decomposable-2x3x4-r2": ACCEPT,
    "decomposable-2^4-r1": ACCEPT_SPLIT,
    "decomposable-2^4-r2": ACCEPT_SPLIT,
    "decomposable-4^4-r1": ACCEPT_SPLIT,
    "decomposable-4^4-r2": ACCEPT_SPLIT,
    "decomposable-4^4-r4": ACCEPT_SPLIT,
    "decomposable-2^8-r1": ACCEPT_SPLIT,
    "decomposable-2^8-r2": ACCEPT_SPLIT,
    "tie-3^3-r2": ACCEPT,
    "tie-3^3-r3": ACCEPT,
    "tie-8^3-r4": ACCEPT,
    "tie-8^3-r8": ACCEPT,
    "tie-2x3x4-r2": ACCEPT,
    "tie-2^4-r2": ACCEPT_SPLIT,
    "tie-4^4-r2": ACCEPT_SPLIT,
    "tie-4^4-r4": ACCEPT_SPLIT,
    "tie-2^8-r2": ACCEPT_SPLIT,
    "tiny-3^3": ACCEPT,
    "tiny-8^3": ACCEPT,
    "tiny-4^4": ACCEPT_SPLIT,
    "ghz-w-0.5": (False, "SlicesNotSimultaneouslyDiagonalizable", {"max_commutator"}),
    "ghz-w-1.0": (False, "SlicesNotSimultaneouslyDiagonalizable", {"max_commutator"}),
}


def test_every_corpus_item_is_pinned():
    assert list(PINNED) == list(CORPUS)


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_verdict_stage_and_residual_keys(name):
    rep = check_decomposable(CORPUS[name]())
    assert (rep.decomposable, rep.stage, set(rep.residuals)) == PINNED[name]
    assert (rep.decomposition is not None) == rep.decomposable

