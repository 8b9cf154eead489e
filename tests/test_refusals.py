"""Refusals that no other test reached, found by scripts/line_trace.py: one row per message."""

import numpy as np
import pytest

import skewdrift as sd
from skewdrift.drift import UNKNOWN, UP
from skewdrift.errors import (
    FamilyRangeError,
    IncompatibleProductsError,
    InvalidMatrixError,
    InvalidRegionError,
    WindowTooShortError,
)

from conftest import FULL2, GOLDEN

FULL = sd.TransitionSystem(np.array(FULL2))
FULL_CHAIN = sd.MarkovChain(FULL, np.full((2, 2), 0.5))
GOLDEN_SYSTEM = sd.TransitionSystem(np.array(GOLDEN))
GOLDEN_CHAIN = sd.MarkovChain(GOLDEN_SYSTEM, np.array([[2 / 3, 1 / 3], [1.0, 0.0]]))
MAP = sd.Affine(0.1, 0.8)
PARAMS = ({"a": 0.1, "b": 0.8}, {"a": 0.12, "b": 0.8})
CERTIFICATE = sd.DriftCertificate("up", sd.StepGraph.constant(FULL, 0.5), 1e-3, "0" * 16)


def _constant(system, chain):
    return sd.MultistepSkewProduct(system, chain, (0, 0), dict.fromkeys(system.words(1), MAP))


REFUSALS = {
    "system-of-one-symbol": (lambda: sd.TransitionSystem(np.array([[1]])),
                             InvalidMatrixError, "alphabet size must be at least 2"),
    "word-length-zero": (lambda: FULL.word_array(0), ValueError, "word length must be >= 1"),
    "stationary-not-square": (lambda: sd.stationary_distribution(np.full((2, 3), 1 / 3)),
                              InvalidMatrixError, "stochastic matrix must be square and nonempty"),
    "stationary-entry-outside": (lambda: sd.stationary_distribution([[1.5, -0.5], [0.5, 0.5]]),
                                 InvalidMatrixError, "stochastic entries must lie in [0, 1]"),
    "stationary-row-sum": (lambda: sd.stationary_distribution([[0.5, 0.4], [0.5, 0.5]]),
                           InvalidMatrixError, "stochastic rows must sum to 1 within 1e-12"),
    "chain-shape": (lambda: sd.MarkovChain(FULL, np.full((3, 3), 1 / 3)),
                    InvalidMatrixError, "stochastic matrix shape must match the transition matrix"),
    "chain-support": (lambda: sd.MarkovChain(GOLDEN_SYSTEM, np.full((2, 2), 0.5)),
                      InvalidMatrixError, "stochastic support must match the transition pattern exactly"),
    "window-empty": (lambda: sd.SymbolWindow(0, ()), ValueError, "window must be nonempty"),
    "window-symbol-outside": (lambda: sd.SymbolWindow(-1, (1, 2, 1)).symbol(2),
                              WindowTooShortError, "symbol access needs symbols on [2, 2], window covers [-1, 1]"),
    "periodic-word-empty": (lambda: sd.PeriodicWord(()), ValueError, "periodic word must be nonempty"),
    "point-outside": (lambda: sd.LabeledPoint(sd.SymbolWindow(0, (1,)), 1.5),
                      ValueError, "fiber coordinate 1.5 outside [0, 1]"),
    "product-chain-of-another-base": (lambda: _constant(FULL, GOLDEN_CHAIN),
                                      IncompatibleProductsError, "chain support must match the base transitions"),
    "product-inadmissible-word": (
        lambda: sd.MultistepSkewProduct(GOLDEN_SYSTEM, GOLDEN_CHAIN, (1, 0), dict.fromkeys(FULL.words(2), MAP)),
        ValueError, "assignment contains inadmissible word (2, 2)"),
    "spec-rho-shape": (lambda: sd.ContinuousProductSpec(FULL, FULL_CHAIN, "affine", "a", PARAMS, np.zeros(3)),
                       ValueError, "coefficient table must be finite with shape (2, 2)"),
    "spec-record-count": (
        lambda: sd.ContinuousProductSpec(FULL, FULL_CHAIN, "affine", "a", PARAMS[:1], np.zeros((2, 2))),
        ValueError, "need one parameter record per symbol, got 1"),
    "spec-designated-missing": (
        lambda: sd.ContinuousProductSpec(FULL, FULL_CHAIN, "affine", "a", (PARAMS[0], {"b": 0.8}), np.zeros((2, 2))),
        ValueError, "symbol 2 record lacks designated parameter 'a'"),
    "interval-out-of-order": (lambda: sd.RealInterval(0.6, 0.4), ValueError, "need 0 <= lo <= hi <= 1, got [0.6, 0.4]"),
    "family-empty-range": (lambda: sd.MonotoneFamily(_constant(FULL, FULL_CHAIN), 1.0, (0.1, 0.1)),
                           FamilyRangeError, "need tau_min < tau_max, got (0.1, 0.1)"),
    "estimate-over-total-mass": (lambda: sd.RegionEstimate(0.6, 0.5, 0.5, 0.5, 0.0, 0.01, 100, 4, 0),
                                 ValueError, "certified measures exceed total mass"),
    "graph-shape": (lambda: sd.StepGraph(FULL, (0, 0), [0.5] * 3),
                    ValueError, "graph needs 2 values, one per admissible word, got shape (3,)"),
    "classification-without-witness": (lambda: sd.Classification(UP, None, 4),
                                       ValueError, "Up/Down verdicts must carry a witness"),
    "classification-unknown-with-witness": (
        lambda: sd.Classification(UNKNOWN, CERTIFICATE, 4), ValueError, "Unknown verdicts never carry a witness"),
    "union-of-other-bases": (
        lambda: sd.region_union(*(sd.BoxRegion(system, (0, 0), [], [], []) for system in (FULL, GOLDEN_SYSTEM))),
        InvalidRegionError, "regions live over different bases"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


CLASS_CHECKS = {
    "affine-not-finite": (sd.Affine(float("nan"), 0.8), "parameters must be finite"),
    "affine-slope": (sd.Affine(0.1, -0.5), "derivative bound b = -0.5 is not positive"),
    "bumped-affine-not-finite": (sd.BumpedAffine(float("inf"), 0.8, 0.0), "parameters must be finite"),
    "bumped-affine-f0": (sd.BumpedAffine(0.0, 0.8, 0.1), "f(0) = 0.0 is not > 0"),
    "bumped-affine-f1": (sd.BumpedAffine(0.25, 0.75, 0.1), "f(1) = 1.0 is not < 1"),
    "plateau-not-finite": (sd.Plateau(float("nan"), 0.4, 0.6), "parameters must be finite"),
    "bump-not-finite": (sd.BumpComposed(float("inf"), MAP), "bump amount must be finite"),
    "bump-inner-map": (sd.BumpComposed(0.1, sd.Affine(0.0, 0.8)), "inner map: f(0) = 0.0 is not > 0"),
    # the bump's slope 1 + amount * (1 - 2y) at the inner image's ends y = 0.1 and 0.9
    "bump-slope": (sd.BumpComposed(-2.0, MAP),
                   "bump slope bound -0.6000000000000001 on the inner image is not positive"),
    "bump-f0": (sd.BumpComposed(-1.2, MAP), "f(0) = -0.007999999999999993 is not > 0"),
    "bump-f1": (sd.BumpComposed(1.2, MAP), "f(1) = 1.008 is not < 1"),
}


@pytest.mark.parametrize("fmap, reason", CLASS_CHECKS.values(), ids=CLASS_CHECKS.keys())
def test_class_check_refuses(fmap, reason):
    check = sd.validate_class(fmap)
    assert not check and check.reason == reason


def test_no_gaps_in_an_empty_sweep():
    assert sd.detect_gaps(sd.SweepResult((), (), (), ()), 0.05) == []
