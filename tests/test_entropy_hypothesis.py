"""Property-based tests of the entropy theory (hypothesis).

These encode §II-A's required properties as universally-quantified
invariants over randomly generated observations, rather than spot checks.
"""

from __future__ import annotations

import struct
from dataclasses import fields

import pytest
from hypothesis import assume, given, strategies as st

from repro.entropy.aggregate import be_entropy, lc_entropy, system_entropy
from repro.entropy.records import (
    BEObservation,
    EntropyBreakdown,
    LCObservation,
    SystemObservation,
)
from repro.errors import ModelError
from repro.entropy.tolerance import (
    interference_suffered,
    interference_tolerance,
    intolerable_interference,
    remaining_tolerance,
)

positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


@st.composite
def lc_triple(draw):
    """A valid (ideal, measured, threshold) triple."""
    ideal = draw(positive)
    threshold = ideal * draw(st.floats(min_value=1.0, max_value=100.0))
    measured = ideal * draw(st.floats(min_value=0.5, max_value=1000.0))
    return ideal, measured, threshold


@st.composite
def be_pair(draw):
    solo = draw(st.floats(min_value=1e-3, max_value=10.0))
    real = solo * draw(st.floats(min_value=1e-3, max_value=2.0))
    return solo, real


@given(lc_triple())
def test_per_app_quantities_are_dimensionless(triple):
    ideal, measured, threshold = triple
    quantities = [
        interference_tolerance(ideal, threshold),
        interference_suffered(ideal, measured),
        remaining_tolerance(ideal, measured, threshold),
        intolerable_interference(ideal, measured, threshold),
    ]
    for value in quantities:
        assert 0.0 <= value <= 1.0


@given(lc_triple())
def test_ret_and_q_are_mutually_exclusive(triple):
    ideal, measured, threshold = triple
    ret = remaining_tolerance(ideal, measured, threshold)
    q = intolerable_interference(ideal, measured, threshold)
    assert min(ret, q) == 0.0


@given(lc_triple(), st.floats(min_value=1.0, max_value=10.0))
def test_q_monotone_in_measured_latency(triple, worsening):
    """More interference can never reduce Q_i (strategy sensitivity, app level)."""
    ideal, measured, threshold = triple
    q_before = intolerable_interference(ideal, measured, threshold)
    q_after = intolerable_interference(ideal, measured * worsening, threshold)
    assert q_after >= q_before - 1e-12


@given(lc_triple(), st.floats(min_value=1.0, max_value=10.0))
def test_ret_monotone_decreasing_in_measured_latency(triple, worsening):
    ideal, measured, threshold = triple
    before = remaining_tolerance(ideal, measured, threshold)
    after = remaining_tolerance(ideal, measured * worsening, threshold)
    assert after <= before + 1e-12


@given(st.lists(lc_triple(), min_size=1, max_size=10))
def test_lc_entropy_bounded_and_bounded_by_max_q(triples):
    entropy = lc_entropy(triples)
    assert 0.0 <= entropy < 1.0
    worst = max(intolerable_interference(*t) for t in triples)
    assert entropy <= worst + 1e-12


@given(st.lists(be_pair(), min_size=1, max_size=10))
def test_be_entropy_bounded(pairs):
    entropy = be_entropy(pairs)
    assert 0.0 <= entropy < 1.0


@given(st.lists(be_pair(), min_size=1, max_size=6), st.floats(0.01, 0.99))
def test_be_entropy_monotone_under_uniform_slowdown(pairs, factor):
    """Slowing every BE application down cannot reduce E_BE."""
    slowed = [(solo, real * factor) for solo, real in pairs]
    assert be_entropy(slowed) >= be_entropy(pairs) - 1e-12


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_system_entropy_is_convex_combination(e_lc, e_be, ri):
    entropy = system_entropy(e_lc, e_be, ri)
    assert min(e_lc, e_be) - 1e-12 <= entropy <= max(e_lc, e_be) + 1e-12


@given(
    st.lists(lc_triple(), min_size=1, max_size=5),
    st.lists(be_pair(), min_size=1, max_size=5),
)
def test_observation_breakdown_consistency(lc_triples, be_pairs):
    system = SystemObservation(
        lc=tuple(
            LCObservation(f"lc{i}", ideal_ms=a, measured_ms=b, threshold_ms=c)
            for i, (a, b, c) in enumerate(lc_triples)
        ),
        be=tuple(
            BEObservation(f"be{i}", ipc_solo=s, ipc_real=r)
            for i, (s, r) in enumerate(be_pairs)
        ),
    )
    summary = system.breakdown()
    assert summary.e_s == system_entropy(summary.e_lc, summary.e_be, 0.8)
    assert 0.0 <= summary.yield_fraction <= 1.0
    # Yield = 100% ⇒ E_LC = 0 (§I's claim about the metric; the converse
    # can fail only by floating-point knife-edges at TL == M).
    if summary.yield_fraction == 1.0:
        assert summary.e_lc == 0.0


def _bits(value: float) -> bytes:
    """The IEEE-754 encoding, so -0.0 and 0.0 (or two NaNs) never pass as equal."""
    return struct.pack("<d", value)


@st.composite
def lc_triple_with_edges(draw):
    """A valid triple that also hits the equation's knife edges."""
    ideal, measured, threshold = draw(lc_triple())
    edge = draw(st.sampled_from(("none", "at-ideal", "at-threshold", "tight")))
    if edge == "at-ideal":
        measured = ideal
    elif edge == "at-threshold":
        measured = threshold
    elif edge == "tight":
        threshold = ideal
    return ideal, measured, threshold


def _system(lc_triples, be_pairs) -> SystemObservation:
    return SystemObservation(
        lc=tuple(
            LCObservation(f"lc{i}", ideal_ms=a, measured_ms=b, threshold_ms=c)
            for i, (a, b, c) in enumerate(lc_triples)
        ),
        be=tuple(
            BEObservation(f"be{i}", ipc_solo=s, ipc_real=r)
            for i, (s, r) in enumerate(be_pairs)
        ),
    )


relative_importances = st.none() | st.floats(min_value=0.0, max_value=1.0)


@given(
    st.lists(lc_triple_with_edges(), max_size=6),
    st.lists(be_pair(), max_size=4),
    relative_importances,
)
def test_breakdown_is_bit_identical_to_the_scalar_route(lc_triples, be_pairs, ri):
    assume(lc_triples or be_pairs)
    system = _system(lc_triples, be_pairs)
    fast = system.breakdown(ri)
    scalar = system.breakdown_scalar(ri)
    for f in fields(EntropyBreakdown):
        assert _bits(getattr(fast, f.name)) == _bits(getattr(scalar, f.name)), f.name


_BAD_VALUES = (float("nan"), float("inf"), -float("inf"), 0.0, -1.0)


@given(
    st.lists(lc_triple(), min_size=1, max_size=4),
    st.lists(be_pair(), max_size=3),
    st.data(),
    relative_importances,
)
def test_invalid_lc_samples_raise_the_scalar_error(lc_triples, be_pairs, data, ri):
    index = data.draw(st.integers(0, len(lc_triples) - 1))
    triple = list(lc_triples[index])
    slot = data.draw(st.sampled_from(("ideal", "measured", "threshold", "order")))
    if slot == "order":
        # TL_i0 > M_i: the QoS target is unsatisfiable.
        triple[2] = triple[0] * 0.5
    else:
        triple[("ideal", "measured", "threshold").index(slot)] = data.draw(
            st.sampled_from(_BAD_VALUES)
        )
    lc_triples[index] = tuple(triple)
    _assert_same_model_error(_system(lc_triples, be_pairs), ri)


@given(
    st.lists(lc_triple(), max_size=3),
    st.lists(be_pair(), min_size=1, max_size=4),
    st.data(),
    relative_importances,
)
def test_invalid_be_samples_raise_the_scalar_error(lc_triples, be_pairs, data, ri):
    # BEObservation rejects non-positive IPCs (-inf included) at
    # construction, so only NaN and +inf reach the breakdown.
    index = data.draw(st.integers(0, len(be_pairs) - 1))
    pair = list(be_pairs[index])
    pair[data.draw(st.integers(0, 1))] = data.draw(
        st.sampled_from(_BAD_VALUES[:2])
    )
    be_pairs[index] = tuple(pair)
    _assert_same_model_error(_system(lc_triples, be_pairs), ri)


def _assert_same_model_error(system: SystemObservation, ri) -> None:
    with pytest.raises(ModelError) as scalar:
        system.breakdown_scalar(ri)
    with pytest.raises(ModelError) as fast:
        system.breakdown(ri)
    assert str(fast.value) == str(scalar.value)
