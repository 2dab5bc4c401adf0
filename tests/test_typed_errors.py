"""Every analytic entry point returns, or raises a kgkratzer.errors type, on any finite input.

The draws span the float range: m = 10^U(-300, 300), and each coupling is 0,
+-10^U(-300, 300) or U(-2, 2).  (a2, b2) is drawn freely or set to +-(a1, b1),
so that every closed-form and series family is reached, as the test checks.
"""

import signal

import pytest

from kgkratzer import (
    KratzerError,
    PotentialParams,
    StructuralConstraintError,
    admissibility,
    approx_energy,
    closed_form,
    derived_coefficients,
    eval_ground_state,
    normalization,
    residual_report,
    solve_levels,
    spectrum,
    spectrum_residual,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
_COUPLING = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from((1.0, -1.0)), _MAGNITUDE).map(lambda pair: pair[0] * pair[1]),
    st.floats(-2.0, 2.0),
)


@st.composite
def _params(draw):
    a1, b1 = draw(_COUPLING), draw(_COUPLING)
    pairing = draw(st.sampled_from(("free", "equal", "opposite")))
    if pairing == "free":
        a2, b2 = draw(_COUPLING), draw(_COUPLING)
    else:
        sign = 1.0 if pairing == "equal" else -1.0
        a2, b2 = sign * a1, sign * b1
    return PotentialParams(draw(_MAGNITUDE), a1, b1, a2, b2)


def _calls(params, n, energy, r):
    """(name, call) for each entry point at one draw, one per closed-form and series case."""
    yield "derived_coefficients", lambda: derived_coefficients(params, energy, n)
    yield "admissibility", lambda: admissibility(params, energy)
    yield "spectrum_residual", lambda: spectrum_residual(params, n, energy)
    yield "solve_levels", lambda: solve_levels(params, n)
    for case in spectrum.CLOSED_FORM_CASES:
        yield case, lambda case=case: closed_form(params, n, case)
    for case in spectrum.SERIES_CASES:
        yield case, lambda case=case: approx_energy(params, n, case)
    yield "eval_ground_state", lambda: eval_ground_state(params, energy, r)
    yield "normalization", lambda: normalization(params, energy)
    yield "residual_report", lambda: residual_report(params, energy, (r,))


def _expire(signum, frame):
    raise TimeoutError("an entry point still running after 5 s")


def test_every_entry_point_returns_or_raises_a_package_error():
    # Each name is reached once its call gets past the structural check of its case.
    reached = set()

    # No shrinking: a draw that hangs fails at once, where each shrink step would
    # cost the full alarm again.
    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None,
                         phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    @hypothesis.given(params=_params(), n=st.integers(0, 3), fraction=st.floats(-1.0, 1.0),
                      r=_MAGNITUDE)
    def check(params, n, fraction, r):
        signal.alarm(5)  # a call that never returns fails the example
        try:
            for name, call in _calls(params, n, params.m * fraction, r):
                try:
                    call()
                except StructuralConstraintError:
                    continue
                except KratzerError:
                    pass
                reached.add(name)
        finally:
            signal.alarm(0)

    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        check()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert reached == {name for name, _ in _calls(PotentialParams(1.0), 0, 0.0, 1.0)}
