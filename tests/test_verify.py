"""The stacked ``cp`` and ``correspondence`` suites against a per-draw loop.

The loop below is the reference: it makes each draw from the seed in the
suites' order and evaluates it alone, so the stacked suites must report the
same ``worst`` to the last bit.
"""

import numpy as np
import pytest

from gaussmeter import verify
from gaussmeter.gauge import (
    GaugeMeasurement,
    GaugeState,
    cp_certificate,
    dual_channel_params,
    entropy_reduction_gauge,
)
from gaussmeter.symplectic import embed_gauge_invariant, entropy_reduction_general


def per_draw_draws(seed, draws):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        s = int(rng.integers(1, 4))
        state = GaugeState(verify._random_psd(rng, s))
        meas = GaugeMeasurement(verify._random_psd(rng, s))
        yield state, meas


def per_draw_cp(seed, draws=200):
    worst = np.inf
    for state, meas in per_draw_draws(seed, draws):
        _, margin = cp_certificate(dual_channel_params(state, meas))
        worst = min(worst, margin)
    return worst


def per_draw_correspondence(seed, draws=100):
    worst = 0.0
    for state, meas in per_draw_draws(seed, draws):
        alpha, general = embed_gauge_invariant(state, meas)
        gap = abs(entropy_reduction_general(alpha, general)
                  - entropy_reduction_gauge(state, meas))
        worst = max(worst, gap)
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7])
def test_stacked_suites_match_per_draw_loop(seed):
    cp, correspondence = verify.run_cases(["cp", "correspondence"], seed)
    assert cp.name == "cp" and correspondence.name == "correspondence"
    assert float(cp.worst).hex() == float(per_draw_cp(seed)).hex()
    assert float(correspondence.worst).hex() == float(per_draw_correspondence(seed)).hex()
    assert cp.passed and correspondence.passed
    assert type(cp.worst) is float and type(correspondence.worst) is float


@pytest.mark.parametrize("draws", [0, 1, 2, 5])
def test_few_draws_leave_mode_counts_out(draws):
    # with few draws some mode counts get no draw, and no stack is built
    assert verify.check_cp_condition(3, draws).worst == per_draw_cp(3, draws)
    assert (verify.check_representation_match(3, draws).worst
            == per_draw_correspondence(3, draws))
