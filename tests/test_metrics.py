"""Rank-correlation checks against quadratic pair-count oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flan.metrics import kendall_tau, midranks, spearman_rho
from flan.rng import Rng


# -- oracles -------------------------------------------------------------------

def tau_b_oracle(x, y):
    """Tie-adjusted Kendall by explicit pair counting."""
    n = len(x)
    nc = nd = tie_x = tie_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tie_x += 1
            if dy == 0:
                tie_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                nc += 1
            else:
                nd += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt(float(n0 - tie_x) * float(n0 - tie_y))
    if denom == 0.0:
        return float("nan")
    return (nc - nd) / denom


def midrank_oracle(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float(a @ a) * float(b @ b))
    return float("nan") if denom == 0.0 else float(a @ b) / denom


def random_instance(rng, n, tie_heavy):
    # small integer support makes ties common; floats make them rare
    if tie_heavy:
        x = [rng.randint(5) for _ in range(n)]
        y = [rng.randint(5) for _ in range(n)]
    else:
        x = [rng.normal() for _ in range(n)]
        y = [rng.normal() for _ in range(n)]
    return x, y


# -- kendall ---------------------------------------------------------------------

def test_tau_perfect_agreement():
    assert kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)


def test_tau_perfect_reversal():
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_tau_constant_is_nan():
    assert math.isnan(kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]))
    assert math.isnan(kendall_tau([1, 2, 3], [2.0, 2.0, 2.0]))


def test_tau_matches_oracle_with_ties():
    rng = Rng(123)
    for trial in range(200):
        n = 2 + rng.randint(40)
        x, y = random_instance(rng, n, tie_heavy=trial % 2 == 0)
        got = kendall_tau(x, y)
        want = tau_b_oracle(x, y)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=25),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_tau_invariant_under_strictly_increasing_map(y, seed):
    rng = Rng(seed)
    x = [rng.normal() for _ in range(len(y))]
    mapped = [2.5 * v + math.exp(v / 10.0) for v in y]  # strictly increasing
    a = kendall_tau(x, y)
    b = kendall_tau(x, mapped)
    assert (math.isnan(a) and math.isnan(b)) or a == b


def test_tau_symmetry():
    rng = Rng(5)
    for _ in range(30):
        x, y = random_instance(rng, 15, tie_heavy=True)
        a, b = kendall_tau(x, y), kendall_tau(y, x)
        assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, abs=1e-15)


def test_tau_bounds():
    rng = Rng(6)
    for _ in range(100):
        x, y = random_instance(rng, 12, tie_heavy=True)
        t = kendall_tau(x, y)
        if not math.isnan(t):
            assert -1.0 <= t <= 1.0


def test_tau_input_validation():
    with pytest.raises(ValueError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        kendall_tau([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0, float("inf"), 3.0], [1.0, 2.0, 3.0])


# -- spearman --------------------------------------------------------------------

def test_rho_monotone_transform_is_one():
    x = [0.3, -1.2, 2.0, 0.9]
    y = [math.exp(v) for v in x]
    assert spearman_rho(x, y) == pytest.approx(1.0)


def test_rho_reversal():
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_rho_constant_is_nan():
    assert math.isnan(spearman_rho([1.0, 1.0], [1.0, 2.0]))


def test_rho_matches_midrank_oracle():
    rng = Rng(321)
    for trial in range(200):
        n = 2 + rng.randint(40)
        x, y = random_instance(rng, n, tie_heavy=trial % 2 == 0)
        got = spearman_rho(x, y)
        want = pearson(midrank_oracle(x), midrank_oracle(y))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_midranks_match_oracle():
    rng = Rng(9)
    for _ in range(50):
        vals = [rng.randint(6) for _ in range(1 + rng.randint(30))]
        assert midranks(np.asarray(vals, dtype=np.float64)).tolist() == midrank_oracle(vals)


def test_midranks_examples():
    assert midranks(np.array([10.0, 20.0, 20.0, 30.0])).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert midranks(np.array([5.0])).tolist() == [1.0]


# -- both measures on one scored split -------------------------------------------

def test_tau_and_rho_of_a_tied_split_match_the_oracles():
    # the pair the CLI report gives for a split; its n is the split's size
    x = [1, 2, 2, 3]
    y = [1, 3, 2, 4]
    assert kendall_tau(x, y) == pytest.approx(tau_b_oracle(x, y), abs=1e-12)
    assert spearman_rho(x, y) == pytest.approx(
        pearson(midrank_oracle(x), midrank_oracle(y)), abs=1e-12
    )


def test_tau_and_rho_require_two_points():
    for measure in (kendall_tau, spearman_rho):
        with pytest.raises(ValueError):
            measure([1.0], [1.0])
