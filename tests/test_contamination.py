import dataclasses

import numpy as np
import pytest

from mdsum.contamination import (
    ContaminationSpec,
    apply_contamination,
    contaminate_gaussian,
    contaminate_oup,
    contaminate_sir,
    _count,
)
from mdsum.simulators import TASKS, gaussian_task, oup_task, sir_task
from mdsum.util import derive_rng


def test_eps_zero_is_identity():
    rng = derive_rng(50, "id")
    data = rng.standard_normal((10, 3))
    assert np.array_equal(contaminate_gaussian(data, 0.0, 3.0, rng), data)
    assert np.array_equal(contaminate_oup(data, 0.0, rng), data)
    assert np.array_equal(contaminate_sir(np.abs(data), 0.0, rng), np.abs(data))


def test_count_rounds_half_up():
    assert _count(0.25, 100) == 25
    assert _count(0.3, 30) == 9
    assert _count(0.05, 30) == 2  # 1.5 rounds up
    assert _count(0.0, 100) == 0
    assert _count(1.0, 7) == 7


# ---------------------------------------------------------------------------
# row outliers
# ---------------------------------------------------------------------------

def test_row_outliers_full_replacement_rows():
    # eps = 1, delta = 3, d = 2: every row becomes (+-3, +-3) with one sign
    rng = derive_rng(51, "full")
    out = contaminate_gaussian(np.zeros((40, 2)), 1.0, 3.0, rng)
    assert np.all(np.abs(out) == 3.0)
    assert np.all(out[:, 0] == out[:, 1])
    signs = np.sign(out[:, 0])
    assert set(signs.tolist()) == {-1.0, 1.0}  # both signs occur


def test_row_outliers_replace_not_shift():
    rng = derive_rng(51, "replace")
    data = np.full((200, 2), 10.0)
    out = contaminate_gaussian(data, 0.5, 3.0, rng)
    touched = out[np.abs(out[:, 0]) == 3.0]
    untouched = out[out[:, 0] == 10.0]
    assert len(touched) + len(untouched) == 200
    assert len(touched) > 50  # binomial(200, 0.5) far from the tails
    assert np.all(np.abs(touched) == 3.0)  # old values fully discarded


def test_row_outliers_rate_is_binomial():
    # per-row independent replacement, so the touched count varies by seed
    counts = []
    for seed in range(30):
        rng = derive_rng(51, "rate", seed)
        out = contaminate_gaussian(np.full((100, 2), 50.0), 0.2, 3.0, rng)
        counts.append(int((out[:, 0] != 50.0).sum()))
    counts = np.array(counts)
    assert len(set(counts.tolist())) > 1
    assert abs(counts.mean() - 20.0) < 4.0


def test_row_outliers_input_not_mutated():
    data = np.ones((5, 2))
    contaminate_gaussian(data, 1.0, 9.0, derive_rng(51, "mut"))
    assert np.array_equal(data, np.ones((5, 2)))


def test_row_outliers_validation():
    rng = derive_rng(51, "bad")
    with pytest.raises(ValueError):
        contaminate_gaussian(np.ones((3, 2)), 1.5, 3.0, rng)
    with pytest.raises(ValueError):
        contaminate_gaussian(np.ones((3, 2)), 0.5, np.inf, rng)


# ---------------------------------------------------------------------------
# off-prior trajectories
# ---------------------------------------------------------------------------

def test_offprior_swaps_exact_count():
    rng = derive_rng(52, "oup")
    data = np.full((20, 15), 100.0)
    out = contaminate_oup(data, 0.3, rng)
    changed = np.any(out != 100.0, axis=1)
    assert changed.sum() == 6
    assert np.array_equal(out[~changed], data[~changed])


def test_offprior_rows_look_off_prior():
    # contaminant mean-reversion is negative, so swapped rows run away from
    # the clean stationary band instead of settling near exp(theta2)
    rng = derive_rng(52, "diverge")
    data = np.zeros((10, 25))
    out = contaminate_oup(data, 1.0, rng)
    assert np.all(np.abs(out[:, -1]) > np.abs(out[:, 0]))


# ---------------------------------------------------------------------------
# weekend underreporting
# ---------------------------------------------------------------------------

def test_weekend_toy_example():
    # horizon 9: days 5 (Sat) and 6 (Sun) each push 5% onto day 7 (Monday)
    data = np.arange(9, dtype=np.float64)[None, :] + 1.0  # counts 1..9
    out = contaminate_sir(data, 1.0, derive_rng(53, "toy"))
    expected = data.copy()
    expected[0, 5] -= 0.05 * 6.0
    expected[0, 6] -= 0.05 * 7.0
    expected[0, 7] += 0.05 * 6.0 + 0.05 * 7.0
    assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
    assert out.sum() == pytest.approx(data.sum(), abs=1e-12)


def test_weekend_full_year_conserves_mass():
    # every Monday after a weekend lies inside a 365-day horizon except for
    # the mass pushed past day 364
    rng = derive_rng(53, "year")
    data = np.abs(rng.standard_normal((4, 365))) * 100.0
    out = contaminate_sir(data, 1.0, derive_rng(53, "apply"))
    days = np.arange(365)
    last_weekend = days[(days % 7 >= 5) & (days + (7 - days % 7) >= 365)]
    dropped = 0.05 * data[:, last_weekend].sum()
    assert out.sum() == pytest.approx(data.sum() - dropped, rel=1e-12)
    weekend_mask = (days % 7 == 5) | (days % 7 == 6)
    assert np.all(out[:, weekend_mask] <= data[:, weekend_mask])


def test_weekend_touches_selected_rows_only():
    rng = derive_rng(53, "rows")
    data = np.full((10, 14), 70.0)
    out = contaminate_sir(data, 0.5, rng)
    changed = np.any(out != 70.0, axis=1)
    assert changed.sum() == 5


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_spec_validation_and_defaults():
    with pytest.raises(ValueError):
        ContaminationSpec(kind="nonsense", eps=0.1)
    with pytest.raises(ValueError):
        ContaminationSpec(kind="row_outliers", eps=-0.1)
    with pytest.raises(ValueError):
        ContaminationSpec(kind="row_outliers", eps=0.1, delta=np.nan)
    # each task's one kind lives in its simulators.TASKS record
    kinds = {name: record.contamination for name, record in TASKS.items()}
    assert kinds == {"gaussian": "row_outliers", "factor": "row_outliers",
                     "oup": "offprior_trajectories", "sir": "weekend_underreporting"}
    for kind in kinds.values():
        assert ContaminationSpec(kind=kind, eps=0.1).kind == kind
    mystery = dataclasses.replace(gaussian_task(d=2, n_obs=4), name="mystery")
    with pytest.raises(ValueError, match="does not apply to task 'mystery'"):
        apply_contamination(ContaminationSpec(kind="row_outliers", eps=0.1), mystery,
                            np.zeros((4, 2)), derive_rng(54, "mystery"))


def test_apply_contamination_checks_task_compatibility():
    rng = derive_rng(54, "apply")
    g = gaussian_task(d=2, n_obs=4)
    data = g.simulate(np.zeros(2), rng)
    spec = ContaminationSpec(kind="row_outliers", eps=0.5, delta=3.0)
    out = apply_contamination(spec, g, data, rng)
    assert out.shape == data.shape
    with pytest.raises(ValueError):
        apply_contamination(spec, oup_task(n_obs=4, horizon=5), np.zeros((4, 5)), rng)
    with pytest.raises(ValueError):
        apply_contamination(ContaminationSpec(kind="weekend_underreporting", eps=0.5),
                            g, data, rng)
    sir_spec = ContaminationSpec(kind="weekend_underreporting", eps=0.5)
    sir = sir_task(n_obs=4, horizon=10)
    assert apply_contamination(sir_spec, sir, np.ones((4, 10)), rng).shape == (4, 10)
