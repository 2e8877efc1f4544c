"""Invariants every scorer must keep, checked with hypothesis.

- A batch scores the same as its sub-batches put back together, and an
  exact row scores the same alone as in its batch.
- Fitting on column-permuted data permutes the model and its scores.
- A model file round trip scores bit-identically, for every model kind.
- A unit change in one column shifts each row by -log s per positive entry
  there, and the rescaling pass leaves the scores as they are.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicopula.baselines import fit_gmm, fit_kde_multi, gmm_loglik_rows, kde_loglik_rows
from zicopula.cli import load_model, save_model
from zicopula.marginals import PositiveTerms, fit_marginal
from zicopula.synth_bench import corrupt, make_ground_truth, sample_dataset
from zicopula.zibt_model import fit_zibt, fit_zibt_copula, zibt_loglik_rows
from zicopula.zicar_model import fit_zicar, fit_zicar_copula, zicar_loglik_rows

DIM = 4
N_TRAIN = 300
N_SCORE = 120

# Batched linear algebra may round differently from a smaller batch.
BATCH_RTOL = 1e-13
BATCH_ATOL = 1e-12

# estimate_rho is symmetric in its two columns only up to rounding and its
# Newton polish, which stops within 1e-9; 4e-6 bounds that loosely.
RHO_ATOL = 4e-6
# zicar's correlation is a sample correlation: permuting only reorders sums.
ZICAR_SIGMA_ATOL = 1e-10


# Refitting on rescaled data rounds x * s / b' instead of x / b, and the
# rounding passes through the KDE into the scores, which the pinned, badly
# conditioned sigma scales up. Measured over 40 unit changes and 20 training
# draws (D=4, 300 rows): at most 4.9e-13 relative for a unit change and
# 3.4e-12 for rescale on/off, and at most 3.2e-12 absolute on scores below 1.
RESCALE_RTOL = 1e-10
RESCALE_ATOL = 1e-10


def _perm_rtol(sigma: np.ndarray) -> float:
    """Scores of a permuted model differ only by the rounding of its permuted
    Cholesky factor, which the condition number of sigma amplifies. The
    fitted sigmas here sit at the repair_correlation eigenvalue floor
    (condition number about 2e6), so the bound is about 3e-8."""
    return 64 * np.finfo(float).eps * np.linalg.cond(sigma)


@functools.lru_cache(maxsize=None)
def _data(kind: str) -> tuple[np.ndarray, np.ndarray]:
    truth = make_ground_truth(kind, DIM, seed=11)
    return sample_dataset(truth, N_TRAIN, seed=12), sample_dataset(truth, N_SCORE, seed=13)


@functools.lru_cache(maxsize=None)
def _model(name: str):
    if name in ("zibt-approx", "zibt-exact"):
        return fit_zibt(_data("zibt")[0], likelihood_mode=name.split("-")[1])
    if name in ("zicar-bernoulli", "zicar-rbm"):
        return fit_zicar(_data("zicar")[0], mask_kind=name.split("-")[1], seed=3)
    if name == "gmm":
        return fit_gmm(_data("zicar")[0], 2, seed=4)
    return fit_kde_multi(_data("zicar")[0])


def _score(name: str, model, rows: np.ndarray) -> np.ndarray:
    if name.startswith("zibt"):
        return zibt_loglik_rows(model, rows, base_seed=7)
    if name.startswith("zicar"):
        return zicar_loglik_rows(model, rows)
    if name == "gmm":
        return gmm_loglik_rows(model, rows)
    return kde_loglik_rows(model, rows)


def _rows(name: str) -> np.ndarray:
    return _data("zibt" if name.startswith("zibt") else "zicar")[1]


MODELS = ["zibt-approx", "zibt-exact", "zicar-bernoulli", "zicar-rbm", "gmm", "kde"]


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=15, deadline=None)
@given(cuts=st.lists(st.integers(min_value=0, max_value=N_SCORE), max_size=4))
def test_batch_scores_equal_concatenated_sub_batches(name, cuts):
    model = _model(name)
    rows = _rows(name)
    edges = [0, *sorted(min(c, rows.shape[0]) for c in cuts), rows.shape[0]]
    pieces = [
        _score(name, model, rows[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo
    ]
    np.testing.assert_allclose(
        np.concatenate(pieces), _score(name, model, rows), rtol=BATCH_RTOL, atol=BATCH_ATOL
    )


def test_exact_rows_score_alone_as_in_their_batch():
    # The orthant estimator's shifts come from the seed alone, so a row with
    # three or more zeros scores the same wherever it sits in a batch.
    model = _model("zibt-exact")
    rows = _rows("zibt-exact")
    assert ((rows == 0).sum(axis=1) >= 3).any()
    alone = [_score("zibt-exact", model, rows[i:i + 1])[0] for i in range(rows.shape[0])]
    np.testing.assert_allclose(
        alone, _score("zibt-exact", model, rows), rtol=BATCH_RTOL, atol=BATCH_ATOL
    )


def test_exact_rows_score_alone_as_in_their_batch_at_dimension_eight():
    # All estimator rows of a batch share one minimax-tilt solve, embedded in
    # the model's dimension, so rows of 2 (tail) to 7 zeros meet in it; each
    # still scores as it does alone.
    truth = make_ground_truth("zibt", 8, seed=0)
    train = sample_dataset(truth, 1000, seed=0)
    model = fit_zibt(train, likelihood_mode="exact")
    normal = sample_dataset(truth, 300, seed=7)
    pool = np.vstack([normal, corrupt(normal, train, seed=8)])
    # The estimator serves a row iff its score depends on the point count.
    served = zibt_loglik_rows(model, pool, base_seed=7) != zibt_loglik_rows(
        model, pool, mc_samples=64, base_seed=7
    )
    zeros = (pool == 0).sum(axis=1)
    tail = np.flatnonzero(served & (zeros == 2))[:4]
    assert tail.size == 4
    picks = [pool[tail], pool[zeros == 2][:2]]
    picks += [pool[zeros == k][:3] for k in range(3, 7)]
    # Rows with a single positive coordinate, which no draw here has.
    lone = pool[(zeros == 1) & (pool[:, 0] > 0)][:3].copy()
    lone[:, 1:] = 0.0
    rows = np.vstack([*picks, lone])
    assert set((rows == 0).sum(axis=1)) == set(range(2, 8))
    alone = [zibt_loglik_rows(model, rows[i:i + 1], base_seed=7)[0] for i in range(len(rows))]
    np.testing.assert_allclose(
        alone, zibt_loglik_rows(model, rows, base_seed=7), rtol=BATCH_RTOL, atol=BATCH_ATOL
    )


@settings(max_examples=6, deadline=None)
@given(perm=st.permutations(range(DIM)))
def test_zibt_approx_scores_are_column_permutation_equivariant(perm):
    perm = list(perm)
    train, rows = _data("zibt")
    base = _model("zibt-approx")
    sigma = base.copula.sigma[np.ix_(perm, perm)]
    permuted = fit_zibt(train[:, perm], likelihood_mode="approx")
    np.testing.assert_allclose(permuted.copula.sigma, sigma, rtol=0, atol=RHO_ATOL)
    np.testing.assert_array_equal(permuted.copula.a, base.copula.a[perm])
    np.testing.assert_array_equal(permuted.rescales, base.rescales[perm])
    # Pin sigma to the exact permutation so the check isolates the scorer.
    pinned = dataclasses.replace(permuted, sigma=sigma)
    np.testing.assert_allclose(
        zibt_loglik_rows(pinned, rows[:, perm]),
        zibt_loglik_rows(base, rows),
        rtol=_perm_rtol(sigma),
        atol=BATCH_ATOL,
    )


@settings(max_examples=6, deadline=None)
@given(perm=st.permutations(range(DIM)))
def test_zicar_bernoulli_scores_are_column_permutation_equivariant(perm):
    perm = list(perm)
    train, rows = _data("zicar")
    base = _model("zicar-bernoulli")
    sigma = base.sigma[np.ix_(perm, perm)]
    permuted = fit_zicar(train[:, perm], mask_kind="bernoulli", seed=3)
    np.testing.assert_allclose(permuted.sigma, sigma, rtol=0, atol=ZICAR_SIGMA_ATOL)
    np.testing.assert_array_equal(permuted.mask.q, base.mask.q[perm])
    np.testing.assert_array_equal(permuted.rescales, base.rescales[perm])
    pinned = dataclasses.replace(permuted, sigma=sigma)
    np.testing.assert_allclose(
        zicar_loglik_rows(pinned, rows[:, perm]),
        zicar_loglik_rows(base, rows),
        rtol=_perm_rtol(sigma),
        atol=BATCH_ATOL,
    )


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_model_file_round_trip_scores_bit_identically(name, seed):
    model = _model(name)
    kind = "zibt" if name.startswith("zibt") else "zicar"
    rows = sample_dataset(make_ground_truth(kind, DIM, seed=11), 40, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        loaded = load_model(path)
        again = os.path.join(tmp, "again.json")
        save_model(again, loaded)
        with open(path, "rb") as fa, open(again, "rb") as fb:
            assert fa.read() == fb.read()
    np.testing.assert_array_equal(_score(name, loaded, rows), _score(name, model, rows))


def _scaled(x: np.ndarray, column: int, s: float) -> np.ndarray:
    out = x.copy()
    out[:, column] *= s
    return out


@settings(max_examples=8, deadline=None)
@given(column=st.integers(min_value=0, max_value=DIM - 1), log10_s=st.floats(-3.0, 3.0))
def test_zicar_bernoulli_unit_change_shifts_scores_by_log_scale(column, log10_s):
    s = 10.0**log10_s
    train, rows = _data("zicar")
    base = _model("zicar-bernoulli")
    model = fit_zicar(_scaled(train, column, s), mask_kind="bernoulli", seed=3)
    # F is scale-free, so sigma moves only by rounding (measured 7.3e-13).
    np.testing.assert_allclose(model.sigma, base.sigma, rtol=0, atol=ZICAR_SIGMA_ATOL)
    # Unpinned, that rounding moves these scores by up to 0.03 nats (see
    # _perm_rtol); pinning sigma checks the marginal layer's contract alone.
    pinned = dataclasses.replace(model, sigma=base.sigma)
    np.testing.assert_allclose(
        zicar_loglik_rows(pinned, _scaled(rows, column, s)),
        zicar_loglik_rows(base, rows) - np.log(s) * (rows[:, column] > 0),
        rtol=RESCALE_RTOL,
        atol=RESCALE_ATOL,
    )


@settings(max_examples=8, deadline=None)
@given(column=st.integers(min_value=0, max_value=DIM - 1), log10_s=st.floats(-3.0, 3.0))
def test_zibt_approx_unit_change_shifts_scores_by_log_scale(column, log10_s):
    s = 10.0**log10_s
    train, rows = _data("zibt")
    base = _model("zibt-approx")
    model = fit_zibt(_scaled(train, column, s), likelihood_mode="approx")
    np.testing.assert_allclose(model.copula.sigma, base.copula.sigma, rtol=0, atol=RHO_ATOL)
    np.testing.assert_array_equal(model.copula.a, base.copula.a)
    pinned = dataclasses.replace(model, sigma=base.copula.sigma)
    np.testing.assert_allclose(
        zibt_loglik_rows(pinned, _scaled(rows, column, s)),
        zibt_loglik_rows(base, rows) - np.log(s) * (rows[:, column] > 0),
        rtol=RESCALE_RTOL,
        atol=RESCALE_ATOL,
    )


@pytest.mark.parametrize("kind", ["zicar", "zibt"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_rescale_pass_leaves_scores_unchanged(kind, seed):
    # The rescaled refit has bandwidth h / b on data x / b, so its density in
    # original units, g(x / b) / b, is the unrescaled one: the fitted model
    # equals one built on the raw columns (rescale_b = 1), up to rounding.
    train = sample_dataset(make_ground_truth(kind, DIM, seed=11), N_TRAIN, seed=seed)
    rows = _data(kind)[1]
    raw = PositiveTerms([fit_marginal(train[:, j]) for j in range(DIM)], train)
    if kind == "zicar":
        full = fit_zicar(train, mask_kind="bernoulli")
        plain = fit_zicar_copula(raw, mask_kind="bernoulli")
        np.testing.assert_allclose(plain.sigma, full.sigma, rtol=0, atol=ZICAR_SIGMA_ATOL)
        pinned, score = dataclasses.replace(plain, sigma=full.sigma), zicar_loglik_rows
    else:
        full = fit_zibt(train, likelihood_mode="approx")
        plain = fit_zibt_copula(raw, likelihood_mode="approx")
        np.testing.assert_allclose(
            plain.copula.sigma, full.copula.sigma, rtol=0, atol=RHO_ATOL
        )
        pinned = dataclasses.replace(plain, sigma=full.copula.sigma)
        score = zibt_loglik_rows
    np.testing.assert_array_equal(plain.rescales, np.ones(DIM))
    np.testing.assert_allclose(
        score(pinned, rows), score(full, rows), rtol=RESCALE_RTOL, atol=RESCALE_ATOL
    )
