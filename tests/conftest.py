from dataclasses import fields

import numpy as np
import pytest

from corrbound import ProbVector, RateMatrix, ScoreVector, random_model, validate_rate_matrix
from corrbound.markov import _raw


@pytest.fixture
def decay_model():
    """Two-state chain with one unit-rate decay channel and an absorbing
    target state; start in the decaying state, scores (-1, +1).

    Closed forms: C(t) = 2 e^-t - 1, dC/dt = -2 e^-t, A(t) = 1 - e^-t,
    eta(t) = e^-t.
    """
    W = validate_rate_matrix([[0.0, 1.0], [0.0, -1.0]])
    p0 = ProbVector(np.array([0.0, 1.0]))
    s = ScoreVector(np.array([-1.0, 1.0]))
    return W, p0, s, s


@pytest.fixture
def symmetric_model():
    """Symmetric two-state chain at unit rate, stationary at (1/2, 1/2).

    Closed forms from the stationary start: C(t) = e^-2t, a = 1.
    """
    W = validate_rate_matrix([[0.0, 1.0], [1.0, 0.0]])
    pst = ProbVector(np.array([0.5, 0.5]))
    s = ScoreVector(np.array([-1.0, 1.0]))
    return W, pst, s, s


@pytest.fixture
def frozen_model():
    """Null generator: nothing ever moves."""
    W = validate_rate_matrix(np.zeros((3, 3)))
    p0 = ProbVector(np.array([0.5, 0.3, 0.2]))
    s = ScoreVector(np.array([0.4, -1.0, 0.7]))
    return W, p0, s, s


def model_sweep(count, states=(2, 3, 4), seed=7_001):
    """Deterministic list of (W, p0, S) random models cycling the sizes."""
    return [
        random_model(states[i % len(states)], seed + i) for i in range(count)
    ]


def join_stack(values):
    """Validated values of one type over the same states, each one model or
    a stack of models, as one value holding all their models along a
    leading model axis."""
    first = fields(values[0])[0].name
    per_model = 2 if isinstance(values[0], RateMatrix) else 1
    arrays = [getattr(v, first) for v in values]
    models = [a.reshape(-1, *a.shape[-per_model:]) for a in arrays]
    return _raw(type(values[0]), np.concatenate(models))


def stack_of(models):
    """(W, p0, S) stacks of a list of (W, p0, S) models, or stacks of them,
    over the same states."""
    return tuple(join_stack(list(values)) for values in zip(*models))
