"""The protocol every frozen value type keeps.

Each type is built with its fields in order, by keyword and by position; two
instances with equal fields compare equal and hash alike (a type holding an
array or a dict is unhashable, and ``==`` between two multi-atom arrays
raises, so array fields are compared with ``np.array_equal``); ``repr`` is
``Name(field=value, ...)`` in field order; assignment and ``del`` raise
``AttributeError``; and a ``pickle`` round trip or a ``copy.deepcopy`` gives
equal fields, read-only arrays staying read-only, and re-runs the checks.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from rdclab import (
    Channel,
    CMinSolution,
    ConstraintSet,
    DiscreteDistribution,
    DiscreteSource,
    FeasibilityVerdict,
    GaussianPairSource,
    GaussianReconstruction,
    GaussianRepresentation,
    HarnessRecord,
    LinearDecoder,
    MMSEReduction,
    OuterBoundReport,
    SampleBatch,
    Theorem5Instance,
    TradeoffPoint,
)
from rdclab.cli import CurveRecord
from rdclab.errors import ParameterError

INSTANCE = dict(var_x=1.0, sigma_xhat3=0.8, d1=0.36, d3=0.5, d_b=None)


def _dist():
    return dict(support=[-1.0, 0.0, 2.5], probs=[0.25, 0.5, 0.25])


def _channel():
    return dict(matrix=[[1.0, 0.0], [0.25, 0.75]])


# Each type with the keyword arguments of one valid instance, in field order.
# Each call returns fresh arguments, so two instances share no object.
CASES = {
    "GaussianPairSource": (GaussianPairSource, lambda: dict(
        mu_x=0.5, var_x=2.0, mu_s=-1.0, var_s=1.5, cov_xs=0.75)),
    "GaussianReconstruction": (GaussianReconstruction, lambda: dict(
        mu_xhat=0.5, var_xhat=1.0, cov_xxhat=-0.5)),
    "TradeoffPoint": (TradeoffPoint, lambda: dict(rate=math.inf, distortion=0.0, closs=-0.25)),
    "FeasibilityVerdict": (FeasibilityVerdict, lambda: dict(
        status="feasible", value=0.25, branch="case1")),
    "ConstraintSet": (ConstraintSet, lambda: dict(pairs=((0.5, 1.0), (math.inf, -math.inf)))),
    "GaussianRepresentation": (GaussianRepresentation, lambda: dict(cov_xz=0.8)),
    "LinearDecoder": (LinearDecoder, lambda: dict(gamma=-1.25)),
    "Theorem5Instance": (Theorem5Instance, lambda: dict(INSTANCE)),
    "HarnessRecord": (HarnessRecord, lambda: dict(
        rate=0.5, instance=Theorem5Instance(**INSTANCE), c3=0.1, gap_lb=-0.2, ratio_lb=0.9,
        gap_holds=True, ratio_holds=True, sandwich_holds=False, gap_ub=None, ratio_ub=1.5,
        degenerate=False)),
    "SampleBatch": (SampleBatch, lambda: dict(
        n=3, seed=7, draws=np.array([[0.5, 1.0, -2.0], [0.0, 1.0, 2.0], [0.25, 0.5, -1.0]]))),
    "DiscreteDistribution": (DiscreteDistribution, _dist),
    "DiscreteSource": (DiscreteSource, lambda: dict(
        x_values=[-1.0, 1.0], s_size=2, pmf=[[0.375, 0.125], [0.125, 0.375]])),
    "Channel": (Channel, _channel),
    "MMSEReduction": (MMSEReduction, lambda: dict(
        estimator={0: -0.5, 1: 2.5}, p_xtilde=DiscreteDistribution(**_dist()), residual=0.125)),
    "CMinSolution": (CMinSolution, lambda: dict(
        c_min=0.3, d_b=0.75, decoder=Channel(**_channel()),
        p_xhat=DiscreteDistribution(**_dist()))),
    "OuterBoundReport": (OuterBoundReport, lambda: dict(
        d=1.0, c=0.5, rhs=0.75, holds=True, residual=0.5, w2_term=0.25)),
    "CurveRecord": (CurveRecord, lambda: dict(
        curve_id="printed_r0.5", model="printed", rate_nats=0.5, c_nats=-math.inf, d=1.25,
        branch="case2")),
}


def _multi_atom(value) -> bool:
    """Whether value holds an array of more than one entry, directly or in a
    value type's fields: ``==`` then raises."""
    if isinstance(value, np.ndarray):
        return value.size > 1
    if isinstance(value, dict):
        return any(_multi_atom(v) for v in value.values())
    return hasattr(value, "__dict__") and _multi_atom(vars(value))


def _same(a, b) -> bool:
    """Equal fields, with arrays compared by value, dtype and writeability."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.flags.writeable == b.flags.writeable
            and np.array_equal(a, b)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__"):
        return type(a) is type(b) and _same(vars(a), vars(b))
    return type(a) is type(b) and a == b


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, build = CASES[request.param]
    return cls, build


def test_every_field_in_order_by_keyword_and_position(case):
    cls, build = case
    kwargs = build()
    a, b = cls(**kwargs), cls(*build().values())
    assert list(vars(a)) == list(kwargs)
    assert _same(a, b)


def test_equal_fields_compare_equal_and_hash_alike(case):
    cls, build = case
    a, b = cls(**build()), cls(**build())
    if _multi_atom(a):
        with pytest.raises(ValueError, match="ambiguous"):
            a == b  # noqa: B015
    else:
        assert a == b and not a != b
    fields = tuple(vars(a).values())
    if _hashable(fields):
        assert hash(a) == hash(b) == hash(fields)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    assert a.__eq__(object()) is NotImplemented
    assert a != object()


def test_repr_lists_fields_in_order(case):
    cls, build = case
    a = cls(**build())
    body = ", ".join(f"{name}={value!r}" for name, value in vars(a).items())
    assert repr(a) == f"{cls.__name__}({body})"


def test_assignment_and_deletion_raise(case):
    cls, build = case
    a = cls(**build())
    before = dict(vars(a))
    first = next(iter(before))
    for name in (first, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0.0)
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert vars(a) == before


@pytest.mark.parametrize(
    "clone",
    [
        pytest.param(lambda a: pickle.loads(pickle.dumps(a)), id="pickle"),
        pytest.param(lambda a: pickle.loads(pickle.dumps(a, protocol=0)), id="pickle0"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(copy.copy, id="copy"),
    ],
)
def test_copies_keep_the_fields_and_stay_frozen(case, clone):
    cls, build = case
    a = cls(**build())
    b = clone(a)
    assert type(b) is cls
    assert _same(a, b)
    with pytest.raises(AttributeError):
        setattr(b, next(iter(vars(b))), 0.0)


def test_copies_rerun_the_checks():
    # A state no constructor accepts, forced past __init__: a copy refuses it.
    bad = object.__new__(DiscreteDistribution)
    bad.__dict__.update(support=np.array([0.0, 1.0]), probs=np.array([5.0, 0.5]))
    with pytest.raises(ParameterError):
        copy.deepcopy(bad)
    with pytest.raises(ParameterError):
        pickle.loads(pickle.dumps(bad))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,), (9,), (3, 3, 1), (1, 3, 3)])
def test_sample_batch_refuses_draws_of_the_wrong_shape(shape):
    with pytest.raises(ParameterError, match="shape"):
        SampleBatch(3, 7, np.zeros(shape))
