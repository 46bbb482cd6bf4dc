"""Every file parser either returns an object with integer dimensions or
raises GameFormatError, whatever JSON it is handed."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from anongames import (GameFormatError, parse_functions, parse_game,
                       parse_nf_game, parse_profile, partition_count)

_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.sampled_from(["1/2", "0/1", "1/1", "1/0", "-1/3", "2", "inf"]))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner,
                                                                 max_size=4),
    max_leaves=24)
_entries = st.sampled_from(["1/2", "0/1", "1/1", "1/4", "3/4", 0.5, 1, 0, "1/0", 2])


def _table(*shape):
    """Nested lists of exactly this shape with probability-like entries."""
    table = _entries
    for size in reversed(shape):
        table = st.lists(table, min_size=size, max_size=size)
    return table


def _dim(value):
    """A dimension as the int it should be, or as a float or bool of it."""
    return st.sampled_from([value, float(value), value == 1])


def _fitting(fields, *dim_ranges):
    """Payloads whose tables fit small dimensions, so that parsing gets past
    the shape checks; fields(*dims) gives the strategy of each field."""
    dims = st.tuples(*(st.integers(lo, hi) for lo, hi in dim_ranges))
    return dims.flatmap(lambda d: st.fixed_dictionaries(fields(*d)))


def _game(n, k):
    return {"n": _dim(n), "k": _dim(k),
            "utilities": _table(n, k, partition_count(n - 1, k))}


def _profile(n, k):
    return {"n": _dim(n), "k": _dim(k), "probs": _table(n, k)}


def _functions(n, m):
    return {"n": _dim(n), "functions": _table(m, n + 1)}


def _nf_game(p, s):
    return {"p": _dim(p), "s": _dim(s), "utilities": _table(p, s ** p)}


# kind: (parser, dimension fields, table fields, payloads that fit)
PARSERS = {
    "game": (parse_game, ("n", "k"), ("utilities",),
             _fitting(_game, (2, 4), (2, 4))),
    "profile": (parse_profile, ("n", "k"), ("probs",),
                _fitting(_profile, (1, 3), (1, 3))),
    "functions": (parse_functions, ("n",), ("functions",),
                  _fitting(_functions, (1, 3), (1, 3))),
    "nf_game": (parse_nf_game, ("p", "s"), ("utilities",),
                _fitting(_nf_game, (1, 2), (1, 3))),
}


def _payloads(kind):
    """Fitting payloads, dictionaries with the right keys and arbitrary
    values, and arbitrary JSON."""
    _, dims, tables, fitting = PARSERS[kind]
    loose = {name: st.integers(-1, 4) | _json for name in dims}
    loose.update({name: _json for name in tables})
    return fitting | st.fixed_dictionaries(loose) | _json


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PARSERS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _payloads(kind))))
def test_parsers_return_integer_dimensions_or_game_format_error(case):
    kind, value = case
    parse, dims, _, _ = PARSERS[kind]
    try:
        obj = parse(json.dumps(value))
    except GameFormatError:
        return
    for name in dims:
        dim = getattr(obj, name)
        assert isinstance(dim, int) and not isinstance(dim, bool), (name, dim)
