"""The search path's scalar draws match ``Generator.choice`` draw for draw.

:mod:`repro.sampling` replaces every ``replace=True`` ``Generator.choice``
call of breeding and selection.  A seeded run is reproducible only if each
replacement returns what ``choice`` returned *and* consumes the generator
exactly as it did, so these compare both on twin generators, with the draws
interleaved with the plain ``random()``/``integers()`` calls the operators
make between them.  The AST guard keeps a ``replace=True`` ``choice`` call
from coming back under ``repro.core`` or ``repro.hardware``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sampling import pick, pick_weighted, weights_cdf

PACKAGE_ROOT = Path(repro.__file__).parent

seeds = st.integers(min_value=0, max_value=2**63 - 1)
int_options = st.lists(st.integers(-(2**31), 2**31), min_size=1, max_size=8)
# Letters only: numpy's fixed-width string arrays drop trailing NULs, which
# would make ``choice`` itself disagree with the option it picked.
str_options = st.lists(st.text(alphabet="abcdefghrelusgmoidtanh", max_size=6), min_size=1, max_size=8)
options = st.one_of(int_options, str_options).map(tuple)
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)), min_size=1, max_size=8
).filter(lambda values: sum(values) > 0)
#: Plain draws the operators interleave with their choices.
interleaved = st.lists(st.sampled_from(["random", "integers", "none"]), min_size=1, max_size=6)


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _interleave(step: str, a: np.random.Generator, b: np.random.Generator) -> None:
    if step == "random":
        assert a.random() == b.random()
    elif step == "integers":
        assert a.integers(0, 7) == b.integers(0, 7)


def _normalized(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values / values.sum()


def _roulette_probabilities(fitness: list[float]) -> np.ndarray | None:
    """``RouletteWheelSelection``'s wheel, or None when it draws uniformly."""
    values = np.asarray(fitness, dtype=float)
    shifted = values - values.min()
    total = shifted.sum()
    return shifted / total if total > 0 else None


def _rank_probabilities(count: int, pressure: float) -> np.ndarray:
    """``RankSelection``'s linear rank weights, best member first."""
    ranks = np.arange(count, dtype=float)
    probabilities = (2 - pressure) / count + 2 * (count - 1 - ranks) * (pressure - 1) / (
        count * (count - 1)
    )
    return probabilities / probabilities.sum()


def _assert_weighted_draws_match(seed: int, probabilities: np.ndarray, steps: list[str]) -> None:
    a, b = _twins(seed)
    cdf = weights_cdf(probabilities)
    for step in steps:
        assert pick_weighted(b, cdf) == int(a.choice(len(probabilities), p=probabilities))
        _interleave(step, a, b)
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(seed=seeds, values=options, steps=interleaved)
def test_pick_matches_choice(seed, values, steps):
    a, b = _twins(seed)
    for step in steps:
        expected = a.choice(values)
        picked = pick(b, values)
        assert picked == expected
        assert type(picked) is type(values[0])
        _interleave(step, a, b)
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(seed=seeds, raw=weights, steps=interleaved)
def test_pick_weighted_matches_choice_with_zero_weights(seed, raw, steps):
    _assert_weighted_draws_match(seed, _normalized(raw), steps)


@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    fitness=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=2, max_size=24),
    steps=interleaved,
)
def test_pick_weighted_matches_choice_on_the_roulette_wheel(seed, fitness, steps):
    probabilities = _roulette_probabilities(fitness)
    if probabilities is not None:
        _assert_weighted_draws_match(seed, probabilities, steps)


@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    count=st.integers(min_value=2, max_value=64),
    pressure=st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    steps=interleaved,
)
def test_pick_weighted_matches_choice_on_rank_weights(seed, count, pressure, steps):
    _assert_weighted_draws_match(seed, _rank_probabilities(count, pressure), steps)


class _FixedDraw:
    """A stand-in generator whose ``random()`` returns one fixed value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def test_weights_cdf_ends_at_one_and_skips_zero_weights():
    cdf = weights_cdf(_normalized([0.0, 1.0, 0.0, 3.0]))
    assert cdf == [0.0, 0.25, 0.25, 1.0]
    draws = [pick_weighted(_FixedDraw(u), cdf) for u in (0.0, 0.2, 0.25, 0.9)]
    assert draws == [1, 1, 3, 3]


def test_the_last_option_takes_the_largest_draw():
    # Ten equal weights sum to 0.9999999999999999; without dividing by the
    # last entry, the largest draw below one would fall off the end.
    cdf = weights_cdf(_normalized([1.0] * 10))
    assert pick_weighted(_FixedDraw(np.nextafter(1.0, 0.0)), cdf) == 9


# ------------------------------------------------------------------ guard

GUARDED = ("core", "hardware")


def _replacing_choice_calls(tree: ast.AST) -> list[int]:
    """Lines of every ``.choice(...)`` call not made with ``replace=False``."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"
        ):
            continue
        without_replacement = any(
            keyword.arg == "replace"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
            for keyword in node.keywords
        )
        if not without_replacement:
            lines.append(node.lineno)
    return lines


def test_no_replacing_choice_call_remains_on_the_search_path():
    offenders = {}
    for package in GUARDED:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
            lines = _replacing_choice_calls(ast.parse(path.read_text(), filename=str(path)))
            if lines:
                offenders[str(path.relative_to(PACKAGE_ROOT))] = lines
    assert offenders == {}


def test_the_guard_sees_every_replacing_form():
    # The guard must flag each ``replace=True`` spelling, or it guards nothing.
    for source in (
        "rng.choice(options)",
        "rng.choice(3, p=weights)",
        "rng.choice(3, size=2, replace=True)",
        "rng.choice(3, size=2, replace=flag)",
        "self._rng.choice(options, 2)",
    ):
        assert _replacing_choice_calls(ast.parse(source)) == [1], source
    assert _replacing_choice_calls(ast.parse("rng.choice(5, size=3, replace=False)")) == []
