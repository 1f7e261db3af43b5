"""Property tests: kernel-simplified conditions agree with the seed semantics.

Random condition trees are built from the seed constructors, pushed
through :meth:`ConditionKernel.intern`, and both versions are evaluated under
*every* valuation of their nulls over a small domain.  The kernel may
restructure a condition (flattening, deduplication, unsat collapse) but
must never change its truth table.
"""

import itertools
import random

import pytest

from repro.datamodel import (
    FALSE,
    And,
    ConditionKernel,
    Eq,
    Not,
    Null,
    Or,
    Valuation,
    kernel_nulls,
)

NULLS = [Null("k1"), Null("k2"), Null("k3")]
CONSTANTS = ["a", "b", 1, 2]
DOMAIN = ["a", "b", 1, 3]
SEEDS = list(range(120))


def random_condition(rng, depth=3):
    """A random condition over the shared nulls and constants."""
    if depth <= 0 or rng.random() < 0.35:
        pool = NULLS + CONSTANTS
        return Eq(rng.choice(pool), rng.choice(pool))
    choice = rng.random()
    if choice < 0.25:
        return Not(random_condition(rng, depth - 1))
    width = rng.randrange(2, 4)
    operands = tuple(random_condition(rng, depth - 1) for _ in range(width))
    return And(operands) if choice < 0.65 else Or(operands)


def all_valuations(nulls):
    nulls = sorted(nulls, key=lambda n: n.name)
    for combo in itertools.product(DOMAIN, repeat=len(nulls)):
        yield Valuation(dict(zip(nulls, combo)))


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_agrees_with_seed_evaluation(seed):
    rng = random.Random(seed)
    condition = random_condition(rng)
    canonical = ConditionKernel().intern(condition)
    # the kernel never invents nulls, and evaluation agrees everywhere
    assert kernel_nulls(canonical) <= condition.nulls()
    for valuation in all_valuations(condition.nulls()):
        assert canonical.evaluate(valuation) == condition.evaluate(valuation), (
            f"kernel changed the truth table of {condition} under {valuation}"
        )


@pytest.mark.parametrize("seed", SEEDS[:40])
def test_unsat_collapse_is_sound(seed):
    """Whenever the kernel returns FALSE, no valuation satisfies the seed form."""
    rng = random.Random(seed)
    operands = tuple(
        Eq(rng.choice(NULLS + CONSTANTS), rng.choice(NULLS + CONSTANTS)) for _ in range(4)
    )
    seed_condition = And(operands)
    canonical = ConditionKernel().intern(seed_condition)
    if canonical is FALSE:
        assert not any(
            seed_condition.evaluate(v) for v in all_valuations(seed_condition.nulls())
        )


def test_seed_budget():
    assert len(SEEDS) >= 100
