"""The simulator's random streams are plain seeded ``random.Random``.

Campaign records are pinned byte-identical across commits
(``tests/golden``), so the streams a :class:`Simulator` hands out are part
of the contract: ``sim.rng`` draws what ``random.Random(seed)`` draws, a
fork labelled ``label`` draws what ``random.Random(f"{seed}/{label}")``
draws, and the helper methods map onto the stdlib distributions.
"""

import random

import pytest

from repro.simnet.engine import Simulator


@pytest.mark.parametrize("seed", [0, 7, 2**40, "string-seed", 3.5])
def test_seed_types_match(seed):
    sim = Simulator(seed=seed)
    ref = random.Random(seed)
    assert [sim.rng.random() for _ in range(10)] == [
        ref.random() for _ in range(10)
    ]


def test_derived_distributions_match():
    """The helpers draw exactly the stdlib distribution they wrap."""
    sim = Simulator(seed=55)
    ref = random.Random(55)
    for _ in range(300):
        assert sim.uniform(0, 10) == ref.uniform(0, 10)
        assert sim.normal(5.0, 2.0) == ref.gauss(5.0, 2.0)
        assert sim.bounded_normal(0.0, 1.0, lo=-0.5, hi=0.5) == min(
            0.5, max(-0.5, ref.gauss(0.0, 1.0)))
        assert sim.expovariate(0.5) == ref.expovariate(0.5)
        assert sim.chance(0.3) == (ref.random() < 0.3)
        assert sim.choice(range(97)) == ref.choice(range(97))
    assert sim.chance(0.0) is False and sim.chance(1.0) is True  # no draw
    assert sim.rng.random() == ref.random()


def test_simulator_streams_match_stdlib_oracle():
    """The main and forked streams draw what ``random.Random`` would."""
    sim, ref = Simulator(seed=5), random.Random(5)
    assert type(sim.rng) is random.Random
    assert [sim.rng.random() for _ in range(100)] == [
        ref.random() for _ in range(100)
    ]
    fork, ref_fork = sim.fork_rng("x"), random.Random("5/x")
    assert type(fork) is random.Random
    assert [fork.gauss(0, 1) for _ in range(100)] == [
        ref_fork.gauss(0, 1) for _ in range(100)
    ]
