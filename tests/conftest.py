"""Seeded random generators shared by the tests: the acceptance gate's own,
under the names the tests use, and generic configurations with mixed
denominators; and a deadline for bodies that must not hang."""

import signal
from contextlib import contextmanager
from fractions import Fraction

from air.acceptance import (  # noqa: F401
    _random_diagram as random_matrix_diagram,
    _random_generic_config as random_generic_config,
    _random_stokes_config as random_stokes_config,
    _random_zeta as random_generic_zeta,
)
from air.exactgeom import PointConfig, check_genericity


def random_mixed_config(rng, n):
    """A generic configuration with denominators drawn from 1, 2, 3, 5, 7."""
    while True:
        items, seen = [], set()
        while len(items) < n:
            p = (Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7))),
                 Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7))))
            if p not in seen:
                seen.add(p)
                items.append((f"p{len(items) + 1}", p[0], p[1]))
        cfg = PointConfig.of(items)
        if check_genericity(cfg):
            return cfg


@contextmanager
def deadline(seconds):
    """Fail, rather than block, if the body runs longer than the deadline."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer in {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
