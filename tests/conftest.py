"""Shared random-instance builders for the test suite.

Everything is seeded explicitly at the call site so individual tests stay
reproducible in isolation.  ``random_element`` and ``random_gaussian`` are
the command line's own builders, so a test and a ``--seed`` run of the CLI
draw the same instances.
"""

import random
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis import strategies as st

from nctorus import vector
from nctorus.cli import _random_element as random_element, _random_gaussian as random_gaussian
from nctorus.gaussians import PolyGaussTerm

# Every Hypothesis test draws the same examples on every run and writes no
# example database; a test's own @settings sets only max_examples.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
# Hypothesis caches constants it collects from the source under its home
# directory whatever the database setting: a temporary home, removed when
# the run exits, leaves the checkout as the run found it.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# Hypothesis parts of a coefficient: signed zeros, values at and below 1e-14
# (gaussians.PRUNE_TOL) and ordinary ones; COEFFS builds complex numbers of them.
PARTS = st.sampled_from((0.0, -0.0, 1e-14, -1e-14, 5e-15, 1.0, -0.7)) | st.floats(-2, 2)
COEFFS = st.builds(complex, PARTS, PARTS)


def random_vector(rng, m, nterms=2, max_deg=2):
    """Multi-term vector mixing widths, centers and components."""
    terms = []
    for _ in range(nterms):
        sigma = complex(rng.uniform(0.6, 1.5), rng.uniform(-0.3, 0.3))
        c = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        mu = rng.randrange(m)
        deg = rng.randint(0, max_deg)
        poly = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(deg + 1))
        terms.append(PolyGaussTerm(poly=poly, sigma=sigma, c=c, mu=mu))
    return vector(m, terms)


def random_theta(rng):
    """Generic irrational-looking angle away from small rational trouble."""
    return rng.uniform(0.05, 0.95)


def coprime_pair(rng, bound=3):
    import math
    while True:
        n = rng.randint(-bound, bound)
        m = rng.randint(1, bound)
        if math.gcd(n, m) == 1 and n != 0:
            return n, m
