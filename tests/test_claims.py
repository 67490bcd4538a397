"""Published claims tested where they are tight, on seeded draws.

Each claim prints the largest ratio of observed value to bound it saw, so a
loosening shows in the test output (``pytest -s``).
"""

import numpy as np

from holocap.gamma import gamma_cap, haar_unitary, linear_image, product_predicate
from holocap.sets import Disk

PROJECTION_DRAWS = 64


def test_projection_lies_in_the_shadow_disk():
    # the first coordinate of U(D1 x D2) sweeps the shadow U00 D1 + U01 D2, a disk of
    # radius |U00| r1 + |U01| r2; the kept set lies in it, so its capacity is at most that
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(PROJECTION_DRAWS):
        centres = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        radii = rng.uniform(0.3, 2.0, 2)
        u = haar_unitary(2, rng)
        pred = linear_image(u, product_predicate([Disk(c, r) for c, r in zip(centres, radii)]))
        (_, value), = gamma_cap(pred).per_unitary
        bound = float(np.abs(u[0]) @ radii)
        assert value <= bound * (1 + 1e-12), (value, bound)
        worst = max(worst, value / bound)
    print(f"projection: worst value / shadow radius {worst:.6f} over {PROJECTION_DRAWS} draws")
