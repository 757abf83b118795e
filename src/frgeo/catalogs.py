"""Built-in catalog functions used by the experiments and the test suite.

All catalogs are exact :class:`~frgeo.boxes.BoxFunction` tilings of [0,1)^m.
The uniform densities pair with the zero-mean, unit-energy wavelets below to
form valid geodesic initial data:

* ``g01_1d``: +-2 on the first two eighths of [0,1), zero elsewhere.
* ``g02_1d``: +-2 alternating on the first four sixteenths.
* ``g01_2d``: +-4 on the lower/upper halves of [0,1/4)x[0,1/4).
* ``g02_2d``: +-4 on the 2x2 checkerboard of eighth-cells in [0,1/4)^2.
* ``g03_2d``: +-4 on the 4x4 checkerboard of sixteenth-cells in [0,1/4)^2
  (sign +4 on cells whose index parity is even), zero outside.  This is the
  reading of the 4x4 pattern under which the wavelet keeps zero mean and
  g^2/f = 16 on [0,1/4)^2, matching the 2x2 case.

The "misaligned" pair has breakpoints at thirds, so no dyadic grid ever
aligns with it; values are rational and normalized exactly:
f0 = (3/4, 3/2, 3/4) and g0 = (3/4, -3/2, 3/4) on [0,1/3), [1/3,2/3), [2/3,1).
"""

from __future__ import annotations

from fractions import Fraction

from .boxes import BoxFunction

F = Fraction


def uniform1d() -> BoxFunction:
    return BoxFunction.from_rows(1, [(1, 0, 1)])


def uniform2d() -> BoxFunction:
    return BoxFunction.from_rows(2, [(1, 0, 1, 0, 1)])


def g01_1d() -> BoxFunction:
    return BoxFunction.from_rows(
        1,
        [
            (2, 0, F(1, 8)),
            (-2, F(1, 8), F(1, 4)),
            (0, F(1, 4), 1),
        ],
    )


def g02_1d() -> BoxFunction:
    return BoxFunction.from_rows(
        1,
        [
            (2, 0, F(1, 16)),
            (-2, F(1, 16), F(1, 8)),
            (2, F(1, 8), F(3, 16)),
            (-2, F(3, 16), F(1, 4)),
            (0, F(1, 4), 1),
        ],
    )


def _outside_sw_quarter() -> list[tuple]:
    """Zero filler for the complement of [0,1/4)^2 as two boxes."""
    return [
        (0, F(1, 4), 1, 0, 1),
        (0, 0, F(1, 4), F(1, 4), 1),
    ]


def g01_2d() -> BoxFunction:
    rows = [
        (4, 0, F(1, 4), 0, F(1, 8)),
        (-4, 0, F(1, 4), F(1, 8), F(1, 4)),
    ]
    return BoxFunction.from_rows(2, rows + _outside_sw_quarter())


def g02_2d() -> BoxFunction:
    rows = []
    h = F(1, 8)
    for k1 in range(2):
        for k2 in range(2):
            sign = 4 if (k1 + k2) % 2 == 0 else -4
            rows.append((sign, k1 * h, (k1 + 1) * h, k2 * h, (k2 + 1) * h))
    return BoxFunction.from_rows(2, rows + _outside_sw_quarter())


def g03_2d() -> BoxFunction:
    rows = []
    h = F(1, 16)
    for k1 in range(4):
        for k2 in range(4):
            sign = 4 if (k1 + k2) % 2 == 0 else -4
            rows.append((sign, k1 * h, (k1 + 1) * h, k2 * h, (k2 + 1) * h))
    return BoxFunction.from_rows(2, rows + _outside_sw_quarter())


def misaligned_f0_1d() -> BoxFunction:
    """Unit-mass density with a raised middle third: 3/4, 3/2, 3/4."""
    return BoxFunction.from_rows(
        1,
        [
            (F(3, 4), 0, F(1, 3)),
            (F(3, 2), F(1, 3), F(2, 3)),
            (F(3, 4), F(2, 3), 1),
        ],
    )


def misaligned_g0_1d() -> BoxFunction:
    # misaligned_f0_1d with the sign of the middle piece flipped, so the
    # mean is (3/4 - 3/2 + 3/4)/3 = 0 and the energy sum v_i^2/(3 f_i) is
    # 1/4 + 1/2 + 1/4 = 1, both exact in rational arithmetic.
    return BoxFunction.from_rows(
        1,
        [
            (F(3, 4), 0, F(1, 3)),
            (-F(3, 2), F(1, 3), F(2, 3)),
            (F(3, 4), F(2, 3), 1),
        ],
    )


def misaligned_f0_2d() -> BoxFunction:
    return BoxFunction.from_rows(
        2,
        [
            (F(3, 4), 0, F(1, 3), 0, 1),
            (F(3, 2), F(1, 3), F(2, 3), 0, 1),
            (F(3, 4), F(2, 3), 1, 0, 1),
        ],
    )


def misaligned_g0_2d() -> BoxFunction:
    return BoxFunction.from_rows(
        2,
        [
            (F(3, 4), 0, F(1, 3), 0, 1),
            (-F(3, 2), F(1, 3), F(2, 3), 0, 1),
            (F(3, 4), F(2, 3), 1, 0, 1),
        ],
    )


def single_break_g0_1d() -> BoxFunction:
    """Two-level wavelet with its only breakpoint at 1/3, unit energy.

    Values are -2w on [0,1/3) and w on [1/3,1) with w = 1/sqrt(2), so the
    mean is exactly zero and the energy against the uniform density is one to
    a few ulp (w is irrational, embedded as the nearest float).
    """
    w = 0.5**0.5
    return BoxFunction.from_rows(
        1,
        [
            (-2 * w, 0, F(1, 3)),
            (w, F(1, 3), 1),
        ],
    )


BUILTIN_CATALOGS = {
    "uniform1d": uniform1d,
    "uniform2d": uniform2d,
    "g01_1d": g01_1d,
    "g02_1d": g02_1d,
    "g01_2d": g01_2d,
    "g02_2d": g02_2d,
    "g03_2d": g03_2d,
    "misaligned_f0_1d": misaligned_f0_1d,
    "misaligned_g0_1d": misaligned_g0_1d,
    "misaligned_f0_2d": misaligned_f0_2d,
    "misaligned_g0_2d": misaligned_g0_2d,
    "single_break_g0_1d": single_break_g0_1d,
}
