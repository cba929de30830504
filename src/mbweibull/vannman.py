"""Vannman (1991) wood-drying experiment: checking-area damage for 36 boards dried under
two chemical schedules. Zero rows are boards that never checked, i.e. instantaneous
failures. ``VANNMAN_DATA`` is read-only; ``vannman_data()`` returns a writable copy."""

import numpy as np

__all__ = ["VANNMAN_DATA", "vannman_data"]

VANNMAN_DATA = np.array(
    [
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.00, 0.00),
        (0.08, 0.00),
        (0.32, 0.00),
        (0.38, 0.00),
        (0.46, 0.00),
        (0.71, 0.02),
        (0.82, 0.02),
        (1.15, 0.02),
        (1.23, 0.04),
        (1.40, 0.09),
        (3.00, 0.23),
        (3.23, 0.26),
        (4.03, 0.37),
        (4.20, 0.93),
        (5.04, 0.94),
        (5.36, 1.02),
        (6.12, 2.23),
        (6.79, 2.79),
        (7.90, 3.93),
        (8.27, 4.47),
        (8.62, 5.12),
        (9.50, 5.19),
        (10.15, 5.39),
        (10.58, 6.83),
    ]
)
VANNMAN_DATA.setflags(write=False)


def vannman_data() -> np.ndarray:
    """A fresh copy of the 36-board dataset, columns (schedule1, schedule2)."""
    return VANNMAN_DATA.copy()
