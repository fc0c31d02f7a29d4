"""Embedded reference data.

The dicentrics data record, for each of five absorbed radiation doses, how
many blood cells carried y = 0..7 dicentric chromosome aberrations.  The
table is stored in frequency form (dose, y, count), and fits read ``count``
as frequency weights; the classical model for these data is a quadratic
dose effect on the log mean.
"""

from __future__ import annotations

from .dataio import _COUNT, Column, DatasetTable, table_csv
from .errors import InvalidParameterError

_DOSES = (0.1, 0.3, 0.5, 0.7, 1.0)

# Cell frequencies by number of dicentrics y = 0..7, one row per dose.
_FREQUENCIES = (
    (2281, 130, 21, 1, 0, 0, 0, 0),
    (847, 127, 19, 6, 1, 0, 0, 0),
    (567, 165, 49, 16, 2, 0, 0, 0),
    (356, 167, 62, 9, 5, 1, 0, 0),
    (169, 131, 72, 18, 9, 0, 0, 1),
)

DATASET_NAMES = ("dicentrics",)


def dicentrics_table() -> DatasetTable:
    """The dicentrics data as a typed table in frequency form: 40 rows
    (dose, y, count), which ``build_design`` fits with ``count`` as
    frequency weights."""
    dose, y, count = [], [], []
    for d, freqs in zip(_DOSES, _FREQUENCIES):
        for k, n in enumerate(freqs):
            dose.append(d)
            y.append(k)
            count.append(n)
    return DatasetTable(
        (
            Column("dose", "real", tuple(dose)),
            Column("y", "integer", tuple(y)),
            Column(_COUNT, "integer", tuple(count)),
        )
    )


def dicentrics_csv() -> str:
    """The frequency-form table as CSV text (header dose,y,count)."""
    return table_csv(dicentrics_table())


def dataset_table(name: str) -> DatasetTable:
    if name == "dicentrics":
        return dicentrics_table()
    raise InvalidParameterError(
        f"unknown dataset {name!r}; available: {', '.join(DATASET_NAMES)}"
    )
