"""Reference values for the three benchmark datasets, used by the reproduce command.

Each cell holds the published point estimate, its 95% bootstrap CI, and
the achievable upper bound where one is defined.  Tolerances: point
values and bounds to within 0.002 (three published decimals plus schema
jitter), CI endpoints to within 0.02 (resampling-stream differences).

Two bound cells per dataset (rpmi and ricmi_yx) are reproduced only
approximately by this implementation; see the known deviations in
README.md ("Tests and the acceptance gate") and the ROADMAP.md item "Red
columns: a scorer, and a decision" for what has been ruled out.  They are
still compared at the standard tolerance and reported honestly.
"""

from __future__ import annotations

from typing import NamedTuple

POINT_TOL = 0.002
CI_TOL = 0.02
SEED = 20260419
B_RESAMPLES = 1000


class ReferenceCell(NamedTuple):
    value: float | None
    ci: tuple[float, float] | None = None
    bound: float | None = None


REFERENCE: dict[str, dict[str, ReferenceCell]] = {
    "titanic": {
        "pcc": ReferenceCell(-0.339, (-0.40, -0.28)),
        "pc": ReferenceCell(-0.321, (-0.38, -0.26)),
        "rmi": ReferenceCell(0.146, (0.119, 0.174), 0.555),
        "rcmi": ReferenceCell(0.160, (0.129, 0.186), 0.246),
        "rpmi": ReferenceCell(0.195, (0.165, 0.224), 0.206),
        "ricmi_xy": ReferenceCell(0.159, (0.130, 0.186), 0.252),
        "ricmi_yx": ReferenceCell(0.221, (0.173, 0.257), 0.326),
        "ricmi_two": ReferenceCell(0.190, (0.154, 0.221), 0.269),
        "nace": ReferenceCell(0.316, (0.247, 0.383), 1.000),
        "race": ReferenceCell(0.275, (0.215, 0.332), 1.000),
        "rmi_do": ReferenceCell(0.116, (0.091, 0.141), 0.555),
    },
    "adult": {
        "pcc": ReferenceCell(0.346, (0.336, 0.356)),
        "pc": ReferenceCell(0.349, (0.338, 0.359)),
        "rmi": ReferenceCell(0.148, (0.143, 0.152), 0.556),
        "rcmi": ReferenceCell(0.149, (0.144, 0.154), 0.247),
        "rpmi": ReferenceCell(0.152, (0.148, 0.157), 0.190),
        "ricmi_xy": ReferenceCell(0.148, (0.143, 0.152), 0.248),
        "ricmi_yx": ReferenceCell(0.156, (0.151, 0.162), 0.392),
        "ricmi_two": ReferenceCell(0.152, (0.147, 0.157), 0.284),
        "nace": ReferenceCell(0.544, (0.525, 0.562), 1.000),
        "race": ReferenceCell(0.521, (0.505, 0.538), 1.000),
        "rmi_do": ReferenceCell(0.144, (0.139, 0.148), 0.556),
    },
    "berkeley": {
        "pcc": ReferenceCell(0.143, (0.113, 0.172)),
        "pc": ReferenceCell(None),  # departments are not ordinal; cell left empty
        "rmi": ReferenceCell(0.061, (0.048, 0.074), 0.549),
        "rcmi": ReferenceCell(0.030, (0.021, 0.046), 0.222),
        "rpmi": ReferenceCell(0.042, (0.030, 0.064), 0.277),
        "ricmi_xy": ReferenceCell(0.053, (0.037, 0.082), 0.304),
        "ricmi_yx": ReferenceCell(0.037, (0.026, 0.059), 0.343),
        "ricmi_two": ReferenceCell(0.045, (0.031, 0.070), 0.310),
        "nace": ReferenceCell(0.043, (0.008, 0.078), 1.000),
        "race": ReferenceCell(0.037, (0.007, 0.067), 1.000),
        "rmi_do": ReferenceCell(0.018, (0.003, 0.033), 0.549),
    },
}
