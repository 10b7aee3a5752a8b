"""End-to-end structural analysis of a mapping law."""

from __future__ import annotations

from dataclasses import dataclass

from .cliques import CliqueData, compute_W
from .errors import StructuralInconsistencyError
from .limits import (
    CyclicLimit,
    assemble_limits,
    boundary_factor,
    left_stationary,
    right_stationary,
)
from .measure import MappingLaw
from .semigroup import (
    DEFAULT_ELEMENT_CAP,
    ReesData,
    Semigroup,
    generate,
    kernel,
    rees_at,
)
from .transform import Transformation


@dataclass(frozen=True)
class Analysis:
    """Everything the reports and the simulator need about one law."""

    law: MappingLaw
    semigroup: Semigroup
    rd: ReesData
    limits: CyclicLimit
    cliques: CliqueData


def base_idempotent(semigroup: Semigroup, ker: tuple) -> Transformation:
    """The first idempotent of the kernel in canonical element order.

    Canonical order (BFS by word length, lexicographic ties) makes the
    choice deterministic; any choice yields an isomorphic decomposition.
    """
    kset = set(ker)
    for f in semigroup:
        if f in kset and f.is_idempotent():
            return f
    raise StructuralInconsistencyError("kernel contains no idempotent")


def analyze_law(law: MappingLaw, *, cap: int = DEFAULT_ELEMENT_CAP) -> Analysis:
    """Compute the full algebraic limit structure of a mapping law."""
    semigroup = generate(law.generators, cap=cap)
    ker = kernel(semigroup)
    e = base_idempotent(semigroup, ker)
    rd = rees_at(semigroup, ker, e)

    eta_L = boundary_factor(rd, left_stationary(law, rd), left=True)
    eta_R = boundary_factor(rd, right_stationary(law, rd), left=False)
    limits = assemble_limits(law, rd, eta_L, eta_R)
    return Analysis(law=law, semigroup=semigroup, rd=rd, limits=limits,
                    cliques=compute_W(rd))


def example_law() -> MappingLaw:
    """The built-in two-generator law on five points used by `finevo example`."""
    return MappingLaw.from_dict(
        {
            "n": 5,
            "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4]],
            "weights": ["1/2", "1/2"],
        }
    )
