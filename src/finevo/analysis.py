"""End-to-end structural analysis of a mapping law."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliques import CliqueData, compute_W
from .limits import CyclicLimit, assemble_limits, boundary_stationary
from .measure import MappingLaw
from .semigroup import DEFAULT_ELEMENT_CAP, ReesData, generate, idempotents, kernel, rees_at


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything the reports and the simulator need about one law."""

    law: MappingLaw
    closure: np.ndarray  # canonical rows; the float pass and the report read them
    kernel_at: np.ndarray  # the kernel's closure positions, in the order of rd.kernel
    rd: ReesData
    limits: CyclicLimit
    cliques: CliqueData


def analyze_law(law: MappingLaw, *, cap: int = DEFAULT_ELEMENT_CAP) -> Analysis:
    """Compute the full algebraic limit structure of a mapping law.

    ``cap`` bounds the closure's elements and the stable tuples W_mu. The
    base idempotent is the first idempotent of the kernel in canonical
    order; any choice yields an isomorphic decomposition.
    """
    closure = generate(law.rows, cap=cap)
    kernel_at = kernel(closure)
    ker = closure[kernel_at]
    # the kernel is a finite semigroup, so it holds an idempotent
    rd = rees_at(law.rows, ker, int(idempotents(ker)[0]))

    limits = assemble_limits(law, rd, boundary_stationary(law, rd, left=True),
                             boundary_stationary(law, rd, left=False))
    return Analysis(law=law, closure=closure, kernel_at=kernel_at, rd=rd, limits=limits,
                    cliques=compute_W(rd, cap=cap))


def example_law() -> MappingLaw:
    """The built-in two-generator law on five points used by `finevo example`."""
    return MappingLaw.from_dict(
        {
            "n": 5,
            "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4]],
            "weights": ["1/2", "1/2"],
        }
    )
