"""JSON report assembly and its text rendering.

The JSON object is the single data path; the text output is a rendering of
the same dict, so the two formats cannot drift. All rationals are exact
strings in lowest terms, transformations use the ``[2,3,4,1,5]`` literal
syntax and point tuples use ``(2,4,5)``.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .analysis import Analysis
from .cliques import invariant_law
from .limits import _same
from .measure import _uniform
from .semigroup import literals
from .transform import tuple_literal


def _vector_json(rows: np.ndarray, vector: tuple, *, points: bool = False) -> dict:
    """The positive weights of an exact vector, keyed by the literals of
    the maps ``rows`` (of the point tuples ``rows`` for ``points``), one
    per position, in the order of the rows as tuples."""
    nums, den = vector
    images = rows.tolist()
    keys = list(map(tuple_literal, images)) if points else literals(rows)
    return {keys[i]: str(Fraction(nums[i], den))
            for i in sorted(range(len(images)), key=images.__getitem__) if nums[i]}


def build_report(analysis: Analysis, *, seed=None, timestamp: bool = True,
                 verification=None, oracle=None, cesaro=None) -> dict:
    """The full report for one analyzed law: its structure, then the given
    run blocks, in the order of the keywords."""
    rd, limits, cd = analysis.rd, analysis.limits, analysis.cliques

    canonical_Lambda_W = _uniform(len(cd.W))
    marginal, den = cd.first_marginal(invariant_law(analysis, canonical_Lambda_W), analysis.law.n)

    projections = [{"x": cd.W_mu[s].tolist(), "L": literals(rd.L[[cd.state_l[s]]])[0],
                    "G": literals(rd.G[[cd.state_g[s]]])[0], "W": cd.W[cd.state_w[s]].tolist()}
                   for s in range(min(3, len(cd.W_mu)))]

    report = {
        "tool": {"name": "finevo", "version": __version__},
        "input": analysis.law.to_dict(),
        "semigroup": {
            "size": len(analysis.closure),
            "kernel_size": len(rd.kernel),
            "m_mu": cd.m_mu,
            "elements": literals(analysis.closure),
            "kernel": literals(rd.kernel),
        },
        "rees": {
            "e": literals(rd.kernel[[rd.e]])[0],
            "L": literals(rd.L),
            "G": literals(rd.G),
            "R": literals(rd.R),
            "group_order": len(rd.G),
        },
        "limits": {
            "p": rd.p,
            "eta_L": _vector_json(rd.L, limits.eta_L),
            "eta_R": _vector_json(rd.R, limits.eta_R),
            "H": literals(rd.G[rd.H]),
            "gamma": literals(rd.G[[rd.C[1 % rd.p]]])[0],
            "eta": _vector_json(rd.kernel, limits.eta),
            "nu": _vector_json(rd.kernel, limits.nu),
            "H_equals_G": len(rd.H) == len(rd.G),
            "eta_equals_nu": _same(limits.eta, limits.nu),
        },
        "cliques": {
            "m_mu": cd.m_mu,
            "f_cliques": cd.f_cliques.tolist(),
            "W_mu_size": len(cd.W_mu),
            "W": cd.W.tolist(),
            "example_projections": projections,
        },
        "invariant_law": {
            "Lambda_W": _vector_json(cd.W, canonical_Lambda_W, points=True),
            "first_coordinate_marginal": [str(Fraction(v, den)) for v in marginal],
        },
    }
    if seed is not None:
        report["seed"] = seed
    if timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    blocks = {"verification": verification, "oracle": oracle, "cesaro": cesaro}
    report.update((key, block) for key, block in blocks.items() if block is not None)
    return report


def report_to_json(report: dict) -> str:
    """``json.dumps(report, indent=2)``; the closure's element list, the bulk
    of a large report, is one join spliced into the rest: a literal needs no
    escaping, so the separator carries the quotes."""
    rest = {**report, "semigroup": {**report["semigroup"], "elements": []}}
    head, _, tail = json.dumps(rest, indent=2).partition('"elements": []')
    items = '",\n      "'.join(report["semigroup"]["elements"])
    return f'{head}"elements": [\n      "{items}"\n    ]{tail}'


def _render_value(value, indent: int, lines: list) -> None:
    """Append the lines of a dict, as ``key:`` entries, or of a list, as
    ``-`` entries; a nested dict or list, unless a list of scalars, goes on
    the lines below its label, one level deeper."""
    pad = "  " * indent
    if isinstance(value, dict):
        pairs = ((f"{key}:", sub) for key, sub in value.items())
    else:
        pairs = (("-", sub) for sub in value)
    for label, sub in pairs:
        if isinstance(sub, list) and not any(isinstance(v, (dict, list)) for v in sub):
            lines.append(f"{pad}{label} [{', '.join(str(v) for v in sub)}]")
        elif isinstance(sub, (dict, list)):
            lines.append(f"{pad}{label}")
            _render_value(sub, indent + 1, lines)
        else:
            lines.append(f"{pad}{label} {sub}")


def render_text(report: dict) -> str:
    """Human-readable rendering of the JSON report (same data, no drift)."""
    lines = []
    _render_value(report, 0, lines)
    return "\n".join(lines)
