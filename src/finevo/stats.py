"""Check records and chi-square machinery for the verification harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .errors import InputError


@dataclass
class Check:
    """One named verification outcome, exact or statistical.

    Statistical checks always carry their degrees of freedom and the
    significance level they were run at.
    """

    name: str
    kind: str  # "exact" | "statistical"
    passed: bool
    statistic: float = None
    df: int = None
    p_value: float = None
    alpha: float = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "passed": self.passed}
        if self.kind == "statistical":
            out.update(
                statistic=self.statistic,
                df=self.df,
                p_value=self.p_value,
                alpha=self.alpha,
            )
        if self.note:
            out["note"] = self.note
        return out


def verification_json(checks: list, config: dict) -> dict:
    """The report's verification block: a run's checks, in order, with the
    seed, alpha and config they were run at."""
    return {
        "replications": config["replications"],
        "seed": config["seed"],
        "alpha": config["alpha"],
        "config": {k: config[k] for k in ("mode", "k_min", "k_max", "window")},
        "passed": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
    }


def _degenerate(name: str, alpha: float, what: str) -> Check:
    return Check(name=name, kind="statistical", passed=True, statistic=0.0, df=0,
                 p_value=1.0, alpha=alpha, note=f"degenerate: {what}, auto-pass")


def _chi_square(name: str, stat: float, df: int, alpha: float) -> Check:
    p_value = float(chdtrc(df, stat))
    return Check(name=name, kind="statistical", passed=p_value >= alpha,
                 statistic=stat, df=df, p_value=p_value, alpha=alpha)


def chi_square_gof(counts, probs: tuple, alpha: float, name: str) -> Check:
    """Pearson goodness-of-fit of observed counts against exact probabilities.

    ``counts`` and the exact vector ``probs``, (numerators, denominator),
    run over the same categories in one order; the counts sum to the sample
    size, at least 1, and one pass adds the statistic's terms in that order.
    Counts at a category of probability zero make the check fail outright
    (an impossible value occurred). A single category of positive
    probability auto-passes as degenerate.
    """
    nums, den = probs
    counts = np.asarray(counts).tolist()
    total = sum(counts)
    if not total:
        raise InputError("goodness-of-fit needs at least one sample")
    stat, df, outside = 0.0, -1, 0  # df ends one below the categories of positive probability
    for i, (obs, num) in enumerate(zip(counts, nums, strict=True)):
        # Python's int / int is correctly rounded at any size, as float(Fraction) is
        p = num / den
        if p < 0:
            raise InputError(f"negative expected probability at category {i}")
        if p > 0:
            exp = p * total
            stat += (obs - exp) ** 2 / exp
            df += 1
        else:
            outside += obs
    if outside:  # the statistic is infinite; the report holds JSON null for it
        return Check(name=name, kind="statistical", passed=False, statistic=None,
                     df=max(df, 0), p_value=0.0, alpha=alpha,
                     note=f"observed {outside} samples outside the support")
    if df < 1:
        return _degenerate(name, alpha, "single category")
    return _chi_square(name, stat, df, alpha)


def chi_square_independence(table, alpha: float, name: str) -> Check:
    """Pearson contingency-table test of independence for paired samples.

    ``table[a][b]`` counts the samples in row category a and column
    category b; the statistic adds its terms row by row in table order.
    Rows and columns with no samples are dropped, and tables with fewer
    than two rows or columns left auto-pass as degenerate.
    """
    table = np.asarray(table)
    table = table[table.any(axis=1)][:, table.any(axis=0)]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return _degenerate(name, alpha, "table has a single row or column")
    total = int(table.sum())
    col_sum = table.sum(axis=0).tolist()
    stat = 0.0
    for row_sum, row in zip(table.sum(axis=1).tolist(), table):
        for col, obs in zip(col_sum, row.tolist()):
            exp = row_sum * col / total
            stat += (obs - exp) ** 2 / exp
    return _chi_square(name, stat, (table.shape[0] - 1) * (table.shape[1] - 1), alpha)
