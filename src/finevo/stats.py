"""Check records and chi-square machinery for the verification harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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


@dataclass
class VerificationReport:
    """Aggregate of checks from one verification run, with its seed/config."""

    checks: list = field(default_factory=list)
    replications: int = 0
    seed: int = None
    alpha: float = None
    config: dict = field(default_factory=dict)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exact_failures(self) -> list:
        return [c for c in self.checks if c.kind == "exact" and not c.passed]

    @property
    def statistical_failures(self) -> list:
        return [c for c in self.checks if c.kind == "statistical" and not c.passed]

    def to_json(self) -> dict:
        return {
            "replications": self.replications,
            "seed": self.seed,
            "alpha": self.alpha,
            "config": dict(self.config),
            "passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _expected_counts(expected_probs: dict, total: int) -> dict:
    out = {}
    for cat, prob in expected_probs.items():
        p = float(prob) if isinstance(prob, Fraction) else prob
        if p < 0:
            raise InputError(f"negative expected probability at {cat!r}")
        if p > 0:
            out[cat] = p * total
    return out


def chi_square_gof(
    counts: dict, expected_probs: dict, total: int, alpha: float, name: str
) -> Check:
    """Pearson goodness-of-fit of observed counts against exact probabilities.

    Counts observed outside the expected support make the check fail outright
    (an impossible value occurred). A single-category expectation auto-passes
    as degenerate.
    """
    expected = _expected_counts(expected_probs, total)
    outside = {cat: c for cat, c in counts.items() if c > 0 and cat not in expected}
    if outside:
        return Check(
            name=name,
            kind="statistical",
            passed=False,
            statistic=float("inf"),
            df=max(len(expected) - 1, 0),
            p_value=0.0,
            alpha=alpha,
            note=f"observed {sum(outside.values())} samples outside the support",
        )
    if len(expected) < 2:
        return Check(
            name=name,
            kind="statistical",
            passed=True,
            statistic=0.0,
            df=0,
            p_value=1.0,
            alpha=alpha,
            note="degenerate: single category, auto-pass",
        )
    stat = 0.0
    for cat, exp in expected.items():
        obs = counts.get(cat, 0)
        stat += (obs - exp) ** 2 / exp
    df = len(expected) - 1
    p_value = float(chdtrc(df, stat))
    return Check(
        name=name,
        kind="statistical",
        passed=p_value >= alpha,
        statistic=stat,
        df=df,
        p_value=p_value,
        alpha=alpha,
    )


def chi_square_independence(pair_counts: dict, alpha: float, name: str) -> Check:
    """Pearson contingency-table test of independence for paired samples.

    ``pair_counts`` maps (row_category, col_category) to a count. Tables with
    fewer than two rows or columns auto-pass as degenerate.
    """
    rows = sorted({a for a, _ in pair_counts})
    cols = sorted({b for _, b in pair_counts})
    if len(rows) < 2 or len(cols) < 2:
        return Check(
            name=name,
            kind="statistical",
            passed=True,
            statistic=0.0,
            df=0,
            p_value=1.0,
            alpha=alpha,
            note="degenerate: table has a single row or column, auto-pass",
        )
    total = sum(pair_counts.values())
    row_sum = {a: 0 for a in rows}
    col_sum = {b: 0 for b in cols}
    for (a, b), c in pair_counts.items():
        row_sum[a] += c
        col_sum[b] += c
    stat = 0.0
    for a in rows:
        for b in cols:
            exp = row_sum[a] * col_sum[b] / total
            obs = pair_counts.get((a, b), 0)
            stat += (obs - exp) ** 2 / exp
    df = (len(rows) - 1) * (len(cols) - 1)
    p_value = float(chdtrc(df, stat))
    return Check(
        name=name,
        kind="statistical",
        passed=p_value >= alpha,
        statistic=stat,
        df=df,
        p_value=p_value,
        alpha=alpha,
    )
