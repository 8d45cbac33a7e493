"""EXPERIMENTS.md is generated from ``figures.ROWS`` and gated here.

Regenerate with ``python -m repro evaluate > EXPERIMENTS.md``.  A
modelling change that moves any printed number fails the byte
comparison; one that moves a number out of its row's band fails the
verdict check as well, naming the row.  ``experiments`` is the
session fixture of ``tests/conftest.py``: the rows evaluated once.
"""

import pathlib

from repro.analysis import figures as F

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_committed_file_is_the_fresh_render(experiments):
    rendered = F.experiments_markdown(experiments).encode()
    assert rendered == EXPERIMENTS.read_bytes(), \
        "EXPERIMENTS.md is stale: python -m repro evaluate > EXPERIMENTS.md"


def test_every_row_holds_its_band(experiments):
    misses = [f"{r.row.artefact}: {r.verdict}" for r in experiments
              if not r.holds]
    assert not misses


def test_verdicts_are_computed_not_typed():
    def verdict(paper, measured, band):
        row = F.Row("s", "a", dict, paper, lambda _: measured, "{}", band)
        return row.evaluate({}).verdict

    assert verdict(1.38, 1.325, F.match(0.05)) == "match (-4%)"
    assert verdict(1.38, 1.2, F.match(0.05)) == "MISS (-13%)"
    assert verdict((1.0, 2.0), (1.01, 1.7), F.within(2)) == "shape (-15%)"
    assert verdict(True, False, F.match(0)) == "MISS"
    decreasing = F.shape("decreasing", lambda m: m[0] > m[1])
    assert verdict("yes", (1.0, 2.0), decreasing) == "MISS"

    # No level fails: a hybrid line above 1 and a ratio monotone in h
    # everywhere put both level rows at level 1.
    flat = [{"level": level, "quantitative_line": 2.0,
             "h2": 1.0, "h4": 1.0, "h6": 1.0} for level in range(1, 36)]
    crossover, hoisting = (
        next(row for row in F.ROWS if row.artefact.startswith(prefix))
        .evaluate(flat) for prefix in ("Fig. 2a: crossover", "Fig. 3a"))
    assert (crossover.measured, crossover.verdict) == (1, "MISS")
    assert (hoisting.measured, hoisting.verdict) == (1, "shape")
