"""Regeneration of every table and figure in the paper's evaluation.

Each ``figureN`` / ``tableN`` function in :mod:`repro.analysis.figures`
returns the underlying data (rows/series); ``figures.ROWS`` compares
them with the paper, one row per artefact with its verdict band, and
``figures.experiments_markdown()`` renders EXPERIMENTS.md from those
rows (``python -m repro evaluate``), which tier 1 gates byte for byte.
"""

from repro.analysis import figures

__all__ = ["figures"]
