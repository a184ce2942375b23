"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """Numeric knobs for solvers, suites, and reports.

    The defaults give the lemma checks (which need 1e-6 slack) two to six
    orders of magnitude of margin from the solver side.
    """

    weiszfeld_tol: float = 1e-12
    delta: float = 0.01
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.weiszfeld_tol <= 0:
            raise ValueError("weiszfeld_tol must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")


DEFAULT_CONFIG = RunConfig()
