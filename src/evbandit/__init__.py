"""Scheduling engine and Monte Carlo testbed for large-scale EV charging.

A station with N chargers can energize at most M per slot; EVs carry deadlines
and integer charging demands, electricity cost follows a finite Markov chain.
The package computes Whittle indexes for this restless-bandit formulation,
runs index/EDF/LLF/valley-filling policies through a seeded simulator, and
bounds all of them by the budget-relaxed single-charger MDP.

scipy's LP solver, the one part of scipy the package uses (the valley
planner's), is imported inside the functions that call it, never at module
level, so that only a command on that path pays for its import.
"""

__version__ = "0.1.0"  # before the imports: whittle keys its table files with it

from .model import (
    ArrivalModel,
    CostChain,
    Instance,
    PenaltyFunction,
    charger_law,
    serve,
)
from .whittle import (
    IndexTable,
    compute_index_table,
    index_by_bisection,
    subsidy_value_iteration,
)
