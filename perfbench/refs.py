"""Reference values computed apart from the program.

Every function here works on a dense rate matrix ``R`` (``R[s, s']`` is
the rate from ``s`` to ``s'``) with plain NumPy/SciPy linear algebra, so
the checked answers never depend on the program's own numerics:

* P1 (time-bounded until) by ``scipy.linalg.expm`` on the absorbing
  generator;
* P0 (unbounded until) by a dense solve on the embedded jump chain;
* S (steady state) from the generator's null space;
* X (next) straight from the rates.

:func:`tmr_rates` and :func:`cluster_rates` enumerate the two guarded-
command models of ``examples/models`` from their semantics, so answers
about uploaded model sources are checked against a state space the
program's compiler did not build.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np
import scipy.linalg

__all__ = [
    "p1",
    "p0",
    "steady",
    "next_prob",
    "tmr_rates",
    "cluster_rates",
    "TMR_DEFAULTS",
    "CLUSTER_DEFAULTS",
]


def _generator(rates: np.ndarray) -> np.ndarray:
    return rates - np.diag(rates.sum(axis=1))


def p1(rates: np.ndarray, phi: Set[int], psi: Set[int], t: float) -> np.ndarray:
    """``P(s, phi U[0,t] psi)`` for every state."""
    n = rates.shape[0]
    generator = _generator(rates)
    for state in range(n):
        if state not in phi or state in psi:
            generator[state, :] = 0.0
    indicator = np.zeros(n)
    indicator[sorted(psi)] = 1.0
    return scipy.linalg.expm(generator * t) @ indicator


def p0(rates: np.ndarray, phi: Set[int], psi: Set[int]) -> np.ndarray:
    """``P(s, phi U psi)``: the least solution over the embedded chain."""
    n = rates.shape[0]
    values = np.zeros(n)
    values[sorted(psi)] = 1.0
    # States that reach psi through phi-states (backward search).
    can_reach = set(psi)
    frontier = list(psi)
    while frontier:
        target = frontier.pop()
        for source in range(n):
            if source not in can_reach and source in phi and rates[source, target] > 0:
                can_reach.add(source)
                frontier.append(source)
    unknown = sorted(can_reach - set(psi))
    if not unknown:
        return values
    exits = rates.sum(axis=1)
    jump = rates[unknown, :] / exits[unknown, None]
    system = np.eye(len(unknown)) - jump[:, unknown]
    rhs = jump[:, sorted(psi)].sum(axis=1)
    values[unknown] = np.linalg.solve(system, rhs)
    return values


def steady(rates: np.ndarray, phi: Set[int]) -> np.ndarray:
    """Long-run probability of ``phi`` from every state (irreducible chain)."""
    basis = scipy.linalg.null_space(_generator(rates).T)
    if basis.shape[1] != 1:
        raise ValueError("steady-state reference needs an irreducible chain")
    pi = np.abs(basis[:, 0])
    pi /= pi.sum()
    return np.full(rates.shape[0], pi[sorted(phi)].sum())


def next_prob(rates: np.ndarray, psi: Set[int]) -> np.ndarray:
    """``P(s, X psi)``: the jump probability into ``psi``."""
    exits = rates.sum(axis=1)
    into = rates[:, sorted(psi)].sum(axis=1)
    return np.divide(into, exits, out=np.zeros_like(into), where=exits > 0)


# ----------------------------------------------------------------------
# the example models, enumerated from their guarded commands
# ----------------------------------------------------------------------
TMR_DEFAULTS = {
    "N": 3,
    "module_failure": 0.0004,
    "module_repair": 0.05,
    "voter_failure": 0.0001,
    "voter_repair": 0.06,
}
CLUSTER_DEFAULTS = {"F": 3, "B": 2, "fe_fail": 0.002, "be_fail": 0.001, "repair": 0.1}

Valuation = Tuple[Tuple[str, int], ...]


def _explore(
    initial: Dict[str, int], moves
) -> Tuple[List[Valuation], Dict[Tuple[Valuation, Valuation], float]]:
    start = tuple(sorted(initial.items()))
    seen = {start}
    order = [start]
    rates: Dict[Tuple[Valuation, Valuation], float] = {}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for rate, target in moves(dict(state)):
            key = tuple(sorted(target.items()))
            rates[(state, key)] = rates.get((state, key), 0.0) + rate
            if key not in seen:
                seen.add(key)
                order.append(key)
                frontier.append(key)
    return order, rates


def tmr_rates(constants: Dict[str, float]):
    """``(valuations, rates, labels)`` of ``tmr.mrm`` under ``constants``."""
    c = {**TMR_DEFAULTS, **constants}
    n = int(c["N"])

    def moves(s):
        m, v = s["modules"], s["voter"]
        if m > 0 and v == 1:
            yield c["module_failure"], {"modules": m - 1, "voter": v}
        if m < n and v == 1:
            yield c["module_repair"], {"modules": m + 1, "voter": v}
        if v == 1:
            yield c["voter_failure"], {"modules": m, "voter": 0}
        if v == 0:
            yield c["voter_repair"], {"modules": n, "voter": 1}

    order, rates = _explore({"modules": n, "voter": 1}, moves)
    labels = {
        "Sup": lambda s: 2 * s["modules"] > n and s["voter"] == 1,
        "failed": lambda s: 2 * s["modules"] <= n or s["voter"] == 0,
    }
    return order, rates, labels


def cluster_rates(constants: Dict[str, float]):
    """``(valuations, rates, labels)`` of ``cluster.mrm`` under ``constants``."""
    c = {**CLUSTER_DEFAULTS, **constants}
    f_max, b_max = int(c["F"]), int(c["B"])

    def moves(s):
        fe, be = s["fe"], s["be"]
        if fe > 0:
            yield fe * c["fe_fail"], {"fe": fe - 1, "be": be}
        if be > 0:
            yield be * c["be_fail"], {"fe": fe, "be": be - 1}
        if fe < f_max:
            yield c["repair"], {"fe": fe + 1, "be": be}
        if be < b_max and fe == f_max:
            yield c["repair"], {"fe": fe, "be": be + 1}

    order, rates = _explore({"fe": f_max, "be": b_max}, moves)
    labels = {
        "serving": lambda s: s["fe"] > 0 and s["be"] > 0,
        "down": lambda s: s["fe"] == 0 or s["be"] == 0,
    }
    return order, rates, labels


def in_program_order(
    enumerated, program_valuations: Iterable[Dict[str, int]]
) -> Tuple[np.ndarray, Dict[str, Set[int]]]:
    """The enumerated rate matrix and labels, indexed like the program.

    ``program_valuations`` lists the valuation of each program state
    index; the enumeration must reach exactly the same set of states.
    """
    order, rates, labels = enumerated
    index = {tuple(sorted(v.items())): i for i, v in enumerate(program_valuations)}
    if set(index) != set(order):
        raise ValueError("enumerated state space differs from the compiled one")
    matrix = np.zeros((len(index), len(index)))
    for (source, target), rate in rates.items():
        matrix[index[source], index[target]] += rate
    sets = {
        name: {index[v] for v in order if test(dict(v))} for name, test in labels.items()
    }
    return matrix, sets
