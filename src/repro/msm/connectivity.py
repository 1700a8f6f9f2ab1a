"""Ergodic trimming: restrict counts to the largest connected set.

The paper: "Analysis was performed on the largest connected subset of
the Markovian transition matrix."  States only reached, or only left,
cannot support equilibrium estimation; the strongly connected component
with the most counts is the standard fix.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.util.errors import EstimationError


def _components(nonzero: np.ndarray) -> Iterator[List[int]]:
    """Strongly connected components of a boolean adjacency pattern.

    Iterative Tarjan, so a long chain of states cannot exhaust the
    recursion limit.  Sources and successors are visited in ascending
    order, which yields the components in the order networkx's
    ``strongly_connected_components`` does (and, on a symmetric
    pattern, networkx's ``connected_components`` order: by smallest
    member).
    """
    n = nonzero.shape[0]
    successors = [np.flatnonzero(row).tolist() for row in nonzero]
    # preorder number: 0 = unvisited, n + 1 = already in a component
    # (so it never lowers a lowlink)
    index = [0] * n
    low = [0] * n
    stack: List[int] = []
    counter = 0
    for source in range(n):
        if index[source]:
            continue
        counter += 1
        index[source] = low[source] = counter
        stack.append(source)
        work = [(source, iter(successors[source]))]
        while work:
            v, pending = work[-1]
            for w in pending:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    component = stack[at:]
                    del stack[at:]
                    for w in component:
                        index[w] = n + 1
                    yield component


def largest_connected_set(counts: np.ndarray, directed: bool = True) -> np.ndarray:
    """Indices of the largest (strongly) connected component.

    Components are compared by total outgoing counts, breaking ties by
    size, so the dynamically dominant component wins even when a swarm
    of singleton states exists.  An exact tie goes to the component
    found first, as networkx would report it.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise EstimationError(f"count matrix must be square, got {counts.shape}")
    if counts.shape[0] == 0:
        raise EstimationError("count matrix is empty: no connected set")
    nonzero = counts != 0
    if not directed:
        nonzero = nonzero | nonzero.T
    components = (np.sort(c) for c in _components(nonzero))
    return max(components, key=lambda idx: (float(counts[idx].sum()), len(idx)))


def trim_counts(counts: np.ndarray, directed: bool = True):
    """Restrict a count matrix to its largest connected set.

    Returns ``(trimmed_counts, kept_indices)`` where ``kept_indices``
    maps trimmed state numbers back to the original numbering.
    """
    kept = largest_connected_set(counts, directed=directed)
    return np.asarray(counts)[np.ix_(kept, kept)], kept
