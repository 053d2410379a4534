"""Orbits of permutation groups on the values of a row of blocks, labelled
one block at a time.

A state here is one value of each of the blocks b_1 .. b_m, b_1 most
significant, with ``values[b]`` values at block b, and a group acts on each
block on its own: a generator is one permutation of each block's values,
and the generators come as one array per block, whose row g is generator
g's permutation.  Below each rank of a top level of its tree, ``catalog``
labels the later blocks this way, under the stabiliser of that rank's
normal form.

The values of b_1 are labelled by min-label hooking (``_orbit_labels``),
all in one array: each value points at a value of its orbit no greater
than itself, at first itself, and each generator hooks the larger pointer
of x and of its image onto the smaller, with pointers jumped towards their
roots, until none hooks.  The roots are then the orbits' least values;
forward generators suffice because each has finite order.  A breadth-first
tree of each orbit from its least value v gives every member w an element
t_w of the group with t_w(w) = v, and the states with v at b_1 form orbits of Stab(v), which
by Schreier's lemma is generated by the t_{gw} g t_w^-1 over the members w
and the generators g (Seress, Permutation Group Algorithms, 2003).  Carried
only as permutations of the values of b_2 .. b_m, with identities and
repeats dropped, they label those blocks the same way, down to b_m, the
last level, whose values are the states left; a group with no generator
left makes every state of the blocks from there on an orbit of its own, one
last level for them all.  The least state of an orbit is v followed by the
least of its Stab(v)-orbit, so an orbit's size is |orbit of v| times the
size of its Stab(v)-orbit, and the orbits come out in order of their least
state.  A level numbers its classes from 0, so as stabilisers repeat, each
set of blocks and generators is labelled once per ``memo`` and its level
shared.  Labels are held in the narrowest unsigned dtype that fits their
count.

``_class_of_values`` looks a state up: each level steps it along its tree,
from w to its parent by the generator stored with w, until its block holds
its orbit's least value, counts the classes of the orbits before that one
and passes it to that orbit's level below, and adds the last level's label.
"""

from __future__ import annotations

import os
from math import prod

from .quiver import _record

# catalog imports this module after the package's own other modules, so
# numpy loads after them: compiling their source with numpy already in
# memory raised a process's peak RSS by about 1 MB.  The
# package calls no BLAS routine, yet numpy's OpenBLAS starts a worker thread
# per core as it loads: on a two-core Xeon that cost about 0.06 s of a cold
# process, beside the main thread or after it as the other core was free or
# not, so one cold build took 0.10 s and the next 0.22 s.  Unless the caller
# chose a thread count, numpy loads with a pool of one, and the environment
# is restored for child processes.
_PIN_BLAS = not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _PIN_BLAS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _PIN_BLAS:
        del os.environ["OPENBLAS_NUM_THREADS"]

# values that the transversal and the Schreier step take at once, which
# bounds their index temporaries
_BATCH = 1 << 14


def _state_dtype(n: int):
    # a signed dtype that holds every value 0 .. n - 1 and the partial sums
    # of a move's block deltas, each of which is itself one of them
    return np.int32 if n <= 2**31 else np.int64


@_record
class _Level:
    """The labels of one block's values under one group, shared wherever
    that group recurs.  At the last level they number the orbits of the
    states, which are that block's values, or under a group that moves none
    of them the states of all the blocks from there on.  Above it they label
    the orbits of the block's values, and ``parent`` and ``gen`` hold a
    breadth-first tree of each orbit from its least value, the root its own
    parent: generator ``gen[w]`` sends value w to ``parent[w]``.  ``gens``
    holds the generators' permutations of the later blocks' values, one
    array per block with a row per generator; orbit by orbit, ``below``
    holds the level of the stabiliser of its least value and ``offsets``
    the number of classes in the orbits before it."""

    labels: np.ndarray
    parent: np.ndarray | None = None
    gen: np.ndarray | None = None
    gens: list | None = None
    below: tuple | None = None
    offsets: tuple | None = None


def _orbit_labels(
    n: int, perms: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbit id of every value 0 .. n - 1 under the group that the
    permutations generate, and the least value and size of every orbit, by
    min-label hooking and pointer jumping (Shiloach and Vishkin, J.
    Algorithms 3, 1982).

    Throughout, parent[x] <= x and parent[x] lies in the orbit of x: a
    permutation m hooks the larger of parent[s] and parent[m(s)] onto the
    smaller, over every s at once, and every pointer then jumps one step.
    After each round that hooked, every pointer jumps to its root, which
    keeps every equality parent[s] == parent[m(s)] already seen.  Once every
    permutation in a row finds them equal for all s, parent is constant on
    each orbit and names its least value.  The values are taken as one
    array, as a catalog's levels hold a few hundred of them."""
    parent = np.arange(n, dtype=_state_dtype(n))
    idle = 0  # permutations in a row that hooked nothing
    while idle < len(perms):
        hooked = False
        for perm in perms:
            if idle == len(perms):
                break
            idle += 1
            a, b = parent, parent[perm]
            if (a != b).any():
                np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
                parent = parent[parent]
                idle, hooked = 0, True
        if hooked:
            up = parent[parent]
            while not np.array_equal(up, parent):
                parent, up = up, up[up]
    reps = np.flatnonzero(parent == np.arange(n))
    # the roots' ids first: every other value reads the id of its root
    labels = np.zeros(n, dtype=np.min_scalar_type(len(reps) - 1))
    labels[reps] = np.arange(len(reps))
    labels = labels[parent]
    return labels, reps, np.bincount(labels, minlength=len(reps))


def _identity_rows(table: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Which rows of a table of block value permutations, side by side with
    block b in columns cuts[b] .. cuts[b + 1] - 1, are the identity."""
    ident = np.concatenate([np.arange(b - a) for a, b in zip(cuts, cuts[1:])])
    return (table == ident).all(axis=1)


def _transversal(
    n: int, reps: np.ndarray, gens: list[np.ndarray], moved: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """A breadth-first tree of every orbit of the first block's values from
    its least value, given in ``reps`` ascending, in which each value w is
    reached from its parent x by the generator g with g(w) = x, g one that
    ``moved`` marks: the orbit id, parent and index of g of every value, and
    for each later block an array whose row w is t_w there, the product of
    the steps from w to its root, which carries w to the root."""
    first, later = gens[0], gens[1:]
    movers = np.flatnonzero(moved)
    back = np.empty_like(first[movers])  # their inverses on the first block
    back[np.arange(len(movers))[:, None], first[movers]] = np.arange(n, dtype=first.dtype)
    labels = np.empty(n, dtype=np.min_scalar_type(len(reps) - 1))
    labels[reps] = np.arange(len(reps))
    parent = np.arange(n, dtype=np.min_scalar_type(n - 1))
    gen = np.zeros(n, dtype=np.min_scalar_type(max(len(first) - 1, 0)))
    ts = [np.empty((n, stack.shape[1]), dtype=stack.dtype) for stack in later]
    for t in ts:
        t[reps] = np.arange(t.shape[1])
    # -1 at the roots, the largest int64 at a value not yet reached, and at a
    # value reached in a round the position of the first of that round's
    # images to reach it
    unreached = np.iinfo(np.int64).max
    first_hit = np.full(n, unreached)
    first_hit[reps] = -1
    frontier = reps
    while len(frontier):
        # the frontier's images, mover by mover: a value not yet reached is
        # reached by its first image, and the next frontier is in that order
        img, width = back[:, frontier].ravel(), len(frontier)
        fresh = np.flatnonzero(first_hit[img] == unreached)
        hit = img[fresh]
        np.minimum.at(first_hit, hit, fresh)
        at = fresh[first_hit[hit] == fresh]
        mover, pos = np.divmod(at, width)
        x, frontier = frontier[pos], img[at]
        parent[frontier] = x
        labels[frontier] = labels[x]
        gen[frontier] = movers[mover]
        for t, stack in zip(ts, later):
            # t_w = t_x g on the block's values, in batches of about _BATCH
            step = max(1, _BATCH // t.shape[1])
            for lo in range(0, len(frontier), step):
                ws = frontier[lo : lo + step]
                t[ws] = t[parent[ws][:, None], stack[gen[ws]]]
    return labels, parent, gen, ts


def _stabilisers(
    labels: np.ndarray, count: int, gens: list[np.ndarray], ts: list[np.ndarray]
) -> list[list[np.ndarray]]:
    """Generators of the stabiliser of each orbit's least value, orbit by
    orbit, as permutations of the later blocks' values: by Schreier's lemma
    the t_{gw} g t_w^-1 over every member w of the orbit and generator g,
    with t_w from ``_transversal``; identities and repeats dropped, in order
    of first appearance.  Each comes as one array per later block, whose
    row g is generator g's permutation of that block's values.  Rows are
    taken in batches of about _BATCH values."""
    first, later = gens[0], gens[1:]
    n = len(labels)
    cuts = np.cumsum([0, *(t.shape[1] for t in ts)]).tolist()
    step = max(1, _BATCH // cuts[-1])
    batches = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    invs = [np.empty_like(t) for t in ts]
    for inv, t in zip(invs, ts):
        for b in batches:
            rows = np.arange(b.stop - b.start)[:, None]
            inv[b][rows, t[b]] = np.arange(t.shape[1], dtype=t.dtype)
    orbit = labels.tolist()
    seen, parts, at, kept = set(), [], [[] for _ in range(count)], 0
    for gi, perm in enumerate(first):
        for b in batches:
            # row w is t_{gw} g t_w^-1, on the later blocks side by side
            whole = np.concatenate(
                [t[perm[b][:, None], stack[gi][inv[b]]] for t, stack, inv in zip(ts, later, invs)],
                axis=1,
            )
            fresh = []
            keys = whole.view(np.dtype((np.void, whole[0].nbytes))).ravel().tolist()
            for w, key in enumerate(keys, b.start):
                if (orbit[w], key) not in seen:
                    seen.add((orbit[w], key))
                    at[orbit[w]].append(kept + len(fresh))
                    fresh.append(w - b.start)
            parts.append(whole[fresh])
            kept += len(fresh)
    table = np.concatenate(parts)
    moving = ~_identity_rows(table, cuts)
    out = []
    for picked in at:
        picked = np.array(picked, dtype=np.intp)
        found = table[picked[moving[picked]]]
        out.append([found[:, a:b].astype(s.dtype) for a, b, s in zip(cuts, cuts[1:], later)])
    return out


def _label_blocks(
    values: list[int], gens: list[np.ndarray], memo: dict
) -> tuple[_Level, np.ndarray, np.ndarray]:
    """Label the states made of one value of each block, first block most
    significant, with ``values[b]`` values at block b, under the group that
    the generators generate; ``gens`` holds one array per block, whose row g
    is generator g's permutation of that block's values.  With no block
    there is one state.

    The first block's values are labelled on their own.  A state whose
    first block lies in the orbit of least value v, at w, is carried by the
    tree's t_w to one with v there, and the states with v there form orbits
    of Stab(v), labelled at the later blocks under its Schreier generators.
    Returns the level and the least state and size of every orbit,
    ascending, the orbits numbered from 0 in that order.  Stabilisers often
    repeat, so the level of each set of blocks and generators is built once
    per ``memo`` and returned itself after that; a group with no generator,
    whose labelling hooks nothing, is not looked up."""
    moves = len(gens[0]) if gens else 0
    key = (len(values), *(g.tobytes() for g in gens))
    if moves and key in memo:
        return memo[key]
    if len(values) < 2 or not moves:
        # the last block, or all the blocks left under a group with no
        # generator, where each state is a class of its own
        labels, reps, sizes = _orbit_labels(prod(values), list(gens[0]) if moves else [])
        out = _Level(labels), reps, sizes
    else:
        n, first = values[0], gens[0]
        moved = ~_identity_rows(first, [0, n])
        labels, orbit_reps, orbit_sizes = _orbit_labels(n, list(first[moved]))
        _, parent, gen, ts = _transversal(n, orbit_reps, gens, moved)
        stabs = _stabilisers(labels, len(orbit_reps), gens, ts)
        children = [_label_blocks(values[1:], stab, memo) for stab in stabs]
        out = _tree_level(labels, parent, gen, gens[1:], orbit_reps, orbit_sizes, children, values)
    if moves:
        memo[key] = out
    return out


def _tree_level(
    labels: np.ndarray,
    parent: np.ndarray,
    gen: np.ndarray,
    later: list[np.ndarray],
    least: np.ndarray,
    sizes: np.ndarray,
    children: list[tuple[_Level, np.ndarray, np.ndarray]],
    values: list[int],
) -> tuple[_Level, np.ndarray, np.ndarray]:
    """The level of the first block's orbits, with the least value and size
    of each orbit and the level, least states and sizes of the classes of
    the stabiliser of its least value below; and the least state and size
    of every class, ascending."""
    below = prod(values[1:])
    offsets, reps, out_sizes, count = [], [], [], 0
    for v, size, (_, got, got_sizes) in zip(least.tolist(), sizes.tolist(), children):
        offsets.append(count)
        count += len(got)
        reps.append(got + v * below)
        out_sizes.append(got_sizes * size)
    below_levels = tuple(child for child, _, _ in children)
    level = _Level(labels, parent, gen, later, below_levels, tuple(offsets))
    return level, np.concatenate(reps), np.concatenate(out_sizes)


def _class_of_values(level: _Level, vals: list[int], values: list[int]) -> int:
    """The number, among the classes that ``level`` labels, of the class of
    the state whose block values are ``vals``; ``vals`` is stepped in place."""
    i = ci = 0
    while level.below is not None:
        w = vals[i]
        while (up := int(level.parent[w])) != w:
            g = level.gen[w]
            for b, stack in enumerate(level.gens, i + 1):
                vals[b] = int(stack[g, vals[b]])
            w = up
        o = level.labels[w]
        level, ci, i = level.below[o], ci + level.offsets[o], i + 1
    # the last level labels the states of the blocks from i on
    at = 0
    for x, n in zip(vals[i:], values[i:]):
        at = at * n + x
    return ci + int(level.labels[at])
