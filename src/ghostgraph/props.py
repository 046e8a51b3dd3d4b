"""Randomized invariant suites, runnable from the CLI.

A property is one case function, declared by ``@_prop(scope, name)``: it
draws one case from the generator it is given and returns None when the
invariant holds, or a message when it fails.  ``run_scope`` runs each
property's cases from its own generator, seeded by (seed, scope, name), so
a fixed seed reproduces the identical case list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import classify as cl
from . import cochains as co
from . import decorated as dec
from . import ghosts as gh
from . import graphs as gr


def random_connected_multigraph(
    rng: random.Random,
    max_vertices: int = 5,
    max_extra_edges: int = 3,
    allow_loops: bool = True,
) -> gr.Multigraph:
    nv = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, nv):
        edges.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, max_extra_edges)):
        a = rng.randrange(nv)
        b = rng.randrange(nv)
        if a == b and not allow_loops:
            continue
        edges.append((a, b))
    if not edges and allow_loops:
        edges.append((0, 0))
    if not edges:
        return random_connected_multigraph(rng, max_vertices, max_extra_edges, allow_loops)
    return gr.Multigraph(range(nv), edges)


def random_zero_cochain(rng, g, ell) -> co.ZeroCochain:
    return co.ZeroCochain(g, ell, {v: rng.randrange(ell) for v in g.vertices})


def random_one_cochain(rng, g, ell) -> co.OneCochain:
    return co.OneCochain(g, ell, {e: rng.randrange(ell) for e in g.edge_ids})


def random_decorated(rng, g, ell, faithful=False) -> dec.DecoratedGraph:
    low = 1 if faithful else 0
    vals = {e: rng.randrange(low, ell) for e in g.edge_ids}
    return dec.DecoratedGraph(g, ell, co.OneCochain(g, ell, vals))


@dataclass
class PropertyResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


_REGISTRY: dict[str, list[tuple[str, Callable]]] = {}


def _prop(scope: str, name: str):
    def deco(fn):
        _REGISTRY.setdefault(scope, []).append((name, fn))
        return fn

    return deco


def _run(name: str, rng: random.Random, n: int, case: Callable) -> PropertyResult:
    """Run n cases, stopping at the fifth failure."""
    result = PropertyResult(name, n)
    for i in range(n):
        msg = case(rng)
        if msg is not None:
            result.failures.append(f"case {i}: {msg}")
            if len(result.failures) >= 5:
                break
    return result


def _reach(g: gr.Multigraph, edges, v: int) -> set[int]:
    """The vertices joined to v by the given edges, by a flood of its own."""
    adj = {w: set() for w in g.vertices}
    for e in edges:
        a, b = g.ends(e)
        adj[a].add(b)
        adj[b].add(a)
    seen, queue = {v}, [v]
    for x in queue:
        for y in adj[x] - seen:
            seen.add(y)
            queue.append(y)
    return seen


@_prop("graph", "separating edges are the edges whose removal disconnects")
def seps_disconnect(rng):
    g = random_connected_multigraph(rng, max_vertices=8, max_extra_edges=5)
    v = g.vertices[0]
    cuts = {
        e
        for e in g.edge_ids
        if not g.is_loop(e)
        and len(_reach(g, set(g.edge_ids) - {e}, v)) < g.n_vertices
    }
    seps = gr.separating_edges(g)
    return None if seps == cuts else f"separating edges {sorted(seps)}, removal gives {sorted(cuts)}"


@_prop("graph", "contraction keeps separating edges separating")
def sep_stable(rng):
    g = random_connected_multigraph(rng)
    if g.n_edges < 2:
        return None
    seps = gr.separating_edges(g)
    e = rng.choice(g.edge_ids)
    out = gr.contract_edges(g, {e}).graph
    new_seps = gr.separating_edges(out)
    for f in out.edge_ids:
        if f in seps and f not in new_seps:
            return f"separating edge {f} stopped separating after contracting {e}"
        if f not in seps and f in new_seps:
            return f"edge {f} became separating after contracting {e}"
    return None


@_prop("graph", "contraction names each merged class by its smallest vertex")
def contraction_names(rng):
    g = random_connected_multigraph(rng)
    f = {e for e in g.edge_ids if rng.random() < 0.5}
    vertex_map = gr.contract_edges(g, f).vertex_map
    for v in g.vertices:
        least = min(_reach(g, f, v))
        if vertex_map[v] != least:
            return f"contracting {sorted(f)} maps {v} to {vertex_map[v]}, not {least}"
    return None


@_prop("graph", "spanning tree contains every separating edge")
def tree_contains_seps(rng):
    g = random_connected_multigraph(rng)
    t = gr.spanning_tree(g)
    missing = gr.separating_edges(g) - t
    return f"bridges {sorted(missing)} outside tree" if missing else None


@_prop("graph", "canonical code is invariant under vertex relabeling")
def code_invariant(rng):
    g = random_connected_multigraph(rng)
    perm = dict(zip(g.vertices, rng.sample(g.vertices, g.n_vertices)))
    h = gr.Multigraph(
        g.vertices,
        {e: (perm[t], perm[hd]) for e, (t, hd) in g.edges.items()},
    )
    if gr.canonical_code(g) != gr.canonical_code(h):
        return f"codes differ under permutation {perm}"
    return None


@_prop("cochain", "adjointness of delta and boundary")
def adjoint(rng):
    ell = rng.choice([2, 3, 5, 7, 12])
    g = random_connected_multigraph(rng)
    a = random_zero_cochain(rng, g, ell)
    b = random_one_cochain(rng, g, ell)
    lhs = co.pairing(co.delta(a), b)
    rhs = co.pairing(a, co.boundary(b))
    return None if lhs == rhs else f"<delta a, b>={lhs} != <a, del b>={rhs}"


@_prop("cochain", "cuts lie in the image of delta")
def cuts_in_imdelta(rng):
    ell = rng.choice([2, 3, 5])
    g = random_connected_multigraph(rng)
    t = gr.spanning_tree(g)
    for b in co.cut_basis(g, t, ell):
        if not co.in_image_delta(b):
            return f"cut {b} not in im delta"
    return None


@_prop("cochain", "solve_delta inverts delta")
def solve_delta_inverts(rng):
    ell = rng.choice([2, 3, 5, 7])
    g = random_connected_multigraph(rng)
    a = random_zero_cochain(rng, g, ell)
    b = co.delta(a)
    if not co.in_image_delta(b):
        return "delta image rejected by circuit test"
    a2 = co.solve_delta(b)
    return None if co.delta(a2) == b else "solve_delta returned a non-potential"


@_prop("cochain", "solve_boundary solves when the total sum vanishes")
def solve_boundary_solves(rng):
    ell = rng.choice([2, 3, 5, 6])
    g = random_connected_multigraph(rng)
    vals = {v: rng.randrange(ell) for v in g.vertices}
    total = sum(vals.values()) % ell
    vals[g.vertices[0]] = (vals[g.vertices[0]] - total) % ell
    d0 = co.ZeroCochain(g, ell, vals)
    m = co.solve_boundary(d0)
    return None if co.boundary(m) == d0 else "boundary of solution differs"


@_prop("decorated", "gamma0 output is faithful and gamma_p matches for primes")
def gamma0_faithful(rng):
    ell = rng.choice([2, 3, 5, 7])
    g = random_connected_multigraph(rng)
    d = random_decorated(rng, g, ell)
    d0 = dec.gamma0(d)
    if not d0.is_faithful():
        return "gamma0 left a zero edge"
    if dec.gamma_p(d, ell) != d0.graph:
        return "gamma_p differs from gamma0 for a prime level"
    return None


@_prop("decorated", "divisibility contraction chain is monotone")
def chain_monotone(rng):
    ell = rng.choice([4, 6, 12])
    g = random_connected_multigraph(rng)
    d = random_decorated(rng, g, ell)
    for p, e_p in dec.prime_factors(ell).items():
        prev = None
        for k in range(e_p, 0, -1):
            cur = dec.gamma_nu(d, p, k)
            if prev is not None and cur.n_vertices > prev.n_vertices:
                return f"chain not monotone at p={p}, k={k}"
            prev = cur
    return None


@_prop("decorated", "stabilizer order matches gcd formula and zero test")
def stabilizer(rng):
    ell = rng.choice([2, 3, 4, 5, 6, 12])
    g = random_connected_multigraph(rng)
    d = random_decorated(rng, g, ell)
    for e in g.edge_ids:
        r = dec.stabilizer_order(d, e)
        if (r == 1) != (d.m_value(e) == 0):
            return f"stabilizer of edge {e} inconsistent with M"
        if ell % r != 0:
            return f"stabilizer order {r} does not divide {ell}"
    return None


@_prop("decorated", "genus labels satisfy the multidegree condition")
def genus_labels(rng):
    ell = rng.choice([2, 3, 5, 7])
    g = random_connected_multigraph(rng)
    d = random_decorated(rng, g, ell)
    k = rng.randrange(ell)
    labels = dec.genus_labeling(d, k)
    if labels is None:
        return None
    dm = dec.multidegree(d)
    for v in g.vertices:
        n_v = g.degree(v)
        if (dm(v) - k * (2 * labels[v] - 2 + n_v)) % ell != 0:
            return f"labels violate the congruence at vertex {v}"
        if labels[v] == 0 and n_v < 3:
            return f"unstable genus-0 vertex {v}"
    return None


@_prop("ghosts", "generators lift and the quasireflections sit inside")
def group_sanity(rng):
    ell = rng.choice([2, 3, 5])
    g = random_connected_multigraph(rng, max_vertices=4, max_extra_edges=2)
    d = random_decorated(rng, g, ell, faithful=True)
    group = gh.ghost_group(d)
    for gen in group.generators:
        if not gh.lifts(gen, group.decorated):
            return "generator fails the lift condition"
    qr = gh.qr_subgroup(d)
    for gen in qr.generators:
        if not gh.lifts(gen, group.decorated):
            return "quasireflection fails the lift condition"
    return None


@_prop("ghosts", "age of a plus age of -a counts the support")
def age_inverse(rng):
    ell = rng.choice([3, 5, 7])
    g = random_connected_multigraph(rng, allow_loops=False)
    vals = {e: rng.randrange(ell) for e in g.edge_ids}
    a = co.EvenFunction(g, ell, vals)
    total = gh.age(a) + gh.age(gh.inverse(a))
    if total != Fraction(len(a.support())):
        return f"age sum {total} != support {len(a.support())}"
    return None


@_prop("ghosts", "tree-like criterion matches alpha/beta equality")
def treelike_alphabeta(rng):
    ell = rng.choice([4, 6, 12])
    g = random_connected_multigraph(rng)
    d = random_decorated(rng, g, ell)
    by_structure = gh.generated_by_qr(d)
    by_counts = all(
        a == b
        for p in dec.prime_factors(ell)
        for a, b in zip(*gh.alpha_beta(d, p))
    )
    if by_structure != by_counts:
        return f"tree-like {by_structure} vs alpha=beta {by_counts}"
    return None


@_prop("classify", "scaling symmetry of the junior classification")
def classify_scale(rng):
    ell = rng.choice([3, 5])
    k = rng.randrange(1, ell)
    return None if cl.prop_k_symmetry(ell, k) else f"symmetry fails at ell={ell}, k={k}"


@_prop("classify", "scan_graph rows agree with minimal_age_report")
def scan_ages(rng):
    ell = rng.choice([3, 5, 7])
    g = rng.choice(gr.enumerate_base_graphs(min(ell - 1, 5)))
    scan = cl.scan_graph(g, ell)
    for i in rng.sample(range(len(scan.decorations)), min(10, len(scan.decorations))):
        d = dec.DecoratedGraph.from_edge_values(
            g, ell, dict(zip(g.edge_ids, scan.decorations[i].tolist()))
        )
        best = gh.minimal_age_report(d).age
        cand = scan.candidates[scan.witness_idx[i]]
        a = co.EvenFunction(g, ell, dict(zip(g.edge_ids, cand.tolist())))
        got = Fraction(int(scan.age_num[i]), ell) if scan.junior[i] else None
        if got != (best if best < 1 else None) or got and not (
            gh.lifts(a, d) and gh.age(a) == got
        ):
            return f"{d}: scan age {got} with witness {a}, minimal age {best}"
    return None


@_prop("classify", "decoration codes are invariant under relabeling and dart reversal")
def decoration_code_invariant(rng):
    d = random_decorated(rng, random_connected_multigraph(rng), rng.choice([2, 3, 5, 7]))
    g = d.graph
    perm = dict(zip(g.vertices, rng.sample(g.vertices, g.n_vertices)))
    edges, vals = {}, {}
    for e, (t, h) in g.edges.items():  # a reversed dart reads -M
        flip = rng.random() < 0.5
        edges[e] = (perm[h], perm[t]) if flip else (perm[t], perm[h])
        vals[e] = -d.m_value(e) % d.ell if flip else d.m_value(e)
    moved = dec.DecoratedGraph.from_edge_values(gr.Multigraph(g.vertices, edges), d.ell, vals)
    return None if cl.decoration_code(d) == cl.decoration_code(moved) else f"{d} and {moved}"


SCOPES = tuple(_REGISTRY)


def run_scope(scope: str, seed: int, cases: int = 50) -> list[PropertyResult]:
    # classification cases run a full enumeration each; keep them few
    n = min(cases, 3) if scope == "classify" else cases
    return [
        _run(name, random.Random(repr((seed, scope, name))), n, case)
        for name, case in _REGISTRY[scope]
    ]
