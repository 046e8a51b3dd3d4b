"""Command-line front end.

Exit codes: 0 success, 1 property or snapshot failure, 2 usage error,
3 parse error, 4 resource bound exceeded.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click

from . import props as props_mod
from .classify import StratumClass, classify_junior
from .decorated import (
    DecorationError,
    _multidegree_table,
    admissible_k,
    decorated_to_dict,
    gamma0,
    genus_labeling,
    is_prime,
    parse_decorated,
    prime_factors,
    root_count,
    total_genus,
)
from .ghosts import (
    INFINITE_AGE,
    _contraction_chain,
    alpha_beta,
    stratum_age,
    vine_witness,
)
from .graphs import SizeBoundExceeded, is_tree_like, separating_edges

EXIT_FAILURE = 1
EXIT_PARSE = 3
EXIT_BOUND = 4

# Largest integer analyze prints, in decimal digits.  int -> str is
# quadratic in CPython: 10^5 digits print in about 0.2 s, 10^6 in 18 s.
MAX_DIGITS = 100_000


def _rational(x) -> str:
    if x == INFINITE_AGE:
        return "inf"
    return f"{Fraction(x).numerator}/{Fraction(x).denominator}"


@click.group()
def main():
    """Ghost automorphisms of decorated dual graphs."""


def _check_digits(what: str, base: int, exp: int):
    """Raise SizeBoundExceeded when base ** exp has more than MAX_DIGITS
    decimal digits, counted as floor(exp log10 base) + 1 before the
    integer is built."""
    if base < 2 or exp < 1:
        return
    try:
        digits = math.floor(exp * math.log10(base)) + 1
        asked = f"{what} = {base}^{exp} has {digits} digits"
    except OverflowError:  # exp is past the float range
        digits, asked = math.inf, f"{what} = {base}^e has more than 10^308 digits"
    if digits > MAX_DIGITS:
        raise SizeBoundExceeded(
            f"digit bound MAX_DIGITS = {MAX_DIGITS} exceeded: {asked}",
            "MAX_DIGITS", MAX_DIGITS, digits,
        )


@contextlib.contextmanager
def _int_digits(limit: int):
    """Let int <-> str conversions reach ``limit`` digits; CPython caps them
    at 4300 by default, 0 meaning no cap."""
    if not hasattr(sys, "get_int_max_str_digits"):  # a CPython without the cap
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(old and max(old, limit))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def build_report(d, k: Optional[int]) -> dict:
    ell = d.ell
    # gamma0 is built once here; its graph keeps its bridges and d keeps
    # its multidegree table for every helper that asks again
    d0 = gamma0(d)
    g0 = d0.graph
    fac = prime_factors(ell)
    prime = is_prime(ell)
    # size the printed powers of ell before any search; qr_order is at most
    # ghost_group_order
    if prime:
        _check_digits("ghost_group_order", ell, g0.n_vertices - 1)
    if k is not None:
        labels = genus_labeling(d, k)
        g_total = None if labels is None else total_genus(d.with_genus(labels))
    else:
        g_total = None if d.genus is None else total_genus(d)
    if g_total is not None:
        _check_digits("root_count", ell, 2 * g_total)
    per_prime = {}
    for p in fac:
        # M = 0 is the only multiple of a prime ell below ell: Gamma_ell is gamma0
        chain = [g0] if prime else _contraction_chain(d0, p)
        gp = chain[0]
        alphas, betas = alpha_beta(d0, p, _chain=chain)
        per_prime[str(p)] = {
            "vertices": gp.n_vertices,
            "edges": gp.n_edges,
            "tree_like": is_tree_like(gp),
            "alpha": alphas,
            "beta": betas,
        }
    report = {
        "input": decorated_to_dict(d),
        "ell": ell,
        "gamma0": {
            "vertices": g0.n_vertices,
            "edges": [
                {"id": e, "tail": t, "head": h, "m": d0.m_value(e)}
                for e, (t, h) in sorted(g0.edges.items())
            ],
            "separating_edges": sorted(separating_edges(g0)),
            "tree_like": is_tree_like(g0),
        },
        "per_prime": per_prime,
        "generated_by_quasireflections": all(
            info["tree_like"] for info in per_prime.values()
        ),
        "codimension": g0.n_edges,
        "multidegree": {str(v): dm for v, (dm, _) in _multidegree_table(d).items()},
    }
    if prime:
        s_age = stratum_age(d0)
        # the orders of ghost_group(d0) and qr_subgroup(d0)
        report["ghost_group_order"] = ell ** (g0.n_vertices - 1)
        report["qr_order"] = ell ** len(separating_edges(g0))
        report["stratum_age"] = _rational(s_age)
        report["junior"] = s_age < 1
        report["admissible_k"] = sorted(admissible_k(d))
    else:
        report["ghost_group_order"] = None
        report["qr_order"] = None
        report["stratum_age"] = None
        report["junior"] = None
        report["admissible_k"] = None
    vw = vine_witness(d0)
    report["vine_witness"] = (
        None
        if vw is None
        else {"part1": sorted(vw[0]), "part2": sorted(vw[1]), "n": vw[2]}
    )
    if k is not None:
        report["k"] = k % ell
        report["genus_labeling"] = labels
    if g_total is not None:
        report["total_genus"] = g_total
        report["root_count"] = root_count(g_total, ell)
    return report


def _format_report(report: dict) -> str:
    lines = []
    lines.append(f"ell: {report['ell']}")
    g0 = report["gamma0"]
    lines.append(
        f"gamma0: {g0['vertices']} vertices, {len(g0['edges'])} edges, "
        f"tree-like: {g0['tree_like']}"
    )
    for item in g0["edges"]:
        lines.append(
            f"  edge {item['id']}: {item['tail']} -> {item['head']}, m = {item['m']}"
        )
    for p, info in report["per_prime"].items():
        lines.append(
            f"Gamma_{p}: {info['vertices']} vertices, {info['edges']} edges, "
            f"tree-like: {info['tree_like']}, alpha={info['alpha']}, beta={info['beta']}"
        )
    lines.append(
        f"generated by quasireflections: {report['generated_by_quasireflections']}"
    )
    if report["ghost_group_order"] is not None:
        lines.append(f"ghost group order: {report['ghost_group_order']}")
        lines.append(f"quasireflection subgroup order: {report['qr_order']}")
        lines.append(f"stratum age: {report['stratum_age']}")
        lines.append(f"junior: {report['junior']}")
        lines.append(f"admissible k: {report['admissible_k']}")
    lines.append(f"codimension: {report['codimension']}")
    lines.append(f"multidegree: {report['multidegree']}")
    if report["vine_witness"] is not None:
        vw = report["vine_witness"]
        lines.append(
            f"vine witness: parts {vw['part1']} | {vw['part2']}, n = {vw['n']}"
        )
    if "genus_labeling" in report:
        lines.append(f"genus labeling (k={report['k']}): {report['genus_labeling']}")
    if "total_genus" in report:
        lines.append(f"total genus: {report['total_genus']}")
        lines.append(f"root count: {report['root_count']}")
    return "\n".join(lines)


@main.command()
@click.argument("path", type=click.Path(path_type=Path))
@click.option("--k", type=int, default=None, help="check the multidegree condition for this k")
@click.option("--json", "as_json", is_flag=True, help="emit the report as JSON")
def analyze(path: Path, k: Optional[int], as_json: bool):
    """Analyze one decorated graph file."""
    try:
        text = path.read_text()
    except OSError as exc:
        click.echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    with _int_digits(MAX_DIGITS):
        try:
            d = parse_decorated(text)
            report = build_report(d, k)
        except DecorationError as exc:
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except SizeBoundExceeded as exc:
            click.echo(f"resource bound: {exc}", err=True)
            sys.exit(EXIT_BOUND)
        if as_json:
            click.echo(json.dumps(report, sort_keys=True, indent=2))
        else:
            click.echo(_format_report(report))


def class_row(c: StratumClass) -> dict:
    g = c.graph
    edges = [f"{t}-{h}:{m}" for (t, h), m in zip(map(g.ends, g.edge_ids), c.row)]
    return {
        "vertices": g.n_vertices,
        "edges": g.n_edges,
        "vine": "(" + ",".join(str(m) for m in c.vine) + ")" if c.vine else "-",
        "age": f"{c.age.numerator}/{c.age.denominator}",
        "codimension": c.codimension,
        "admissible_k": ",".join(str(kk) for kk in sorted(c.admissible_k)),
        "orbit_size": c.orbit_size,
        "maximal": c.maximal,
        "decoration": ";".join(edges),
    }


TSV_COLUMNS = [
    "vertices",
    "edges",
    "vine",
    "age",
    "codimension",
    "admissible_k",
    "orbit_size",
    "maximal",
    "decoration",
]


def rows_to_tsv(rows: list[dict]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in TSV_COLUMNS))
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--ell", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--max-edges", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv")
@click.option("--all", "show_all", is_flag=True, help="include non-maximal classes")
@click.option(
    "--snapshot",
    type=click.Path(path_type=Path),
    default=None,
    help="compare the TSV table against <dir>/ell<L>_k<K>.tsv (<dir>/ell<L>_k<K>_full.tsv with --all)",
)
def classify(ell, k, max_edges, fmt, show_all, snapshot):
    """Classify junior strata; closure-maximal classes by default."""
    try:
        classes = classify_junior(
            ell, k=k, max_edges=max_edges, only_maximal=not show_all
        )
    except DecorationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except SizeBoundExceeded as exc:
        click.echo(f"resource bound: {exc}", err=True)
        sys.exit(EXIT_BOUND)
    rows = [class_row(c) for c in classes]
    if fmt == "json":
        click.echo(json.dumps(rows, sort_keys=True, indent=2))
    else:
        click.echo(rows_to_tsv(rows), nl=False)
    if snapshot is not None:
        name = f"ell{ell}_k{'all' if k is None else k % ell}{'_full' if show_all else ''}.tsv"
        ref_path = Path(snapshot) / name
        try:
            expected = ref_path.read_text()
        except OSError as exc:
            click.echo(f"cannot read snapshot {ref_path}: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        if rows_to_tsv(rows) != expected:
            click.echo(f"snapshot drift against {ref_path}", err=True)
            sys.exit(EXIT_FAILURE)
        click.echo(f"snapshot match: {ref_path}", err=True)


@main.command()
@click.option("--seed", type=int, default=0)
@click.option(
    "--scope",
    type=click.Choice(list(props_mod.SCOPES) + ["all"]),
    default="all",
)
@click.option("--cases", type=int, default=50)
def props(seed, scope, cases):
    """Run the randomized invariant suites."""
    scopes = props_mod.SCOPES if scope == "all" else [scope]
    failed = False
    for sc in scopes:
        for result in props_mod.run_scope(sc, seed, cases):
            status = "ok" if result.ok else "FAIL"
            click.echo(f"[{sc}] {result.name}: {result.cases} cases {status}")
            for msg in result.failures:
                failed = True
                click.echo(f"    {msg}")
    if failed:
        sys.exit(EXIT_FAILURE)


if __name__ == "__main__":
    main()
