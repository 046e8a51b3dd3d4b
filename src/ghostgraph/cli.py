"""Command-line front end.

Exit codes: 0 success, 1 property or snapshot failure, 2 usage error,
3 parse error, 4 resource bound exceeded.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click

from . import props as props_mod
from .classify import StratumClass, classify_junior, vine_notation
from .decorated import (
    DecorationError,
    admissible_k,
    decorated_to_dict,
    gamma0,
    gamma_p,
    genus_labeling,
    multidegree,
    parse_decorated,
    prime_factors,
    root_count,
    total_genus,
)
from .ghosts import (
    INFINITE_AGE,
    alpha_beta,
    generated_by_qr,
    is_prime,
    stratum_age,
    vine_witness,
)
from .graphs import SizeBoundExceeded, is_tree_like, separating_edges

EXIT_FAILURE = 1
EXIT_PARSE = 3
EXIT_BOUND = 4


def _rational(x) -> Optional[str]:
    if x is None:
        return None
    if x == INFINITE_AGE:
        return "inf"
    return f"{Fraction(x).numerator}/{Fraction(x).denominator}"


@click.group()
def main():
    """Ghost automorphisms of decorated dual graphs."""


def build_report(d, k: Optional[int]) -> dict:
    ell = d.ell
    # gamma0 hands a faithful graph back as it is, so passing d0 on contracts once
    d0 = gamma0(d)
    g0 = d0.graph
    fac = prime_factors(ell)
    prime = is_prime(ell)
    per_prime = {}
    for p in fac:
        gp = gamma_p(d, p)
        alphas, betas = alpha_beta(d, p)
        per_prime[str(p)] = {
            "vertices": gp.n_vertices,
            "edges": gp.n_edges,
            "tree_like": is_tree_like(gp),
            "alpha": alphas,
            "beta": betas,
        }
    dm = multidegree(d)
    seps = sorted(separating_edges(g0))
    report = {
        "input": decorated_to_dict(d),
        "ell": ell,
        "gamma0": {
            "vertices": g0.n_vertices,
            "edges": [
                {"id": e, "tail": t, "head": h, "m": d0.m_value(e)}
                for e, (t, h) in sorted(g0.edges.items())
            ],
            "separating_edges": seps,
            "tree_like": is_tree_like(g0),
        },
        "per_prime": per_prime,
        "generated_by_quasireflections": generated_by_qr(d0 if prime else d),
        "codimension": g0.n_edges,
        "multidegree": {str(v): dm(v) for v in d.graph.vertices},
    }
    if prime:
        s_age = stratum_age(d0)
        # the orders of ghost_group(d0) and qr_subgroup(d0)
        report["ghost_group_order"] = ell ** (g0.n_vertices - 1)
        report["qr_order"] = ell ** len(seps)
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
        labels = genus_labeling(d, k)
        report["k"] = k % ell
        report["genus_labeling"] = labels
        if labels is not None:
            labelled = d.with_genus(labels)
            g_total = total_genus(labelled)
            report["total_genus"] = g_total
            report["root_count"] = root_count(g_total, ell)
    elif d.genus is not None:
        g_total = total_genus(d)
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
    d = c.decorated
    edges = []
    for e, (t, h) in sorted(d.graph.edges.items()):
        edges.append(f"{t}-{h}:{d.m_value(e)}")
    return {
        "vertices": d.graph.n_vertices,
        "edges": d.graph.n_edges,
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
    help="compare the TSV table against <dir>/ell<L>_k<K>.tsv",
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
        name = f"ell{ell}_k{'all' if k is None else k % ell}.tsv"
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
