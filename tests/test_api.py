"""The public API takes no private parameters: a fact about a graph or a
decoration is read off that object, never handed in by the caller.  The
modules import one another only down their layers, and every method is
read somewhere."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import ghostgraph

# parameters that hand over objects rather than facts about them
ALLOWED = {
    ("ghostgraph.graphs", "least_encodings", "_orderings"),
    ("ghostgraph.ghosts", "alpha_beta", "_chain"),
}


def package_functions():
    """Every function and method defined in a ghostgraph module, with its
    module name and qualified name."""
    names = [m.name for m in pkgutil.iter_modules(ghostgraph.__path__, "ghostgraph.")]
    for module in map(importlib.import_module, ["ghostgraph", *names]):
        owners = [module]
        seen = set()
        while owners:
            for obj in vars(owners.pop()).values():
                obj = getattr(obj, "callback", obj)  # a click command's function
                obj = inspect.unwrap(getattr(obj, "__func__", getattr(obj, "fget", obj)))
                if getattr(obj, "__module__", None) != module.__name__ or id(obj) in seen:
                    continue
                seen.add(id(obj))
                if inspect.isclass(obj):
                    owners.append(obj)
                elif inspect.isfunction(obj):
                    yield module.__name__, obj.__qualname__, obj


def test_no_private_parameters():
    private = {
        (module, name, param)
        for module, name, fn in package_functions()
        for param in inspect.signature(fn).parameters
        if param.startswith("_")
    }
    assert private == ALLOWED
    # the walk reaches methods, class methods and click commands
    walked = {(module, name) for module, name, _ in package_functions()}
    assert {
        ("ghostgraph.graphs", "Multigraph.__init__"),
        ("ghostgraph.decorated", "DecoratedGraph.from_edge_values"),
        ("ghostgraph.cli", "analyze"),
    } <= walked


# graphs <- cochains <- decorated <- {ghosts, classify} <- props <- cli: the
# command line also runs the property checks
LAYERS = {
    "graphs": 0, "cochains": 1, "decorated": 2, "ghosts": 3, "classify": 3, "props": 4, "cli": 5,
}


def test_imports_follow_the_layers():
    names = {m.name for m in pkgutil.iter_modules(ghostgraph.__path__)}
    assert names == set(LAYERS)
    upward = set()
    for name, layer in LAYERS.items():
        source = Path(ghostgraph.__path__[0], f"{name}.py").read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward |= {(name, t) for t in targets if LAYERS[t] >= layer}
    assert upward == set()


# methods read by name rather than as an attribute: _cached_field builds
# StratumClass.decorated and .witness from them
READ_BY_NAME = {("StratumClass", "_decorated"), ("StratumClass", "_witness")}


def test_every_method_is_used():
    root = Path(__file__).resolve().parent.parent
    read = {
        node.attr
        for folder in ("src", "tests", "demos", "perfbench")
        for path in (root / folder).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    unused = set()
    for name in LAYERS:
        source = Path(ghostgraph.__path__[0], f"{name}.py").read_text()
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                unused |= {
                    (cls.name, f.name) for f in cls.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                    and f.name not in read
                }
    assert unused == READ_BY_NAME
