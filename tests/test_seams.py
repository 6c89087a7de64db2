# The benchmark's tracer (perfbench/tracer.py) times and counts the package at the seams its SEAMS table names.  A
# refactor that renames, moves or re-signs one of them leaves that layer's metric absent from every traced run, so
# each seam is checked here as the tracer resolves it.  tracer.py imports only the standard library.

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def resolve(module: str, path: str):
    """The seam's callable as ``tracer.Patcher.install`` finds it: attributes by getattr down to the owner, then
    the owner's own ``vars`` (an inherited attribute is not the owner's); None when absent."""
    *owner_path, attr = path.split(".")
    owner = importlib.import_module(module)
    for part in owner_path:
        owner = getattr(owner, part, None)
    return vars(owner).get(attr) if owner is not None else None


def counter_reads() -> list:
    """Per SEAMS row, the call arguments its counter function reads by name (``a["nodes"]``), from tracer.py's
    source."""
    tree = ast.parse(TRACER_PATH.read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SEAMS")
    reads = []
    for row in table.elts:
        compute = row.elts[4]
        if isinstance(compute, ast.Name):
            compute = functions[compute.id]
        if not isinstance(compute, (ast.Lambda, ast.FunctionDef)):  # None: a call count
            reads.append(set())
            continue
        arguments = compute.args.args[0].arg
        reads.append({node.slice.value for node in ast.walk(compute)
                      if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                      and node.value.id == arguments and isinstance(node.slice, ast.Constant)})
    return reads


def test_every_perfbench_seam_resolves():
    assert [f"{module}.{path}" for module, path, *_ in tracer.SEAMS if resolve(module, path) is None] == []


def test_every_argument_a_counter_reads_is_a_parameter_of_its_seam():
    reads = counter_reads()
    assert len(reads) == len(tracer.SEAMS)
    assert set().union(*reads) == {"nodes", "period", "config", "geom", "n_theta", "b_mat", "points", "duration",
                                   "dt", "contour", "path"}
    missing = {f"{module}.{path}": sorted(names - set(inspect.signature(resolve(module, path)).parameters))
               for (module, path, *_), names in zip(tracer.SEAMS, reads)}
    assert {seam: names for seam, names in missing.items() if names} == {}
