"""`src/` holds only what a process runs.

Every top-level function and class under ``src/repro``, and every
method of a top-level class, needs a reference outside its own body in
code a process runs: an ``ast.Name`` or ``ast.Attribute`` of its name
in a ``.py`` file under ``src/``, ``benchmarks/``, ``scripts/`` or
``examples/``, or the name as a whole word in a CI workflow. Import
aliases and strings (``__all__``, the lazy-export tables, ``getattr``
names) do not count, and dunder names are exempt.

A reference inside the body of a dead def does not count either, so a
def that only dead defs call is dead too: the scan repeats until the
dead set stops growing. ``ALLOWED`` lists the defs kept on purpose;
they are live roots, so what their bodies reference is live. An allowed
def that disappears or gains a caller fails the test too, so the list
cannot go stale.

The check is by name, so a def that shares its name with a live one
passes.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import AbstractSet, Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "scripts", "examples")
WORKFLOWS = ROOT / ".github" / "workflows"

ALLOWED: Dict[str, str] = {
    # Golden models that tests diff an inlined fast path against.
    "repro.gpu.cu.ComputeUnit.run_until":
        "one-CU reference driver that the per-epoch stepper is diffed against",
    "repro.core.objectives.ObjectiveContext.domain_power":
        "one-point reference that score_grid is diffed against",
    "repro.power.model.PowerModel.dynamic_power_per_cu":
        "reference for the products cu_power inlines",
    "repro.core.pc_table.PCTable.index_of":
        "reference for the index arithmetic update and lookup inline",
    "repro.core.sensitivity.LinearSensitivity.from_two_points":
        "builds the decision reference test's lines",
    # Entry points reached without a Python reference.
    "repro.gpu.isa.CompiledProgram.canonical_key":
        "getattr hook of runtime.cache._canonical",
    "repro.service.server._Connection.connection_made": "asyncio protocol callback",
    "repro.service.server._Connection.data_received": "asyncio protocol callback",
    "repro.service.server._Connection.connection_lost": "asyncio protocol callback",
    # Vocabulary of a documented surface.
    "repro.config.paper_config": "the paper's platform, pinned by test_api_surface",
    "repro.core.hardware.storage_overhead_bytes":
        "Table I storage cost, pinned by test_api_surface",
    "repro.core.pc_table.PCTableConfig.covered_instructions":
        "the paper's 512 covered instructions",
    "repro.gpu.isa.salu": "instruction factory beside valu, load and store",
    "repro.gpu.kernel.Kernel.total_waves": "kernel size beside its workgroup geometry",
    "repro.service.client.DecisionClient.ping":
        "client half of the ping message the server answers",
}


Defs = Dict[str, Tuple[str, pathlib.Path, int, int]]
Refs = Dict[str, List[Tuple[pathlib.Path, int]]]


def _py_files(*dirs: str) -> Iterator[pathlib.Path]:
    for d in dirs:
        yield from sorted((ROOT / d).rglob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defs() -> Defs:
    """Qualified name -> (bare name, file, first line, last line)."""
    found = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in _py_files("src/repro"):
        module = _module_name(path)
        for node in ast.parse(path.read_bytes(), str(path)).body:
            if not isinstance(node, kinds):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, kinds[:2])]
            for qualname, d in members:
                if not (d.name.startswith("__") and d.name.endswith("__")):
                    start = min([d.lineno] + [x.lineno for x in d.decorator_list])
                    found[f"{module}.{qualname}"] = (d.name, path, start, d.end_lineno)
    return found


def _references() -> Refs:
    """Bare name -> every place it is read as a Name or Attribute."""
    refs: Dict[str, List[Tuple[pathlib.Path, int]]] = {}
    for path in _py_files(*CALLER_DIRS):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def _dead(defs: Defs, refs: Refs, roots: AbstractSet[str] = frozenset()) -> Set[str]:
    """Defs whose name is read only inside their own body or the body of
    another dead def, to a fixpoint. ``roots`` are never dead."""
    dead: Set[str] = set()
    while True:
        bodies = [defs[q][1:] for q in dead]
        found = {
            qualname
            for qualname, (name, path, start, end) in defs.items()
            if qualname not in roots
            and all(
                (p == path and start <= line <= end)
                or any(p == bp and bs <= line <= be for bp, bs, be in bodies)
                for p, line in refs.get(name, ())
            )
        }
        if found == dead:
            return dead
        dead = found


def _scan() -> Tuple[Defs, Refs]:
    """Every def under ``src/repro``, and every reference to a def's name;
    a name in a CI workflow counts as referenced from outside them all."""
    defs = _defs()
    refs = _references()
    workflow_words: Set[str] = set()
    for path in sorted(WORKFLOWS.glob("*.yml")):
        workflow_words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    for name in workflow_words & {name for name, *_ in defs.values()}:
        refs.setdefault(name, []).append((WORKFLOWS, 0))
    return defs, refs


def test_dead_callers_do_not_keep_a_def_alive():
    here = pathlib.Path("m.py")
    defs = {"m.a": ("a", here, 1, 2), "m.b": ("b", here, 4, 6),
            "m.c": ("c", here, 8, 9), "m.keep": ("keep", here, 11, 12)}
    refs = {"a": [(here, 5)], "c": [(here, 12)]}  # b calls a; keep calls c
    assert _dead(defs, refs) == {"m.a", "m.b", "m.c", "m.keep"}
    assert _dead(defs, refs, roots={"m.keep"}) == {"m.a", "m.b"}


def test_every_def_under_src_has_a_caller_outside_tests():
    defs, refs = _scan()
    unexpected = sorted(_dead(defs, refs, roots=set(ALLOWED)))
    assert not unexpected, (
        "defined under src/ but only tests (or nothing) call them; delete "
        "them, move test-only code into tests/, or add a reason to ALLOWED: "
        + ", ".join(unexpected)
    )
    stale = sorted(set(ALLOWED) - _dead(defs, refs))
    assert not stale, (
        "ALLOWED names that no longer exist or now have a caller; drop "
        "them from ALLOWED: " + ", ".join(stale)
    )
