"""Which functions under ``src/repro`` no CI command runs.

Usage, from the repository root::

    python tools/reach.py

The script copies the checkout into a temporary directory and runs
there, one at a time, every ``run:`` step of ``.github/workflows/ci.yml``
and then every ``examples/*.py``.  Each Python process those commands
start, benchmark children and process-pool workers included, loads a
``sitecustomize`` module put first on ``PYTHONPATH`` that records every
code object it calls through a ``sys.setprofile`` hook, and writes them
out at exit.  The script then prints every ``def`` under ``src/repro``
that no process ran, matched by ``co_firstlineno`` (a decorated
function by its first decorator's line).  A closure of a function that
never ran is not printed: it goes with its parent.

Each unreached ``def`` is printed as ``exempt`` with its category when
it falls under :data:`EXEMPT` or :func:`exemption`'s rules, and as
``unreached`` otherwise.  The exit status is 1 when any is unreached.

What runs differs from CI in four ways:

* steps that install packages are skipped, and so is the ``perf``
  job: it needs a checkout of the base commit, and the benchmark
  self-test step runs its workloads at smoke size;
* pytest runs with ``--benchmark-disable`` (through ``PYTEST_ADDOPTS``),
  since pytest-benchmark pauses profilers inside ``benchmark.pedantic``;
* a ``multiprocessing`` child leaves through ``os._exit``, which skips
  ``atexit``, so the hook also writes its hits just before that call;
* exit codes are ignored: the hook slows programs down several times,
  so throughput floors may fail, and only which functions ran counts.

The whole list takes several times as long as tier-1 alone, so this is
a tool to run when deleting code, not a CI step.
"""

from __future__ import annotations

import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
WORKFLOW = os.path.join(".github", "workflows", "ci.yml")
#: A step whose command contains one of these is not run (see above).
SKIPPED = ("pip install", "git worktree", "tools/perf_ab.py")
#: Left out of the scratch copy: version control, caches, results.
IGNORED = (".git", "__pycache__", ".pytest_cache", ".repro_cache",
           ".benchmarks", ".hypothesis", "results")

#: ``path:qualname`` of each unreached ``def`` kept on purpose, with
#: its category.
EXEMPT: Dict[str, str] = {
    **dict.fromkeys((
        "src/repro/core/policy.py:Policy.clone",
        "src/repro/compiler/passes/base.py:ModulePass.run",
        "src/repro/compiler/dataflow.py:DataflowProblem.transfer_instruction",
        "src/repro/ipc/base.py:Channel.pending",
        "src/repro/compiler/types.py:Type.size",
        "src/repro/compiler/types.py:Type._key",
        "src/repro/sim/cpu.py:Runtime.call",
    ), "abstract or interface default"),
    **dict.fromkeys((
        "src/repro/compiler/ir.py:Setjmp.operands",
    ), "IR interface every instruction implements"),
}
#: Methods kept for people, not for programs.
DISPLAY_METHODS = ("__repr__", "__str__", "__iter__")

HOOK = '''\
import atexit
import os
import sys
import threading

_ROOT = {root!r}
_HITS = {hits!r}
_seen = set()
_add = _seen.add


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    lines = set()
    for code in list(_seen):
        if code.co_filename.startswith("<"):
            continue  # frozen modules and strings given to exec
        path = os.path.abspath(code.co_filename)
        if path.startswith(_ROOT):
            lines.add(f"{{path}}\\t{{code.co_firstlineno}}\\n")
    with open(os.path.join(_HITS, f"{{os.getpid()}}.txt"), "a") as out:
        out.writelines(sorted(lines))


_exit = os._exit


def _dump_then_exit(status):
    _dump()
    _exit(status)


os._exit = _dump_then_exit
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


@dataclass(frozen=True)
class Definition:
    """One ``def``: where its code object starts and what it is."""

    path: str  # relative to the root, with forward slashes
    line: int  # co_firstlineno: the first decorator's line, if any
    qualname: str
    lines: int  # physical lines, decorators included
    closure: bool  # defined inside another function
    parent_line: Optional[int]  # the enclosing function's line
    only_raises: bool  # its whole body is one ``raise``

    @property
    def name(self) -> str:
        return f"{self.path}:{self.qualname}"


def definitions(root: str, package: str) -> Dict[Tuple[str, int],
                                                   Definition]:
    """Every ``def`` in the ``.py`` files under ``root/package``, keyed
    by ``(path relative to root, first line)``."""
    found: Dict[Tuple[str, int], Definition] = {}
    pattern = os.path.join(root, package, "**", "*.py")
    for filename in sorted(glob.glob(pattern, recursive=True)):
        path = os.path.relpath(filename, root).replace(os.sep, "/")
        with open(filename, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename)
        _walk(tree, path, [], None, found)
    return found


def _walk(node: ast.AST, path: str, scope: List[str],
          function_line: Optional[int],
          found: Dict[Tuple[str, int], Definition]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([child.lineno]
                       + [d.lineno for d in child.decorator_list])
            body = [stmt for stmt in child.body
                    if not (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant))]
            found[(path, line)] = Definition(
                path=path, line=line,
                qualname=".".join(scope + [child.name]),
                lines=child.end_lineno - line + 1,
                closure=function_line is not None,
                parent_line=function_line,
                only_raises=len(body) == 1 and isinstance(body[0], ast.Raise))
            _walk(child, path, scope + [child.name], line, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, path, scope + [child.name], function_line, found)
        else:
            _walk(child, path, scope, function_line, found)


def workflow_commands(workflow: str) -> List[str]:
    """The ``run:`` commands of a GitHub Actions workflow, in order,
    without those :data:`SKIPPED` names."""
    with open(workflow, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    commands: List[str] = []
    index = 0
    while index < len(lines):
        text = lines[index]
        key = text.lstrip().removeprefix("- ")
        index += 1
        if not key.startswith("run:"):
            continue
        value = key[len("run:"):].strip()
        if value == "|":
            indent = len(text) - len(text.lstrip())
            block = []
            while index < len(lines) and (
                    not lines[index].strip()
                    or len(lines[index]) - len(lines[index].lstrip())
                    > indent):
                block.append(lines[index])
                index += 1
            value = textwrap.dedent("\n".join(block)).strip()
        if not any(marker in value for marker in SKIPPED):
            commands.append(value)
    return commands


def collect(commands: Iterable[str], root: str) -> Set[Tuple[str, int]]:
    """Run each shell command in ``root`` under the hook; return the
    ``(path relative to root, first line)`` of every code object under
    ``root`` that some Python process called."""
    root = os.path.abspath(root)
    commands = list(commands)
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = os.path.join(scratch, "hook")
        hits_dir = os.path.join(scratch, "hits")
        os.mkdir(hook_dir)
        os.mkdir(hits_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w",
                  encoding="utf-8") as handle:
            handle.write(HOOK.format(root=os.path.join(root, ""),
                                     hits=hits_dir))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir] + [p for p in [env.get("PYTHONPATH")] if p])
        env["PYTEST_ADDOPTS"] = "--benchmark-disable"
        for number, command in enumerate(commands, 1):
            # A command that sets PYTHONPATH itself keeps the hook first.
            command = command.replace("PYTHONPATH=",
                                      f"PYTHONPATH={hook_dir}{os.pathsep}")
            started = time.monotonic()
            done = subprocess.run(["bash", "-c", command], cwd=root, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            print(f"[{number}/{len(commands)}] "
                  f"{time.monotonic() - started:6.1f}s  "
                  f"exit {done.returncode:<3}  "
                  f"{command.splitlines()[0][:60]}", file=sys.stderr)
        return read_hits(hits_dir, root)


def read_hits(hits_dir: str, root: str) -> Set[Tuple[str, int]]:
    hits: Set[Tuple[str, int]] = set()
    for filename in glob.glob(os.path.join(hits_dir, "*.txt")):
        with open(filename, encoding="utf-8") as handle:
            for line in handle:
                path, first = line.rstrip("\n").split("\t")
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                hits.add((relative, int(first)))
    return hits


def unreached(found: Dict[Tuple[str, int], Definition],
              hits: Set[Tuple[str, int]]) -> List[Definition]:
    """The definitions no process ran, minus closures of functions that
    never ran either, in file order."""
    missed = {key for key in found if key not in hits}
    return [found[key] for key in sorted(missed)
            if not (found[key].closure
                    and (key[0], found[key].parent_line) in missed)]


def exemption(definition: Definition) -> Optional[str]:
    """Why an unreached ``def`` may stay unreached, or None."""
    if definition.name in EXEMPT:
        return EXEMPT[definition.name]
    if definition.qualname.rsplit(".", 1)[-1] in DISPLAY_METHODS:
        return "display method"
    if definition.closure and definition.only_raises:
        return "crash closure rejecting malformed IR"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, root,
                        ignore=shutil.ignore_patterns(*IGNORED))
        examples = sorted(glob.glob(os.path.join(root, "examples", "*.py")))
        commands = workflow_commands(os.path.join(root, WORKFLOW)) + [
            f"PYTHONPATH=src python {os.path.relpath(path, root)}"
            for path in examples]
        hits = collect(commands, root)
        found = definitions(root, PACKAGE)
    missed = unreached(found, hits)
    failed = 0
    for definition in missed:
        reason = exemption(definition)
        failed += reason is None
        kind = "closure" if definition.closure else "function"
        print(f"{'exempt' if reason else 'unreached':9}  "
              f"{definition.path}:{definition.line}  {kind:8}  "
              f"{definition.qualname}"
              + (f"  ({reason})" if reason else ""))
    functions = [d for d in missed if not d.closure]
    print(f"{len(found)} defs; {len(functions)} functions "
          f"({sum(d.lines for d in functions)} lines) and "
          f"{len(missed) - len(functions)} closures never ran; "
          f"{failed} not exempt")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
