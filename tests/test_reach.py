"""The function-hit collector (tools/reach.py) on a toy package.

The collector's functions run for real: a subprocess started under the
hook calls one of the package's two functions, and the other must be
the only one reported.
"""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reach  # dataclasses look their module up
_spec.loader.exec_module(reach)


def test_reports_exactly_the_function_no_process_ran(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "calls.py").write_text(
        "import functools\n"
        "\n"
        "\n"
        "@functools.lru_cache()\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return 2\n")
    found = reach.definitions(str(tmp_path), "toy")
    hits = reach.collect(
        [f"{sys.executable} -c 'import toy.calls; toy.calls.used()'"],
        str(tmp_path))
    missed = reach.unreached(found, hits)
    assert [(d.path, d.line, d.qualname) for d in missed] == \
        [("toy/calls.py", 9, "unused")]
    # The decorated function is keyed by its decorator's line.
    assert ("toy/calls.py", 4) in hits


def test_closures_go_with_their_parent_and_raise_only_ones_are_exempt(
        tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "nest.py").write_text(
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner\n"
        "\n"
        "\n"
        "def guard():\n"
        "    def reject(frame):\n"
        "        raise ValueError(frame)\n"
        "    return reject\n")
    found = reach.definitions(str(tmp_path), "toy")
    hits = {("toy/nest.py", 7)}  # guard ran; outer and both closures did not
    missed = reach.unreached(found, hits)
    assert [d.qualname for d in missed] == ["outer", "guard.reject"]
    assert [reach.exemption(d) for d in missed] == \
        [None, "crash closure rejecting malformed IR"]


def test_workflow_commands_keep_block_scalars_and_skip_installs(tmp_path):
    workflow = tmp_path / "ci.yml"
    workflow.write_text(
        "jobs:\n"
        "  tests:\n"
        "    steps:\n"
        "      - name: Install\n"
        "        run: python -m pip install pytest\n"
        "      - run: python -m pytest -q\n"
        "      - name: Soak\n"
        "        run: |\n"
        "          for seed in 1 2; do\n"
        "            echo $seed\n"
        "          done\n"
        "      - name: After\n"
        "        run: echo done\n")
    assert reach.workflow_commands(str(workflow)) == [
        "python -m pytest -q",
        "for seed in 1 2; do\n  echo $seed\ndone",
        "echo done",
    ]
