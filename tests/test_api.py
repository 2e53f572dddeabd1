"""The package's public names and the README's library example stay in step."""

import ast
import importlib
import re
from pathlib import Path

import twoproc
from twoproc import solver

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_all_is_the_documented_list():
    paragraph = next(p for p in README.split("\n\n") if p.startswith("Public API:"))
    documented = re.findall(r"`(\w+)`", paragraph)
    assert sorted(twoproc.__all__) == sorted(documented)
    for name in twoproc.__all__:
        assert getattr(twoproc, name) is not None


def test_readme_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert all(float(v) > 0.0 for line in printed for v in line.split())


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a reference is a name, an attribute or an imported name in the package,
    # in perfbench or in the README example
    package = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "twoproc").glob("*.py"))}
    callers = [*package.values(), *(ast.parse(path.read_text()) for path in (ROOT / "perfbench").glob("*.py")),
               ast.parse(re.findall(r"```python\n(.*?)```", README, flags=re.S)[0])]
    used = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    unused = [f"{path.stem}.{node.name}" for path, tree in package.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and node.name not in used]
    assert unused == []


def test_every_perfbench_trace_target_exists():
    # perfbench/run.py only lists a missing target in its info line, so a rename
    # would silently zero that layer's per-layer metrics
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    assert targets
    for module, cls, attr, _, _ in targets:
        names = vars(importlib.import_module(f"twoproc.{module}"))
        if cls is not None:
            assert cls in names, (module, cls)
            names = vars(names[cls])
        assert attr in names, (module, cls, attr)


def test_readme_solver_policy_quotes_the_constants():
    # the Transient solver bullet states the propagator and band policy in numbers
    bullet = README[README.index("* **Transient solver**"):README.index("* **Monte Carlo oracle**")]
    text = " ".join(bullet.split())
    (periods,) = re.findall(r"fewer than n²/(\d+) periods", text)
    assert int(periods) == solver.BUILD_PERIODS_N2
    budgets = re.findall(r"exceed (\d+) MiB", text)
    assert len(budgets) == 2 and all(int(mib) << 20 == solver.PROPAGATOR_BUDGET for mib in budgets)
    band = re.findall(r"below n = (\d+) \(`solver\.BAND_MIN_N`\)|from (\d+) states on", text)
    assert sorted(int(a or b) for a, b in band) == [solver.BAND_MIN_N] * 2


def _opens_for_writing(call: ast.Call) -> bool:
    """A call of write_text or write_bytes, or an open() whose mode may write."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # builtin open(file, mode); Path.open(mode), io.open(file, mode) or os.open(file, flags)
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:2]
    modes += [k.value for k in call.keywords if k.arg in ("mode", "flags")]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wxa+")
               for m in modes)


def _writing_functions(tree: ast.AST, owner: str) -> list[str]:
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            found.append(owner)
        inner = f"{owner}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        found += _writing_functions(child, inner)
    return found


def test_one_function_opens_files_for_writing():
    # every output goes through cli._new_file, which unlinks the path and creates a new
    # file; a write elsewhere could bring back truncation in place
    probe = ast.parse("open(p)\nopen(p, 'w')\nopen(p, mode=m)\nPath(p).open()\nPath(p).open('a')\n"
                      "os.open(p, os.O_WRONLY)\np.write_text(s)\np.write_bytes(b)\np.read_text()\n")
    assert _writing_functions(probe, "probe") == ["probe"] * 6
    found = []
    for path in sorted((ROOT / "src" / "twoproc").glob("*.py")):
        found += _writing_functions(ast.parse(path.read_text()), path.stem)
    assert found == ["cli._new_file"]
