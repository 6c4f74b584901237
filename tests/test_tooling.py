"""Repository-level checks: the demos run, index layouts are built only in
moments.py, without a sort, Kronecker product or F order, and cached
read-only, text is parsed only in data.py, modules share no private names,
the public surface is the pinned list below, every function the benchmark
traces and every name the docs give exists, the README's quick start reports
the search diagnostics its comments state, no module sets a bit generator's
state, the Gram-route rule is spelled only in measures.py, and the
benchmark's small job scripts pass its oracle."""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvskew
from mvskew import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mvskew.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # demos write files next to themselves, so each runs from a copy
    shutil.copytree(ROOT / "data", tmp_path / "data")
    (tmp_path / "demos").mkdir()
    script = shutil.copy(demo, tmp_path / "demos")
    result = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_start_states_its_search_diagnostics(monkeypatch):
    # the README's first python block runs from the repository root, and the
    # restarts, converged and winners its comments state are max_skew's
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)[1]
    stated = [re.search(pattern, block, re.M) for pattern in (
        r"^basis\.restarts, basis\.converged +# (\(.*?\)), (\(.*?\)):",
        r"^basis\.winners +# (\(.*?\)):")]
    assert all(stated)
    scope = {}
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), scope)
    basis = scope["basis"]
    assert (basis.restarts, basis.converged, basis.winners) == tuple(
        ast.literal_eval(text) for match in stated for text in match.groups())


def test_each_test_has_its_own_cache_home(tmp_path, cache_home, monkeypatch):
    # conftest points XDG_CACHE_HOME into this test's tmp_path, and the
    # subprocesses a test starts inherit it
    assert os.environ["XDG_CACHE_HOME"] == str(cache_home)
    assert cache_home.parent == tmp_path
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.environ['XDG_CACHE_HOME'])"],
        capture_output=True, text=True, check=True)
    assert child.stdout.strip() == str(cache_home)
    monkeypatch.setattr(mvskew.data, "CACHE_BYTES", 0)
    mvskew.load_csv(ROOT / "data" / "iris.csv")
    assert len(list((cache_home / "mvskew").glob("*.npy"))) == 1


def test_import_builds_no_format_table():
    # format_slices builds its digit table on first use, so import stays cheap
    code = "import mvskew; print(mvskew.data._digit_table.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


@pytest.mark.parametrize("d", range(1, 7))
def test_cached_layouts_are_read_only(d):
    # every caller gets the same cached arrays, so none may write to them
    arrays = (*mvskew.moments.pair_layout(d), mvskew.moments.triple_layout(d),
              *mvskew.data._digit_table())
    assert len(arrays) == 6
    assert [array.flags.writeable for array in arrays] == [False] * 6


def test_index_layouts_are_built_only_in_moments():
    # pair and triple orders come from pair_layout and triple_layout alone
    builders = {"triu_indices", "indices"}
    homes = {path.name: {node.attr for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute) and node.attr in builders
                         and getattr(node.value, "id", None) == "np"}
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in homes.items() if found} == {"moments.py": builders}


def test_no_kronecker_or_fortran_layout():
    # a d^2 x d matrix is laid out only through pair_layout and triple_layout:
    # src/ calls no np.kron and reshapes nothing in F order
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "kron"
             and getattr(node.value, "id", None) == "np"
             or isinstance(node, ast.keyword) and node.arg == "order"
             and getattr(node.value, "value", None) == "F"]
    assert found == []


def test_moments_builds_layouts_without_sorting():
    # the layouts are built in closed form, at O(d^3) per width: moments.py
    # calls no sort, unique or multi-index conversion
    sorters = {"sort", "unique", "ravel_multi_index", "unravel_index"}
    tree = ast.parse((SRC / "moments.py").read_text())
    assert {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "np"} & sorters == set()


def test_pair_order_is_read_only_in_moments():
    # pair_layout's order is moments' own: no other module imports, calls or
    # names pair_layout or pair_products
    pair_names = {"pair_layout", "pair_products"}
    users = set()
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        if pair_names & {getattr(node, key, None) for node in nodes for key in ("id", "attr", "name")}:
            users.add(path.name)
    assert users == {"moments.py"}


def _row_reductions(tree: ast.AST) -> list[int]:
    """Lines of every ``.mean(`` call and of every ``.sum(`` over axis 0 or -2."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "mean" or node.func.attr == "sum" and any(
                keyword.arg == "axis" and ast.unparse(keyword.value) in ("0", "-2")
                for keyword in node.keywords))]


def test_rows_are_centered_and_summed_only_in_data():
    # data.centered and data.column_sums are the one row reduction: a mean
    # or a column sum over rows anywhere else would center by its own rule
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if path.name != "data.py"
                 and (lines := _row_reductions(ast.parse(path.read_text())))}
    assert offenders == {}
    assert _row_reductions(ast.parse("x.mean(axis=0)\nx.sum(axis=-2)\nx.sum(axis=1)")) == [1, 2]


def _gram_rule(tree: ast.AST) -> list[int]:
    """Lines that name ``GRAM_RATIO`` or order a value against an expression
    with a square, ``d * d`` or ``d ** 2``, in it, as the Gram-route rule does."""
    def square(node):
        return isinstance(node, ast.BinOp) and (
            isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right)
            or isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "2")
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                   and "GRAM_RATIO" in (getattr(node, key, None) for key in ("id", "attr", "name"))
                   or isinstance(node, ast.Compare)
                   and all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
                   and any(square(part) for side in (node.left, *node.comparators)
                           for part in ast.walk(side))})


def test_the_gram_route_rule_lives_in_measures():
    # measures.gram_route is the one spelling of 4n <= d^2, and the only
    # reader of GRAM_RATIO: the bootstrap sizes its blocks by the route
    # mardia_values takes, so a second copy of the rule could drift from it
    tree = ast.parse((SRC / "measures.py").read_text())
    definition = next(node.lineno for node in tree.body if isinstance(node, ast.Assign)
                      and ast.unparse(node.targets[0]) == "GRAM_RATIO")
    source, start = inspect.getsourcelines(mvskew.measures.gram_route)
    assert source[-1].strip() == "return GRAM_RATIO * n <= d * d"
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _gram_rule(ast.parse(path.read_text())))}
    assert found == {"measures.py": [definition, start + len(source) - 1]}
    sample = ("from .measures import GRAM_RATIO\nm.GRAM_RATIO\n4 * n <= d * d\n"
              "n <= d ** 2 // 4\nrows != d * d\nn <= d * 2")
    assert _gram_rule(ast.parse(sample)) == [1, 2, 3, 4]


def _text_parsing(tree: ast.AST) -> list[int]:
    """Lines that name ``csv.reader``, ``np.loadtxt`` or ``is_number``, or call
    ``.split(",")``."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and ast.unparse(node) in ("csv.reader", "np.loadtxt")
                   or isinstance(node, (ast.Name, ast.alias))
                   and getattr(node, "id", getattr(node, "name", None)) == "is_number"
                   or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "split" and node.args
                   and ast.unparse(node.args[0]) == "','"})


def test_text_is_parsed_only_in_data():
    # data.py's reader decodes, splits and reads the cells of every input
    # file: a parse anywhere else would read numbers by its own rule. The
    # --columns and --rows values are command-line text, which
    # cli._parse_selection splits
    source, start = inspect.getsourcelines(cli._parse_selection)
    argument = {("cli.py", line) for line in range(start, start + len(source))}
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if path.name != "data.py"
                 and (lines := [line for line in _text_parsing(ast.parse(path.read_text()))
                                if (path.name, line) not in argument])}
    assert offenders == {}
    sample = ("from .data import is_number\ncsv.reader(f)\nnp.loadtxt(p)\n"
              "line.split(',')\nis_number(c)\nline.split()\nnp.load(p)")
    assert _text_parsing(ast.parse(sample)) == [1, 2, 3, 4, 5]


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: from {'.' * node.level}{node.module} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_cli_writes_every_file_through_one_binary_path():
    # cli._write encodes every file's text as UTF-8 and streams its matrix
    # slice by slice: a whole-file string, or text in the locale's
    # encoding, would bypass it
    source = (SRC / "cli.py").read_text()
    assert ".write_text(" not in source


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports but neither reads nor lists in __all__."""
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {node.value for statement in tree.body if isinstance(statement, ast.Assign)
                and [getattr(t, "id", None) for t in statement.targets] == ["__all__"]
                for node in ast.walk(statement.value) if isinstance(node, ast.Constant)}
    return [name for name in imported if name not in used | exported]


def test_no_unused_imports():
    offenders = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "__init__.py"
                 for name in _unused_imports(ast.parse(path.read_text()))]
    assert offenders == []


def _unread_definitions(trees: dict[str, ast.Module], public: set[str]) -> list[str]:
    """The top-level functions and classes of each module that no code outside
    their own definition reads, by name or attribute, or imports from another
    module, and that ``public`` does not list."""
    loads, importers = {}, {}  # name -> the ids of its loads, the modules importing it
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                loads.setdefault(name, set()).add(id(node))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    importers.setdefault(alias.name, set()).add(module)
    found = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            inside = {id(node) for node in ast.walk(definition)}
            if not (loads.get(name, set()) - inside or importers.get(name, set()) - {module}
                    or name in public):
                found.append(f"{module}: {name}")
    return found


def test_every_definition_is_read_or_public():
    # no public function exists that nothing needs: a module's function or
    # class is read elsewhere in the package or named in mvskew.__all__
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unread_definitions(trees, set(mvskew.__all__)) == []
    sample = {"a.py": ast.parse("def f():\n    return f()\ndef g():\n    pass\n"
                                "class C:\n    pass\nclass D:\n    pass\nx = g\n"
                                "from .a import D\n"),
              "b.py": ast.parse("from .a import C\n")}
    assert _unread_definitions(sample, set()) == ["a.py: f", "a.py: D"]
    assert _unread_definitions(sample, {"f", "D"}) == []


def _state_assignments(tree: ast.AST) -> list[int]:
    """Lines that assign an attribute named ``state``, alone or in a tuple."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == "state" and isinstance(node.ctx, ast.Store)]


def test_no_generator_state_is_set():
    # every draw starts from Philox(key=..., counter=...), as the README lays
    # it out, so no module rewinds a bit generator through its state
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if (lines := _state_assignments(ast.parse(path.read_text())))}
    assert offenders == {}
    assert _state_assignments(ast.parse("g.state = s\na, g.state = t\ng.state['x'] = 1\n"
                                        "x = g.state\nstate = 1")) == [1, 2]


def _environment_reads(tree: ast.AST) -> list[str]:
    """Each use of environ or getenv (as os.environ or imported from os) in
    a module, as source text, unless it reads the key "XDG_CACHE_HOME"."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name not in ("environ", "getenv"):
            continue
        use = parents[node]
        if isinstance(use, ast.Attribute) and use.attr == "get":  # os.environ.get(...)
            use = parents[use]
        key = (use.slice if isinstance(use, ast.Subscript)
               else use.args[0] if isinstance(use, ast.Call) and use.args else None)
        if not (isinstance(key, ast.Constant) and key.value == "XDG_CACHE_HOME"):
            found.append(ast.unparse(use))
    return found


def test_no_mvskew_environment_variable():
    # every setting is an argument or an option; the library reads only the
    # cache home from the environment
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}: {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.startswith("MVSKEW_")]
        offenders += [f"{path.name}: {use}" for use in _environment_reads(tree)]
    assert offenders == []


# Adding a public name means adding it here.
PUBLIC = [
    "BootstrapResult", "DataError", "DataMatrix", "PreconditionError",
    "ProjectionBasis", "SingularityError", "SkewnessReport",
    "ThirdMomentMatrix", "block", "chi2_sf", "covariance",
    "cumulant_from_moments", "directional_skewness", "fisher_skew", "inv_sqrt",
    "load_csv", "load_third_moment", "mardia_skewness", "max_skew", "min_skew",
    "partial_skewness", "residual_skewness", "save_third_moment", "skew_boot",
    "standardize", "third_moment", "transform_third",
]


def test_public_surface_is_pinned():
    assert sorted(mvskew.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from mvskew import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("[!_]*.py")))
def test_submodule_all_names_exist(module):
    module = importlib.import_module(f"mvskew.{module}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _upper_names(text: str) -> set[str]:
    """The upper-case words with an underscore in a text, e.g. CACHE_BYTES."""
    return set(re.findall(r"\b[A-Z][A-Z0-9]*_[A-Z0-9_]*\b", text))


def test_names_in_the_docs_exist():
    # a name the README, a docstring or a comment gives must exist in some
    # module, so a deleted name cannot live on in the prose
    modules = [mvskew, *(importlib.import_module(f"mvskew.{path.stem}")
                         for path in SRC.glob("[!_]*.py"))]
    readme = (ROOT / "README.md").read_text()
    backticked = " ".join(re.findall(r"`+[^`]+`+", readme))
    named = {("README.md", name) for name in _upper_names(backticked)}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        prose = [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        prose += re.findall(r"#.*$", source, re.MULTILINE)
        named |= {(path.name, name) for name in _upper_names(" ".join(prose))}
    missing = [f"{where}: {name}" for where, name in sorted(named)
               if name != "XDG_CACHE_HOME"
               and not any(hasattr(module, name) for module in modules)]
    dotted = re.findall(r"\bmvskew(?:\.[A-Za-z_]\w*)+", readme)
    assert dotted
    missing += [f"README.md: {name}" for name in dotted
                if functools.reduce(lambda owner, part: getattr(owner, part, None),
                                    name.split(".")[1:], mvskew) is None]
    assert missing == []


def _bench_targets() -> dict:
    """The TARGETS table of perfbench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]]
    return ast.literal_eval(table)


def test_bench_traced_functions_exist():
    # the bench wraps these by name; a rename must fail here, not in a traced run
    missing = [f"{short}.{name}" for short, names in _bench_targets().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"mvskew.{short}"), name, None))]
    assert missing == []


def _bench_module(name: str):
    """A module of perfbench/, loaded by file path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = [w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_bench_small_workload_passes_its_oracle(name, tmp_path):
    # the bench's small job script, run in-process as the bench runs it in
    # a subprocess; a broken output file fails here, not in a timed run
    oracle = _bench_module("oracle")
    workload = _bench_module("workloads").workloads(small=True)[name]
    seed = 1
    csv = workload.input_file(ROOT, tmp_path, seed)
    reference = oracle.Oracle(csv, range(workload.d), iris=workload.n == 0)
    for job in workload.jobs:
        out = tmp_path / job.kind
        argv = [job.args[0], str(csv), *job.args[1:],
                "--output-dir", str(out), "--precision", "15"]
        if job.args[0] == "boot":
            argv += ["--seed", str(seed)]
        assert cli.main(argv) == 0, job
        assert reference.check(job.kind, out, job.args) == [], job
