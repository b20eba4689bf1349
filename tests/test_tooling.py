"""Repository tooling guards, checked by reading syntax trees and the README only.

``perfbench/spans.py`` wraps each ``module.function`` in ``TRACED`` for a
traced run; a rename in the package would otherwise only show up as a
``--trace 1`` failure.  The two constants are read from the file's syntax
tree; the file is neither executed nor modified.  The package's runtime
depends on numpy and the standard library alone, a function of a state
reads the algebra off the state instead of taking it as a second argument,
no public function returns a discovered algebra as a bare (structure, W)
tuple, every function and class the package defines is named somewhere else,
``algebra._assemble`` is the one builder of block matrices, every
numerical cutoff is an entry of the one table ``_linalg.Cutoff``, which the
README's cutoff table documents row by row, only ``states`` decides that a
functional is not a state, ``_linalg.rng_stream`` builds every random
stream (the oracle's chunk c is ``rng_stream(seed, 1, c)``), the CLI turns JSON into float arrays and decides that a number is finite only
in its number decoder, writes stdout only in its renderer and stderr only
in ``main``'s error handlers, and each result type has one builder:
``entropy.state_entropy`` for ``EntropyReport``, ``decomp.infimum_oracle``
for ``OracleReport`` and ``states._decomposition`` for ``Decomposition``.
The ``oracle`` command reads both of its entropies off one oracle report,
and the oracle scan rebuilds no decomposition.  The oracle's sample 0 and
the ``gns`` command each read the closed form through one
``entropy.closed_form_entropy`` call and build no ``EntropyReport``.  The
GNS route neither reads ``StateFunctional.spectra``, the closed form's one
``eigh``, nor imports discovery, and discovery has one split loop, in
``algebra.generate_subalgebra``, which ``block_decompose`` calls.  W's
unitarity bound is read in ``algebra`` only by ``SubalgebraBasis``.
"""

import ast
import importlib
import inspect
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "cstar_entropy").glob("*.py"))


def _traced():
    consts = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("PACKAGE", "TRACED"):
                consts[node.targets[0].id] = ast.literal_eval(node.value)
    return consts["PACKAGE"], [(mod, fn) for mod, fns in consts["TRACED"].items() for fn in fns]


PACKAGE, TRACED = _traced()


@pytest.mark.parametrize("mod,fn", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_name_is_a_package_function(mod, fn):
    module = importlib.import_module(f"{PACKAGE}.{mod}")
    assert callable(getattr(module, fn, None)), f"{PACKAGE}.{mod}.{fn} is not a callable"


def _import_roots(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_runtime_imports_only_numpy_and_the_standard_library(path):
    allowed = {"numpy", "__future__"} | set(sys.stdlib_module_names)
    foreign = sorted(set(_import_roots(path)) - allowed)
    assert not foreign, f"{path.name} imports {foreign}"


def _public_callables():
    """(qualified name, callable) for each public function, class and method of the package."""
    for path in SOURCES:
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"{PACKAGE}.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__ \
                    or inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{path.stem}.{name}", obj
            if inspect.isclass(obj):
                yield from ((f"{path.stem}.{name}.{attr}", getattr(obj, attr))
                            for attr in vars(obj) if not attr.startswith("_")
                            and inspect.isroutine(getattr(obj, attr)))


def test_no_public_callable_takes_both_a_state_and_a_structure():
    offenders, scanned = [], set()
    for name, obj in _public_callables():
        scanned.add(name)
        params = inspect.signature(obj).parameters.values()
        annotations = " ".join(str(p.annotation) for p in params)
        if re.search(r"\bStateFunctional\b", annotations) and \
                re.search(r"\bBlockStructure\b", annotations):
            offenders.append(name)
    assert {"entropy.state_entropy", "states.canonical_form", "states.StateFunctional.expect",
            "thermo.gas_entropy"} <= scanned
    assert not offenders, f"take both a StateFunctional and a BlockStructure: {offenders}"


def test_no_public_function_returns_a_bare_structure_and_unitary():
    # a discovered algebra has one public form, the SubalgebraBasis pair (structure, W)
    scanned, offenders = set(), []
    for name, obj in _public_callables():
        scanned.add(name)
        returns = str(inspect.signature(obj).return_annotation)
        if re.search(r"tuple\[\s*BlockStructure\s*,\s*np\.ndarray\s*\]", returns):
            offenders.append(name)
    assert {"algebra.generate_subalgebra", "algebra.block_decompose"} <= scanned
    assert not offenders, f"return a bare (BlockStructure, ndarray) tuple: {offenders}"


def _names_used(tree):
    """Every name a syntax tree refers to: names, attributes, imported names, and
    string constants that are one identifier (the traced names in ``perfbench/spans.py``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_package_definition_is_named_elsewhere():
    # a function or class nothing refers to is a leftover; dunder methods are
    # called by Python itself.  Syntax trees are read, nothing is executed.
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    used = set()
    for path in files:
        used.update(_names_used(ast.parse(path.read_text())))
    defined = [(path.name, node.name) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert len(defined) > 100
    unused = sorted(f"{file}: {name}" for file, name in defined if name not in used)
    assert not unused, f"defined but named nowhere else: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_block_matrices_are_built_by_assemble_only(path):
    # np.kron and np.block would build (+)_i X_i (x) I_m a second way
    banned = {"kron", "block"}
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in banned
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
             or isinstance(node, ast.ImportFrom) and node.module == "numpy"
             and any(alias.name in banned for alias in node.names)]
    assert not found, f"{path.name} calls np.kron or np.block at lines {found}"


def _cutoff_table(tree):
    """The ``Cutoff`` class of a syntax tree, or None."""
    return next((node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Cutoff"), None)


def _outside(tree, table):
    """The nodes of a syntax tree that are not part of the table."""
    inside = set(map(id, ast.walk(table))) if table else set()
    return [node for node in ast.walk(tree) if id(node) not in inside]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_small_float_literals_live_in_the_cutoff_table(path):
    # a literal in (0, 1e-5) is a numerical cutoff, signature defaults and scale guards
    # included; each belongs in _linalg.Cutoff, where it is named once
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in _outside(tree, _cutoff_table(tree))
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             and 0 < node.value < 1e-5]
    assert not found, f"{path.name} has float literals below 1e-5 at lines {found}"


def _cutoff_entries():
    table = _cutoff_table(ast.parse((ROOT / "src" / "cstar_entropy" / "_linalg.py").read_text()))
    return [target.id for node in table.body if isinstance(node, ast.Assign)
            for target in node.targets] \
        + [node.name for node in table.body if isinstance(node, ast.FunctionDef)]


def test_every_cutoff_table_entry_is_read():
    entries = set(_cutoff_entries())
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read.update(node.attr for node in _outside(tree, _cutoff_table(tree))
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "Cutoff")
    assert len(entries) > 20
    assert not entries - read, f"cutoff table entries nothing reads: {sorted(entries - read)}"


def test_readme_cutoff_table_names_every_entry_once():
    # the README documents each entry of _linalg.Cutoff in one row, named in the first column
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| Entry | Formula |"):].split("\n\n")[0].splitlines()[2:]
    documented = [re.match(r"\s*\| `(\w+)", row).group(1) for row in table]
    assert sorted(documented) == sorted(_cutoff_entries())


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_states_raises_not_a_state(path):
    # StateFunctional decides positivity, normalization and self-adjointness on
    # construction; a second check elsewhere would decide with its own cutoff
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and "NotAStateError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}]
    assert path.name == "states.py" or not found, \
        f"{path.name} raises NotAStateError at lines {found}"


def _raise_sites(node, name: str, owner=()):
    """Qualified name of the class and function around each raise of the exception name."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = (*owner, node.name)
    if isinstance(node, ast.Raise) and node.exc is not None \
            and name in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}:
        yield ".".join(owner)
    for child in ast.iter_child_nodes(node):
        yield from _raise_sites(child, name, owner)


def test_only_the_state_constructor_raises_not_a_state():
    # statehood is decided once, when a StateFunctional is built, whatever form the state
    # was written in; a raise anywhere else would be a second rule with its own cutoff
    sites = {(path.name, site) for path in SOURCES
             for site in _raise_sites(ast.parse(path.read_text()), "NotAStateError")}
    assert sites == {("states.py", "StateFunctional.__post_init__")}, sorted(sites)


def _bit_generator_sites(node, owner=None):
    """(innermost enclosing function, name) of each Philox, SFC64 or SeedSequence a syntax tree names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) \
        else node.name.split(".")[-1] if isinstance(node, ast.alias) else None
    if name in ("Philox", "SFC64", "SeedSequence"):
        yield owner, name
    for child in ast.iter_child_nodes(node):
        yield from _bit_generator_sites(child, owner)


def test_one_constructor_per_stream_contract():
    # rng_stream builds every stream, so a seed reaches the one contract through
    # one checked path
    sites = {(path.name, *site) for path in SOURCES
             for site in _bit_generator_sites(ast.parse(path.read_text()))}
    assert sites == {("_linalg.py", "rng_stream", "SFC64"),
                     ("_linalg.py", "rng_stream", "SeedSequence")}, sorted(sites, key=str)


def _float_array_sites(node, owner=None):
    """(innermost enclosing function, line) of each np.asarray or np.array call of dtype float."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("asarray", "array") and isinstance(node.func.value, ast.Name) \
            and node.func.value.id in ("np", "numpy"):
        dtypes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if any(isinstance(t, ast.Name) and t.id == "float"
               or isinstance(t, ast.Attribute) and t.attr == "float64" for t in dtypes):
            yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _float_array_sites(child, owner)


def test_cli_reads_json_numbers_through_its_number_decoder():
    # numpy converts a numeric string or a boolean to a float; the decoder rejects
    # them, so a JSON field that reached numpy another way would accept them
    tree = ast.parse((ROOT / "src" / "cstar_entropy" / "cli.py").read_text())
    sites = list(_float_array_sites(tree))
    assert sites and {owner for owner, _ in sites} == {"_numbers_from_json"}, sites


def test_cli_decides_finiteness_in_its_number_decoder():
    # a second finiteness check would word its own error for a non-finite number, or
    # let through one that the decoder refuses
    tree = ast.parse((ROOT / "src" / "cstar_entropy" / "cli.py").read_text())
    sites = list(_call_sites(tree, "isfinite"))
    assert sites and {owner for owner, _ in sites} == {"_numbers_from_json"}, sites


def _stream_writes(node, owner=None, handled=False):
    """(innermost enclosing function, stream, inside an except clause) of each print call
    and of each other use of sys.stdout or sys.stderr."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    handled = handled or isinstance(node, ast.ExceptHandler)
    children = ast.iter_child_nodes(node)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
        stream = [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"]
        yield owner, (stream or ["sys.stdout"])[0], handled
        children = node.args  # the file= keyword names this call's stream
    elif isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.stdout", "sys.stderr"):
        yield owner, ast.unparse(node), handled
    for child in children:
        yield from _stream_writes(child, owner, handled)


def test_cli_writes_stdout_only_in_its_renderer():
    # the renderer writes the text lines and the JSON object from the same rows; a second
    # writer could print a field that one of the two forms lacks
    tree = ast.parse((ROOT / "src" / "cstar_entropy" / "cli.py").read_text())
    writes = set(_stream_writes(tree))
    assert writes == {("_render", "sys.stdout", False), ("main", "sys.stderr", True)}, writes


def _call_sites(node, name, owner=None):
    """(innermost enclosing function, line) of each call of a callable named name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)):
        yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _call_sites(child, name, owner)


def _attribute_reads(node, base, attr, scope=()):
    """Qualified name ("Class.method") of the scope of each read of base.attr."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = scope + (node.name,)
    if isinstance(node, ast.Attribute) and node.attr == attr \
            and isinstance(node.value, ast.Name) and node.value.id == base:
        yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, base, attr, scope)


@pytest.mark.parametrize("name,builder", [("EntropyReport", ("entropy.py", "state_entropy")),
                                          ("OracleReport", ("decomp.py", "infimum_oracle")),
                                          ("Decomposition", ("states.py", "_decomposition"))])
def test_each_result_type_has_one_builder(name, builder):
    # a second builder would fill the fields, or drop and renormalize the weights, its own way
    sites = {(path.name, owner) for path in SOURCES
             for owner, _ in _call_sites(ast.parse(path.read_text()), name)}
    assert sites == {builder}, sorted(sites, key=str)


def test_oracle_command_makes_one_scan_and_builds_nothing_it_discards():
    # the report carries the closed form the scan starts from and the winning index, so
    # the command recomputes neither, and a sample's decomposition is rebuilt on demand only
    def calls(module, owner, name):
        tree = ast.parse((ROOT / "src" / "cstar_entropy" / module).read_text())
        return [line for found, line in _call_sites(tree, name) if found == owner]

    assert len(calls("cli.py", "_cmd_oracle", "infimum_oracle")) == 1
    assert calls("cli.py", "_cmd_oracle", "state_entropy") == []
    assert calls("cli.py", "_cmd_oracle", "minimal_decomposition") == []
    for name in ("minimal_decomposition", "_rebuild_sample", "_sample_isometries"):
        assert calls("decomp.py", "infimum_oracle", name) == [], name
    # sample 0's value and the gns command's closed form are one number each, not a report
    for module, owner in (("decomp.py", "infimum_oracle"), ("cli.py", "_cmd_gns")):
        assert len(calls(module, owner, "closed_form_entropy")) == 1, owner
        assert calls(module, owner, "state_entropy") == [], owner


def test_gns_route_reads_neither_the_closed_form_spectra_nor_discovery():
    # the route cross-checks the closed form, so it reads the raw block values, and its
    # sectors are the blocks gns_construct builds, so it rediscovers nothing
    tree = ast.parse((ROOT / "src" / "cstar_entropy" / "gns.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "spectra"] == []
    assert [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_discover")] == []


def test_discovery_checks_the_unitarity_of_w_once():
    # a split attempt hands W to SubalgebraBasis, whose check it turns into a retry,
    # so W*W - I is formed once per attempt, in the one place that bounds it
    tree = ast.parse((ROOT / "src" / "cstar_entropy" / "algebra.py").read_text())
    assert list(_attribute_reads(tree, "Cutoff", "identity_defect")) == \
        ["SubalgebraBasis.__post_init__"]


def test_discovery_has_one_split_loop():
    # a basis stack is split through the algebra one element of its span generates,
    # so the seeded attempts and their certificate live in generate_subalgebra alone
    tree = ast.parse((ROOT / "src" / "cstar_entropy" / "algebra.py").read_text())
    assert {owner for owner, _ in _call_sites(tree, "_split_attempt")} == {"generate_subalgebra"}
    assert "block_decompose" in {owner for owner, _ in _call_sites(tree, "generate_subalgebra")}
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_discover")] == []
