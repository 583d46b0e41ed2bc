"""Every module-level definition in superchan is reached by a command.

The roots are the names that cli.py references and the functions that the
benchmark's tracer (perfbench/tracer.py, loaded by path) wraps.  The walk
follows name references from each reached definition, through the package's
relative imports.  A definition that no root reaches is library code that no
command runs: it should go, or move into the test that uses it.

Every defaulted parameter of a package function is set by some call in the
package, so no option exists that no command can change; UNSET_KEPT names
the exceptions and their reasons.

The same AST holds the records to one constructor: bounds._record is the
only call of VerificationRecord, so every verdict follows from its sides;
every Kronecker product to one kernel, linalg.kron, in place of np.kron;
every Hermitian eigendecomposition to linalg.eigh and linalg.eigvalsh, in
place of np.linalg.eigh and np.linalg.eigvalsh; every spectral job to one
public linalg function, with no private twin imported from linalg; every
certificate of a channel or superchannel to a property computed on first
read; and every Kraus set to one (r, d_out, d_in) stack that no Python loop
walks.  No channel carries a tele-covariance tag, and no divergence
objective forms a Kronecker product or a partial trace per evaluation.

The mutation table of tests/mutation_audit.py names source lines, and each
must occur exactly once.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superchan"
TRACER = ROOT / "perfbench" / "tracer.py"

# Library API that the tests build on although no command calls it.  The
# tests check maps against channels.adjoint; only attribute calls of a
# different adjoint method reach that name from a command.
KEPT = frozenset(
    {"super_to_json", "replacer_channel", "depolarizing_r_tilde", "adjoint", "__version__"}
)


# Defaulted parameters that no call in the package sets.  verify_refined_dpi's
# psi and phi are the paper's witness coordinates, and the only test of a
# record skipped at a witness that is not maximally entangled sets psi; the
# tests drive the command line through main(argv); Python's descriptor
# protocol sets __get__'s owner.
UNSET_KEPT = frozenset(
    {
        ("verify_refined_dpi", "psi"),
        ("verify_refined_dpi", "phi"),
        ("main", "argv"),
        ("__get__", "owner"),
    }
)


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


class Package:
    """Module-level definitions and relative imports of every module."""

    def __init__(self, path):
        self.trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in path.glob("*.py")}
        self.defs = {}  # (module, name) -> defining statement
        self.imports = {}  # module -> {local name: (module, name)}
        for module, tree in self.trees.items():
            imports = self.imports[module] = {}
            for stmt in tree.body:
                for name in _defined_names(stmt):
                    self.defs[(module, name)] = stmt
                if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                    for alias in stmt.names:
                        imports[alias.asname or alias.name] = (stmt.module, alias.name)

    def resolve(self, module, name):
        """The (module, name) that defines `name` as seen from `module`, or None."""
        while (module, name) not in self.defs:
            if name not in self.imports.get(module, {}):
                return None
            module, name = self.imports[module][name]
        return module, name

    def references(self, module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = self.resolve(module, sub.id)
                if target is not None:
                    yield target

    def reached(self, roots):
        todo, reached = list(roots), set()
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                todo.extend(self.references(key[0], self.defs[key]))
        return reached


def _tracer_roots():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(m, name) for m, names in tracer.WRAPPED.items() for name in names]


def test_every_definition_is_reached_from_a_command():
    package = Package(PACKAGE)
    roots = [*package.references("cli", package.trees["cli"]), *_tracer_roots()]
    reached = package.reached(roots)
    unreached = sorted(
        f"{module}.{name} (line {stmt.lineno})"
        for (module, name), stmt in package.defs.items()
        if (module, name) not in reached and name not in KEPT
    )
    assert not unreached, "no command reaches: " + ", ".join(unreached)


# Definitions that only the tracer's roots reach: the tracer still wraps them
# although no command calls them, and the set shrinks once it stops.  A
# function that loses its last command caller lands here and fails the test,
# where counting the tracer's names as roots would let it pass.
# divergence_at, the divergence at one witness, is what the tests replay a
# witness with; the ascents evaluate their own objectives, and the general
# one finds a leak in its own factorization, so no command calls it.
# telecov_channel, covariance_residual and COVARIANCE_TOL: the suites sample
# Pauli channels, which are their own twirl, straight from the
# Weyl-Heisenberg stack, so no command twirls or checks covariance.
TRACER_ONLY = frozenset(
    {
        ("channels", "compose"),
        ("channels", "telecov_channel"),
        ("channels", "covariance_residual"),
        ("channels", "COVARIANCE_TOL"),
        ("divergences", "divergence_at"),
    }
)


def test_tracer_roots_reach_only_the_named_extras():
    package = Package(PACKAGE)
    from_cli = package.reached(package.references("cli", package.trees["cli"]))
    assert package.reached(_tracer_roots()) - from_cli == TRACER_ONLY



# Private linalg names that another module may import: _json_dim, the JSON
# dimension check that channels and superchannels share.
PRIVATE_LINALG_IMPORTS_KEPT = frozenset({"_json_dim"})


def test_no_module_imports_a_private_linalg_helper():
    """Outside linalg, only its public functions are imported, apart from the named exemption.

    Each spectral job in linalg has one implementation, a public function that
    reads the decomposition its caller made; a private twin imported around
    it would be a second copy of that job.
    """
    package = Package(PACKAGE)
    found = sorted(
        f"{module}.py:{stmt.lineno} ({alias.name})"
        for module, tree in package.trees.items()
        if module != "linalg"
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module == "linalg"
        for alias in stmt.names
        if alias.name.startswith("_") and alias.name not in PRIVATE_LINALG_IMPORTS_KEPT
    )
    assert not found, "private linalg name imported at: " + ", ".join(found)


def _functions(tree):
    """(function node, offset) of every def in tree; offset 1 skips a method's self."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, int(isinstance(node, ast.ClassDef))


def _defaulted(fn, offset):
    """(position in a call, name) of each defaulted parameter; position None if keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _sets(call, position, name):
    """True when call passes the parameter at position, or named name."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no call sets is an option no command can change."""
    package = Package(PACKAGE)
    calls = {}  # callee name -> calls
    for tree in package.trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unset = sorted(
        f"{module}.{fn.name}({name}) (line {fn.lineno})"
        for module, tree in package.trees.items()
        for fn, offset in _functions(tree)
        for position, name in _defaulted(fn, offset)
        if (fn.name, name) not in UNSET_KEPT
        and not any(_sets(call, position, name) for call in calls.get(fn.name, ()))
    )
    assert not unset, "no call in the package sets: " + ", ".join(unset)


def test_records_are_built_only_by_record():
    """bounds._record is the one place that constructs a VerificationRecord."""
    package = Package(PACKAGE)
    builders = []
    for module, tree in package.trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name == "VerificationRecord":
                    owner = ", ".join(_defined_names(stmt)) or "<module>"
                    builders.append((f"{module}.{owner}", node.lineno))
    assert [b for b, _ in builders] == ["bounds._record"], builders


def test_kronecker_products_go_through_linalg_kron():
    """No np.kron call is left in the package; linalg.kron is its one Kronecker kernel."""
    package = Package(PACKAGE)
    lines = sorted(
        {
            f"{module}.py:{node.lineno}"
            for module, tree in package.trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "kron"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        }
    )
    assert not lines, "np.kron called at: " + ", ".join(lines)


def test_hermitian_eigensolvers_go_through_linalg():
    """No np.linalg.eigh or eigvalsh call is left; linalg.eigh and eigvalsh are the kernels."""
    package = Package(PACKAGE)
    lines = sorted(
        f"{module}.py:{node.lineno} ({node.func.attr})"
        for module, tree in package.trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("eigh", "eigvalsh")
        and ast.unparse(node.func.value) == "np.linalg"
    )
    assert not lines, "np.linalg eigensolver called at: " + ", ".join(lines)


CERTIFIERS = frozenset({"certify_flags", "certify_tp_preserving"})


def _certifier_calls(module, node, owner=None):
    """(where, owner) of each certifier call, with owner the innermost def around it."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in CERTIFIERS:
            yield f"{module}.py:{node.lineno} ({name})", owner
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node
    for child in ast.iter_child_nodes(node):
        yield from _certifier_calls(module, child, owner)


def test_certificates_are_computed_on_first_read():
    """Channels and superchannels certify in _on_first_read properties, never when built."""
    package = Package(PACKAGE)
    eager = sorted(
        f"{where} in {owner.name if owner else '<module>'}"
        for module, tree in package.trees.items()
        for where, owner in _certifier_calls(module, tree)
        if owner is None
        or not any(ast.unparse(d) == "_on_first_read" for d in owner.decorator_list)
    )
    assert not eager, "certified outside _on_first_read: " + ", ".join(eager)


def test_no_channel_carries_a_covariance_tag():
    """No .telecov attribute, field or keyword is left in the package.

    Every channel divergence and entropy takes the certified ascent, so a
    tele-covariance tag would have no reader.
    """
    package = Package(PACKAGE)
    found = sorted(
        f"{module}.py:{node.lineno}"
        for module, tree in package.trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "telecov")
        or (isinstance(node, ast.keyword) and node.arg == "telecov")
        or (isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "telecov")
    )
    assert not found, "telecov tag at: " + ", ".join(found)


# Functions that may loop over a channel's Kraus operators: the JSON encoder
# writes one matrix per operator.
KRAUS_LOOPS_KEPT = frozenset({"channel_to_json"})


def _iterables(node, owner=None):
    """(iterable, owner) of each for loop and comprehension, owner the innermost def's name."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        yield node.iter, owner
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    for child in ast.iter_child_nodes(node):
        yield from _iterables(child, owner)


def test_kraus_stacks_are_not_looped_over():
    """No for loop or comprehension iterates over a .kraus attribute outside KRAUS_LOOPS_KEPT.

    A Kraus set is one (r, d_out, d_in) array, so a product over it is one
    batched matmul or broadcast, not one Python step per operator.
    """
    package = Package(PACKAGE)
    loops = sorted(
        f"{module}.py:{iterable.lineno} in {owner or '<module>'}"
        for module, tree in package.trees.items()
        for iterable, owner in _iterables(tree)
        if owner not in KRAUS_LOOPS_KEPT
        and any(
            isinstance(sub, ast.Attribute) and sub.attr in ("kraus", "given_kraus")
            for sub in ast.walk(iterable)
        )
    )
    assert not loops, "loop over Kraus operators at: " + ", ".join(loops)


def test_objective_evaluations_take_no_kronecker_product_or_partial_trace():
    """No nested objective function in divergences.py calls kron or partial_trace.

    Each objective sends rho through block maps built once per channel pair,
    so an evaluation is matmuls and eigendecompositions, with no Kronecker
    product to form and no trace to take.
    """
    tree = Package(PACKAGE).trees["divergences"]
    nested = [fn for fn, _ in _functions(tree) if fn.name == "objective" and fn not in tree.body]
    assert nested
    calls = sorted(
        f"divergences.py:{node.lineno} ({name})"
        for fn in nested
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("kron", "partial_trace")
    )
    assert not calls, "objective evaluation calls: " + ", ".join(calls)


def test_every_mutant_line_occurs_once():
    """Each defect of tests/mutation_audit.py names a line that occurs exactly once.

    An edit that moves or rewrites a mutated line must update the table, or
    the audit would mutate nothing and report the defect as caught.
    """
    import mutation_audit

    assert len({m.name for m in mutation_audit.MUTANTS}) == len(mutation_audit.MUTANTS)
    counts = {m.name: mutation_audit.occurrences(m, ROOT) for m in mutation_audit.MUTANTS}
    assert all(n == 1 for n in counts.values()), counts
