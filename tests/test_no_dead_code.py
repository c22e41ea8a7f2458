"""Every top-level function and class in the package, and every public
method, is used somewhere in the package other than its own definition;
every defaulted parameter is set by some call in the package; and every
field an object stores is read by the package.

Tests and independent oracles live under tests/; code that only they
reach belongs there too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "waveop_lab"


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(name, node) for top-level defs and classes and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _references(node, inside, out):
    """Collect (name, enclosing definition nodes) for every load of a name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        out.append((node.id, inside))
    elif isinstance(node, ast.Attribute):
        out.append((node.attr, inside))
    for child in ast.iter_child_nodes(node):
        _references(child, inside, out)


def test_no_unreferenced_definitions():
    trees = _trees()
    refs = []
    for tree in trees.values():
        _references(tree, frozenset(), refs)
    unused = [f"{mod}:{name}" for mod, tree in trees.items()
              for name, node in _definitions(tree)
              if not any(r == name and id(node) not in inside for r, inside in refs)]
    assert not unused, f"defined but never used in src/: {unused}"


# Defaulted parameters that no call in src/ sets, each kept on purpose.
UNSET_DEFAULTS_KEPT = {
    # the one-problem form of integrate_batch: the oracles in
    # tests/dense_reference.py set these, and perfbench/tracer.py reads
    # rel_tol and abs_tol from this signature
    "integrate_adaptive": {"abs_tol", "freq", "breakpoints", "max_panels"},
    # the console script calls main(); tests pass argv
    "main": {"argv"},
}
# classes whose fields are set after construction: load_config sets the
# Config fields from the JSON config
FIELDS_SET_LATER = {"Config"}


def _name(node):
    """The name a call or decorator refers to: f for f(...), m for x.m(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _functions(node, cls=None):
    """(function, name of the class it is a method of, or None) for every def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield child, cls
            yield from _functions(child)
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, child.name)
        else:
            yield from _functions(child, cls)


def _field_has_default(value):
    if value is None:
        return False
    if _name(value) == "field" and isinstance(value, ast.Call):
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _signatures(tree):
    """(callee name, {defaulted parameter: position, None if keyword-only})
    for every function, method and dataclass constructor.  A method is
    called by its own name and a constructor by its class name; the other
    dunder methods run on syntax, not on calls by name, and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(_name(d) == "dataclass"
                                                  for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            yield node.name, {f.target.id: i for i, f in enumerate(fields)
                              if _field_has_default(f.value)}
    for fn, cls in _functions(tree):
        if fn.name.startswith("__") and fn.name != "__init__":
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        if cls is not None and "staticmethod" not in map(_name, fn.decorator_list):
            positional = positional[1:]                  # self or cls
        first = len(positional) - len(args.defaults)
        defaulted = {a.arg: i for i, a in enumerate(positional) if i >= first}
        defaulted.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None})
        yield (cls if fn.name == "__init__" else fn.name), defaulted


def _calls(tree):
    """(callee name, positional count, keyword names) for every call; a
    *args call counts as passing every position, a **kwargs call every
    keyword (None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            n_pos = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keywords = [k.arg for k in node.keywords]
            yield _name(node), n_pos, None if None in keywords else set(keywords)


def unset_defaults(trees):
    """Every defaulted parameter that no call in ``trees`` passes, by
    keyword or by position, as "callee.parameter"."""
    calls = {}
    for tree in trees.values():
        for name, n_pos, keywords in _calls(tree):
            calls.setdefault(name, []).append((n_pos, keywords))
    unset = []
    for tree in trees.values():
        for name, defaulted in _signatures(tree):
            for param, pos in defaulted.items():
                if not any(n_pos is None or keywords is None or param in keywords
                           or (pos is not None and pos < n_pos)
                           for n_pos, keywords in calls.get(name, ())):
                    unset.append(f"{name}.{param}")
    return unset


def test_every_default_is_set_by_some_call():
    kept = {f"{name}.{p}" for name, params in UNSET_DEFAULTS_KEPT.items() for p in params}
    unset = [u for u in unset_defaults(_trees()) if u.split(".")[0] not in FIELDS_SET_LATER]
    extra = sorted(set(unset) - kept)
    assert not extra, f"defaulted parameters that no call in src/ sets: {extra}"
    stale = sorted(kept - set(unset))
    assert not stale, f"kept parameters that a call in src/ now sets: {stale}"


# Stored fields that src/ never reads, each kept on purpose.
STORED_UNREAD_KEPT = {
    # they carry the best estimate to whoever catches the error
    "AccuracyError": {"best", "err_est"},
}


def _stored_fields(tree):
    """(class, field) for every dataclass field and every ``self.x = ...``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(_name(d) == "dataclass" for d in cls.decorator_list):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield cls.name, item.target.id
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                yield cls.name, node.attr


def _read_names(trees):
    """Every attribute name src/ loads, and every string it holds, since
    getattr and _REPORT_FIELDS read fields by name."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_stored_field_is_read():
    trees = _trees()
    read = _read_names(trees)
    unread = {f"{cls}.{name}" for tree in trees.values()
              for cls, name in _stored_fields(tree) if name not in read}
    kept = {f"{cls}.{name}" for cls, names in STORED_UNREAD_KEPT.items() for name in names}
    extra = sorted(unread - kept)
    assert not extra, f"stored but never read in src/: {extra}"
    stale = sorted(kept - unread)
    assert not stale, f"kept fields that src/ now reads: {stale}"


def test_tracer_only_imports_of_integrate_adaptive():
    # perfbench/tracer.py rebinds integrate_adaptive in these modules, which
    # import it without calling it; the imports go together, when the
    # tracer stops rebinding them
    trees = _trees()
    importers = {mod for mod, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and any(a.name == "integrate_adaptive" for a in node.names)}
    callers = {mod for mod, tree in trees.items()
               for name, _, _ in _calls(tree) if name == "integrate_adaptive"}
    assert sorted(importers - callers) == ["experiments.py", "kernels.py", "specfun.py"]
