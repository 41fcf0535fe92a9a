"""Every public name serves the package, its scripts or its benchmark; test-only code lives in tests/."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: public although only the tests call them: the paper's objects, named in the README
PAPER_OBJECTS = {"gh_transform", "mvn_kernel", "y_norm", "delayed_segment"}


def test_every_public_name_is_used_outside_the_tests():
    """A name in a module's __all__ is used in src/ outside its own definition, in scripts/ or in perfbench/; so is
    a public method or property of a class in __all__, read as an attribute in src/ outside its own definition."""
    exported, used, methods, reads = {}, set(), [], Counter()
    for path in sorted((ROOT / "src" / "fbmdelay").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)
                     and isinstance(sub.ctx, ast.Load))
        # the package __init__ only re-exports: its imports are not uses
        for node in tree.body if path.name != "__init__.py" else ():
            targets = getattr(node, "targets", ())
            own = {getattr(node, "name", None), *(t.id for t in targets if isinstance(t, ast.Name))}
            if "__all__" in own:
                exported[path.stem] = ast.literal_eval(node.value)
                continue
            if isinstance(node, ast.ClassDef):
                methods += [(path.stem, node.name, f) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            for sub in ast.walk(node):
                used |= {getattr(sub, "id", None), getattr(sub, "attr", None)} - own
                if isinstance(sub, ast.ImportFrom):
                    used |= {alias.name for alias in sub.names}
    outside = "\n".join(p.read_text() for d in ("scripts", "perfbench")
                        for p in sorted((ROOT / d).glob("*.py")))
    unused = [f"{module}.{name}" for module, names in exported.items() for name in names
              if name not in used | PAPER_OBJECTS and not re.search(rf"\b{name}\b", outside)]
    for module, cls, f in methods:
        own = sum(isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) and sub.attr == f.name
                  for sub in ast.walk(f))
        if cls in exported.get(module, ()) and reads[f.name] == own and not re.search(rf"\b{f.name}\b", outside):
            unused.append(f"{module}.{cls}.{f.name}")
    assert unused == [], "a name only the tests use belongs in tests/oracles.py"
    sentence = (ROOT / "README.md").read_text().split(" stay public")[0].rsplit("\n\n", 1)[-1]
    assert set(re.findall(r"`(\w+)`", sentence)) == PAPER_OBJECTS


#: the functions whose kernel weights are a difference of powers, per module
POWER_DIFF_SITES = {("noise", "avg_kernel_table"), ("noise", "dr_kernel_table"), ("noise", "_far_at_nodes"),
                    ("experiments", "_energy_quadrature"), ("kernels", "mvn_kernel"), ("kernels", "gh_transform"),
                    ("integrands", "cond_var")}


def test_every_difference_of_powers_goes_through_power_diff():
    """expm1 is written in src/ only inside kernels.power_diff, and every kernel weight's function calls it."""
    callers = set()
    for path in sorted((ROOT / "src" / "fbmdelay").glob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)]
        callers |= {(path.stem, f.name) for f in functions
                    if any(getattr(sub, "id", None) == "power_diff" for sub in ast.walk(f))}
        if path.name == "kernels.py":
            primitive = next(f for f in functions if f.name == "power_diff")
            text = text.replace(ast.get_source_segment(text, primitive), "")
        assert "expm1" not in text, f"{path.name} takes a difference of powers outside kernels.power_diff"
    assert POWER_DIFF_SITES <= callers, POWER_DIFF_SITES - callers


#: the einsums that are no sum over a row: past_dot's pricing sums exact integers, and discrete_dr_energy's
#: quadratic form reads no row of noise
EINSUM_EXCEPTIONS = {("noise", "past_dot"): 1, ("noise", "discrete_dr_energy"): 1}


def test_every_sum_over_a_row_goes_through_row_dot():
    """einsum is named in src/ only inside noise.row_dot, save once in each of the two exceptions."""
    found = {}
    for path in sorted((ROOT / "src" / "fbmdelay").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for f in node.body if isinstance(node, ast.ClassDef) else [node]:
                count = sum(getattr(sub, "attr", getattr(sub, "id", None)) == "einsum" for sub in ast.walk(f))
                if count:
                    found[path.stem, getattr(f, "name", None)] = count
    assert found.pop(("noise", "row_dot"), 0) > 0
    assert found == EINSUM_EXCEPTIONS, "a sum over a row outside noise.row_dot"
