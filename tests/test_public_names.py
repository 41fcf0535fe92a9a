"""Every public name serves the package, its scripts or its benchmark; test-only code lives in tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: public although only the tests call them: the paper's objects, named in the README
PAPER_OBJECTS = {"gh_transform", "mvn_kernel", "y_norm", "delayed_segment"}


def test_every_public_name_is_used_outside_the_tests():
    """A name in a module's __all__ is used in src/ outside its own definition, in scripts/ or in perfbench/."""
    exported, used = {}, set()
    for path in sorted((ROOT / "src" / "fbmdelay").glob("*.py")):
        # the package __init__ only re-exports: its imports are not uses
        for node in ast.parse(path.read_text()).body if path.name != "__init__.py" else ():
            targets = getattr(node, "targets", ())
            own = {getattr(node, "name", None), *(t.id for t in targets if isinstance(t, ast.Name))}
            if "__all__" in own:
                exported[path.stem] = ast.literal_eval(node.value)
                continue
            for sub in ast.walk(node):
                used |= {getattr(sub, "id", None), getattr(sub, "attr", None)} - own
                if isinstance(sub, ast.ImportFrom):
                    used |= {alias.name for alias in sub.names}
    outside = "\n".join(p.read_text() for d in ("scripts", "perfbench")
                        for p in sorted((ROOT / d).glob("*.py")))
    unused = [f"{module}.{name}" for module, names in exported.items() for name in names
              if name not in used | PAPER_OBJECTS and not re.search(rf"\b{name}\b", outside)]
    assert unused == [], "a name only the tests use belongs in tests/oracles.py"
    sentence = (ROOT / "README.md").read_text().split(" stay public")[0].rsplit("\n\n", 1)[-1]
    assert set(re.findall(r"`(\w+)`", sentence)) == PAPER_OBJECTS
