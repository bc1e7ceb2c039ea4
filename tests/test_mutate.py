"""The mutation tool's site list and survivor list stay in step with the
package: each site names a function, each mutant compiles to a different
module, and each listed survivor is still a mutant of the sites.  No mutant
is run here; ``tools/mutate.py`` runs them, outside Tier-1."""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_compiles_to_a_different_module():
    tool = load_tool()
    mutants = tool.mutants(tool.SITES)
    assert len({m.id for m in mutants}) == len(mutants)
    assert {m.id.split(" ")[0] for m in mutants} == set(tool.SITES)
    for mutant in mutants:
        source = (ROOT / mutant.path).read_text(encoding="utf-8")
        mutated = tool.apply(source, mutant)
        assert ast.dump(ast.parse(mutated)) != ast.dump(ast.parse(source)), mutant.id


def test_survivor_list_names_current_mutants():
    tool = load_tool()
    ids = {m.id for m in tool.mutants(tool.SITES)}
    entries = json.loads(tool.SURVIVORS.read_text(encoding="utf-8"))
    for entry in entries:
        assert entry["mutant"] in ids
        assert ("equivalent" in entry) != ("killed_by" in entry), entry
        if "killed_by" in entry:
            path, *names = entry["killed_by"].split("::")
            assert f"def {names[-1]}(" in (ROOT / path).read_text(encoding="utf-8"), entry
