"""Record the outputs that the benchmark's output checks compare with.

    PYTHONPATH=src python perfbench/record.py

Writes ``perfbench/reference.json``: for the width sweep (the first part of
the exact workload), the method and value of strip_entropy_closed at every
width of every config, with the config's unrenamed inputs; for cli-cold, the
stdout of each command.  It was run at the commit that defined the benchmark.  Running it again at a later commit makes that commit's output
the reference, which hides any change of output since.
"""

from __future__ import annotations

import json
import sys

from common import CLI_COMMANDS
from inproc import REFERENCE, WidthSweep, cli_main, config_id
from treeshift.transfer import strip_entropy_closed


def main() -> int:
    width_sweep = []
    for cfg in WidthSweep(0).base:
        results = [strip_entropy_closed(*cfg, n) for n in WidthSweep.WIDTHS]
        width_sweep.append([config_id(*cfg), [[r.method, r.value] for r in results]])
    cli = {}
    for name in CLI_COMMANDS:
        run = cli_main(name)
        if run["exit"] != 0:
            print(f"{name} exited {run['exit']}", file=sys.stderr)
            return 1
        cli[name] = run["stdout"]
    lines = ['{"cli": ' + json.dumps(cli, sort_keys=True) + ',', ' "width_sweep": [']
    lines.append(",\n".join(f"  {json.dumps(entry)}" for entry in width_sweep))
    lines.append("]}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(width_sweep)} width-sweep configs and {len(cli)} CLI outputs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
