"""Run one clustersweep CLI stage with every public function traced.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID PARENT_SPAN STAGE_ARGS...

The stage's exit code is passed through; spans are written to SPANS_JSON
when the stage ends, whatever its outcome.
"""

import sys
import time
from pathlib import Path

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, run, parent, *stage_args = argv
    start = time.monotonic_ns()
    tracer = Tracer(run=run, stage=stage_args[0], parent=parent)
    from clustersweep import cli

    tracer.install()
    imported = time.monotonic_ns()
    try:
        return cli.main(stage_args)
    finally:
        tracer.spans.append({"id": f"{tracer.stage}.import", "name": "stage.import",
                             "parent": parent, "run": run, "thread": 0,
                             "start": start, "end": imported})
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
