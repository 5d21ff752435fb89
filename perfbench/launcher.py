"""Run one ``bgedist.cli`` command under the benchmark's instrumentation.

    python perfbench/launcher.py --record OUT.json [--spans OUT.npz] -- CLI ARGS...

Installs the count-only hooks before bgedist is imported, optionally the
span wrappers, then calls ``bgedist.cli.main`` with the given arguments.
The command's own output goes to stdout and its exit code is returned
unchanged; the counts go to the ``--record`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    tracer.install_count_hooks()
    from scipy.integrate import IntegrationWarning

    import bgedist.cli

    if args.spans:
        tracer.install_spans()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        code = bgedist.cli.main(argv)
    sys.stdout.flush()
    integration = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    if args.spans:
        tracer.save(args.spans)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump({"counts": dict(tracer.counts), "warnings": {"integration": integration}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
