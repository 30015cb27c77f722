"""`ddquant.cli.main` in a fresh process, with or without the tracer.

    python3 bench/tracechild.py <trace-file | -> <ddquant arguments...>

Used by the traced run of the cli-cold workload for both of its passes, so
that the untraced and the traced jobs start the same program.  With a
trace file the benchmark's tracer is installed and the job's counts, self
times and spans are written there for the worker to merge; with `-` the
job runs untraced.
"""

import json
import sys

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ddquant.cli

    if out == tracing.UNTRACED:
        return ddquant.cli.main(argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = ddquant.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
