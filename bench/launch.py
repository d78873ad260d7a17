"""Run one `dualpairs` command with span tracing.

    python3 bench/launch.py TRACE.npz <dualpairs arguments>

installs the wrappers of ``tracing.Tracer`` before calling
``dualpairs.cli.main`` and writes the spans to TRACE.npz when the command
ends; the exit status is the command's own.
"""

import sys

from tracing import ROOT, Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import dualpairs.cli
    try:
        return tracer.span(ROOT, dualpairs.cli.main, argv)
    finally:
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main())
