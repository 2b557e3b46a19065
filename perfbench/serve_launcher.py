"""Run ``repro.cli`` in a process the benchmark can observe.

Usage: ``python serve_launcher.py --report OUT.json --trace 0|1 -- serve ...``

With ``--trace 1`` the span wrappers are installed in this process before
the CLI starts, so the server's handlers, store, journal and worker are
traced.  When the CLI returns (SIGTERM triggers its graceful drain), the
launcher writes a JSON report: the simulation path the process took, its
peak resident memory and, when traced, its span aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import spans


def server_role(thread_name: str) -> str:
    if thread_name.startswith("asyncio"):
        return "handler"  # the event loop's executor runs the request handlers
    if thread_name == "repro-sim-worker":
        return "worker"
    return "server"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder(role_of=server_role)
        spans.install(recorder)

    from repro import cli
    from repro.sim.engine import arena_batching_available

    code = cli.main(cli_args)
    report = {
        "exit_code": code,
        "path": "native-arena" if arena_batching_available() else "numpy-fallback",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.export() if recorder is not None else None,
    }
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
