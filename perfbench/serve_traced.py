"""Start ``repro.serve`` with the benchmark's span wrappers installed.

Same flags as ``python -m repro.serve``, plus ``--spans FILE``: the
wrappers go in before the server builds its ``PartitionServer``, and the
spans are written to ``FILE`` (Chrome trace events) when it exits::

    python perfbench/serve_traced.py --spans spans.json --port 0
"""

from __future__ import annotations

import sys

import benchenv


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans FILE [repro.serve flags]", file=sys.stderr)
        return 2
    span_path, server_args = argv[1], argv[2:]
    benchenv.prepare_process()
    import spans

    spans.install_serve()
    from repro.serve import server

    try:
        return server.main(server_args)
    finally:
        spans.RECORDER.dump(span_path)


if __name__ == "__main__":
    raise SystemExit(main())
