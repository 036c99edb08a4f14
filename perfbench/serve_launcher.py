"""``repro serve`` with the layer tracer installed; spans are dumped on drain.

    python3 perfbench/serve_launcher.py --trace-out SPANS.json -- SERVE-ARGS...

Installs the wrappers from ``tracer.py``, then calls the CLI's ``serve``
entry with ``SERVE-ARGS``.  When the server drains (SIGINT/SIGTERM) and the
entry returns, the recorded spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import argparse

import common  # noqa: F401  (pins the BLAS before NumPy loads)
from tracer import Tracer, install_layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    tracer = Tracer()
    install_layers(tracer)
    from repro.cli import main_serve

    try:
        return main_serve(serve_args)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
