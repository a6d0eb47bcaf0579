"""Traced CLI process: ``python cli_child.py SPANS_OUT SRC -- <cli args>``.

Times the import of ``padicradial.cli``, wraps the library's public
functions, runs ``cli.main`` on the remaining arguments and writes the
spans to ``SPANS_OUT`` before exiting with the CLI's own exit status (an
uncaught exception still prints its traceback and exits 1, as the plain
``python -m padicradial.cli`` does).
"""

import sys
import time


def main() -> int:
    spans_out, src, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_OUT SRC -- <cli args>")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import padicradial.cli as cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_out, import_s=import_s, main_s=time.perf_counter() - t1)


if __name__ == "__main__":
    sys.exit(main())
