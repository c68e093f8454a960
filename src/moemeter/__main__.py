"""``python -m moemeter`` and the installed ``moemeter`` script.

Both end through :func:`run`. It runs :func:`moemeter.cli.main`, flushes
stdout and stderr, and ends the process with ``os._exit``, skipping the
interpreter's teardown: module cleanup, freeing every object and numpy's
shutdown, about a tenth of a short command. Nothing is lost by that:
``main`` has closed every output file before it returns, and no moemeter
module nor numpy registers an ``atexit`` callback. The skipped finalizers
and ``atexit`` callbacks include a coverage tool's, so such a tool records
nothing from these processes.

A stdout that cannot take the printed paths (a closed pipe, say) ends the
process with status 120, Python's own for a stdout it cannot flush at exit,
after one line naming the error on stderr. ``PYTHONUNBUFFERED`` does not
change that: the paths fail either as ``main`` prints them or as they are
flushed here. An argparse usage error, ``--help`` and an interrupt leave
``main`` by an exception and exit normally. ``cli.main`` called as a library
returns its code and never ends the process.
"""

import os
import sys

from .cli import main


def run() -> None:
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without that descriptor
                stream.flush()
    except (OSError, ValueError) as exc:  # ValueError: the stream was closed
        try:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
        except (OSError, ValueError):
            pass
        code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
