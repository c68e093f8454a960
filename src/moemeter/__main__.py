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
flushed here. A stderr that cannot take its lines changes no status: a run
that failed validation still exits 2. An argparse usage error, ``--help``
and an interrupt leave ``main`` by an exception and exit normally.
``cli.main`` called as a library returns its code and never ends the
process.
"""

import os
import sys

from .cli import main


def run() -> None:
    note = ""
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started without descriptor 1
            sys.stdout.flush()
    except (OSError, ValueError) as exc:  # ValueError: the stream was closed
        code, note = 120, f"{type(exc).__name__}: {exc}\n"
    try:
        if sys.stderr is not None:
            sys.stderr.write(note)
            sys.stderr.flush()
    except (OSError, ValueError):
        pass  # a stderr that cannot be written leaves the code as it is
    os._exit(code)


if __name__ == "__main__":
    run()
