"""``python -m moemeter`` and the installed ``moemeter`` script.

Both end through :func:`run`. It runs :func:`moemeter.cli.main`, flushes
stdout and stderr, and ends the process with ``os._exit``, skipping the
interpreter's teardown: module cleanup, freeing every object and numpy's
shutdown, about a tenth of a short command. Nothing is lost by that:
``main`` has closed every output file before it returns, and no moemeter
module nor numpy registers an ``atexit`` callback. The skipped finalizers
and ``atexit`` callbacks include a coverage tool's, so such a tool records
nothing from these processes.

A flush that fails (a closed stdout, say) ends through the normal exit
instead, so the message and the status are Python's own, as before. An
argparse usage error, ``--help`` and an interrupt leave ``main`` by an
exception and exit normally too. ``cli.main`` called as a library returns
its code and never ends the process.
"""

import os
import sys

from .cli import main


def run() -> None:
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without that descriptor
                stream.flush()
    except (OSError, ValueError):  # ValueError: the stream was closed
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
