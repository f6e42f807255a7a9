"""Set-up probe child: import ``repro``, open one session, report ready.

The parent times this process from spawn to the ``ready`` line; that
interval is what a user pays before the first ``ingest`` of an
in-process session.  Run as ``python3 ready.py SPEC WINDOW`` with
``src`` on ``PYTHONPATH`` (``WINDOW`` 0 opens a volatile session
without a window).
"""

import sys

from repro import open_session


def main() -> None:
    spec, window = sys.argv[1], int(sys.argv[2])
    session = open_session(spec, window=window or None)
    print("ready", flush=True)
    session.close()


if __name__ == "__main__":
    main()
