import os
import sys

from .cli import main


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and end the process with its exit code.

    Every file is closed and every report flushed by the time ``main`` returns,
    so after one last flush of both streams the process ends with ``os._exit``:
    it skips the interpreter's teardown (tens of milliseconds once numpy is
    loaded), and ``atexit`` hooks do not run.  An exception that escapes
    ``main`` takes the normal exit and prints its traceback.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
