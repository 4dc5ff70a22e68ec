import os
import sys

from .cli import main


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and end the process with its exit code.

    Before ``main`` can load numpy, OpenBLAS's idle workers are told to sleep at
    once, not to busy-wait about 0.1 s for work no genfields call gives them (4
    is OpenBLAS's minimum; a timeout the user exported is kept).

    Every file is closed and every report flushed by the time ``main`` returns,
    so after one last flush of both streams the process ends with ``os._exit``:
    it skips the interpreter's teardown (tens of milliseconds once numpy is
    loaded), and ``atexit`` hooks do not run.  An exception that escapes
    ``main`` takes the normal exit and prints its traceback.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
