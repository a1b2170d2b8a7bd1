import gc
import sys

from .cli import main


def run() -> int:
    """The ``rowstream`` command: :func:`main` with the heap that imports
    left frozen, so that no collection walks it again, neither during the
    run, in a forked worker, nor when the interpreter exits.  The imports'
    cyclic garbage is collected first, or freezing would keep it."""
    gc.collect()
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
