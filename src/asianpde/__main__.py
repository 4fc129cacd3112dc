"""``python -m asianpde``: the command line of :mod:`asianpde.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
