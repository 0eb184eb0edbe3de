"""`python -m polyillum`: the command-line interface of `polyillum.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
