"""`python -m catlog`: the same command line as the `catlog` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
