"""``python -m flens``: the same entry point as the ``flens`` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
