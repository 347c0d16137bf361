"""``python -m spr``: the ``spr`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
