"""``python -m extendix``: the command-line interface."""

from .cli import main_entry

main_entry()
