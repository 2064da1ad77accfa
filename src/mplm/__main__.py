"""``python -m mplm``: the ``mplm`` command."""

from .cli import main_entry

main_entry()
