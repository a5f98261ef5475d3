"""``python3 -m sgc``: the command line of ``sgc.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
