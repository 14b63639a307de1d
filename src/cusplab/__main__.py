"""``python -m cusplab ARGS`` runs the cusplab command line."""
from .cli import main

if __name__ == "__main__":
    main()
