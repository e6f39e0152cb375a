"""`python -m switchlp ...` runs the `switchlp` command from a checkout."""
from .cli import main
raise SystemExit(main())
