import sys
from pathlib import Path

# the benchmark's modules import each other by plain name, as when run.py runs
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
