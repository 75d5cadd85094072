import json
import os
import sys
from pathlib import Path

# golden outputs are bitwise only at the BLAS thread count golden.json
# records, and OpenBLAS reads it once, when numpy loads
if "numpy" not in sys.modules:
    facts = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))
    os.environ["OPENBLAS_NUM_THREADS"] = facts["machine"]["blas_threads"]

from hypothesis import settings

# property tests share time with real training runs; wall-clock deadlines
# only add flakiness there
settings.register_profile("tmlab", deadline=None)
settings.load_profile("tmlab")
