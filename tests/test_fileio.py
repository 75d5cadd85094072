import os
import stat

import numpy as np
import pytest

from tmlab import autodiff as ad
from tmlab.corpus import corpus_from_pairs
from tmlab.retrieval import build_index, save_index


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_open_would_give(tmp_path, umask):
    old = os.umask(umask)
    try:
        save_index(build_index(corpus_from_pairs([(["a"], ["x"])])), tmp_path / "tm.idx")
        ad.save_arrays(tmp_path / "m.tmlab", {"w": np.zeros(2, dtype=np.float32)}, {})
    finally:
        os.umask(old)
    for name in ("tm.idx", "m.tmlab"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask
