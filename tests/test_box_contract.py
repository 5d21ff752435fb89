"""The box contract: public functions against independent oracles at
300 points log-uniform over the parameter box [e^-4.5, e^4.5]^4.

The design is the one ``TestBoxSweep`` uses, ``default_rng(0)``.  A
function joins with its oracle and tolerance once it is measured to
hold over the whole box.
"""

import numpy as np
import pytest

from bgedist import BGE
from bgedist.inference import information_matrix

from conftest import latent_score_information


@pytest.fixture(scope="module")
def box():
    rng = np.random.default_rng(0)
    return [BGE(*map(float, p)) for p in np.exp(rng.uniform(-4.5, 4.5, size=(300, 4)))]


def test_information_matrix_matches_latent_score_oracle(box):
    # every entry within 1e-6 of K = E[s s^T], relative to sqrt(K_ii K_jj)
    for d in box:
        want = latent_score_information(d)
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        err = np.abs(information_matrix(d).matrix - want) / scale
        assert err.max() <= 1e-6, (d, err.max())
