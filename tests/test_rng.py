from __future__ import annotations

import hashlib

import numpy as np
import pytest

from lochroma.rng import box_muller, normals, substream


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


class TestNormals:
    @pytest.mark.parametrize(
        "size, digest",
        [((2, 3), "d6d18005c8497aae"), (5, "e58cf71e32933729"), (np.int64(5), "e58cf71e32933729")],
    )
    def test_pinned_stream(self, size, digest):
        # Every seeded stage reads its Gaussians through normals; these bytes
        # must not move with the implementation or the numpy version.
        assert _digest(normals(substream(0, "pin"), size)) == digest

    def test_shape(self):
        assert normals(substream(1, "shape"), (4, 2)).shape == (4, 2)
        assert normals(substream(1, "shape"), 7).shape == (7,)

    def test_rows_of_a_batch_equal_single_draws(self):
        # Box-Muller is elementwise: stacking the uniforms of several streams
        # and transforming once gives each stream's own normals.
        dim, rows = 9, 13
        u1, u2 = np.empty((rows, dim)), np.empty((rows, dim))
        for i in range(rows):
            rng = substream(2, f"row:{i}")
            u1[i], u2[i] = rng.random(dim), rng.random(dim)
        batch = box_muller(u1, u2)
        for i in range(rows):
            assert np.array_equal(batch[i], normals(substream(2, f"row:{i}"), dim))


class TestAdvance:
    @pytest.mark.parametrize("k", [0, 1, 25, 2 * 13 * 300])
    def test_advance_skips_k_uniforms(self, k):
        # Threshold rounding reads draw i at a fixed offset of one stream by
        # advancing the generator; this must equal reading past the offset.
        j = 11
        rng = substream(3, "advance")
        rng.bit_generator.advance(k)
        assert np.array_equal(rng.random(j), substream(3, "advance").random(k + j)[k:])
