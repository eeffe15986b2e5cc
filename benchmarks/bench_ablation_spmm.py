"""Section 4.2.2 ablation: sparse-kernel crossover.

Paper: Sputnik outperforms cuSPARSE at every deep-learning sparsity
level and overtakes dense (cuBLAS) around 75% sparsity; cuSPARSE only
pays off at extreme (>99%) sparsity.
"""

from __future__ import annotations

from repro.experiments import ascii_table
from repro.sparse import cusparse_cost_model, sputnik_cost_model
from repro.sparse.kernels import crossover_sparsity, dense_time


def _model_rows():
    f = 1e12
    rows = []
    for s in (0.0, 0.5, 0.75, 0.9, 0.95, 0.99):
        rows.append(
            {
                "sparsity": s,
                "dense_ms": dense_time(f) * 1e3,
                "sputnik_ms": sputnik_cost_model().time(f, s) * 1e3,
                "cusparse_ms": cusparse_cost_model().time(f, s) * 1e3,
            }
        )
    return rows


def test_spmm_crossover_table(once):
    rows = once(_model_rows)
    print()
    print(ascii_table(rows, title="SpMM kernel model (1 TFLOP matmul)"))
    x = crossover_sparsity()
    print(f"sputnik/dense crossover at sparsity = {x:.3f} (paper: ~0.75)")
    assert 0.70 <= x <= 0.80
    for row in rows:
        if 0 < row["sparsity"] <= 0.95:
            assert row["sputnik_ms"] < row["cusparse_ms"]

