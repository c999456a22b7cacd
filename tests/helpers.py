"""Small helpers shared by the test modules."""

import json
from pathlib import Path

import numpy as np

from flens.cli import main
from flens.core import EmbeddingMatrix, row_norms
from flens.io import write_embeddings, write_label_table
from flens.tasks import score_blocks


def read_report(path):
    """A report file parsed back into a dict."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def train_rows(dataset):
    """A synthetic dataset's train-split embeddings and protected labels, as a fit takes them."""
    rows = np.flatnonzero(dataset.train_mask)
    return dataset.embeddings.values[rows], dataset.protected.take(rows)


def run_debias_fit(directory, values, labels, method, params):
    """Exit code of ``debias-fit`` with ``method``'s ``params`` over these train rows.

    Every row of ``values`` is written as a train item whose protected group is
    the matching entry of ``labels``.
    """
    directory = Path(directory)
    write_embeddings(EmbeddingMatrix(np.asarray(values, dtype=float)), directory / "fit.femb")
    write_label_table(
        directory / "fit.csv",
        {"group": [str(int(g)) for g in labels], "split": ["train"] * len(labels)},
    )
    cfg = directory / "fit.json"
    cfg.write_text(json.dumps({
        "data": {"embeddings": str(directory / "fit.femb"), "labels": str(directory / "fit.csv"),
                 "attribute": "group"},
        "method": method,
        method: params,
        "transform_out": str(directory / "fit.ftfm"),
    }))
    return main(["debias-fit", "--config", str(cfg)])


def cosine_similarity_matrix(items, queries):
    """q x n matrix of cosine similarities; entry (j, i) pairs query j with item i.

    Scored by score_blocks, with the items as one block.
    """
    return score_blocks((queries, row_norms(queries)), [(items, row_norms(items))], len(items))


def write_embeddings_text(matrix, path):
    """Comma-separated twin of the binary format, one row per item.

    Takes an EmbeddingMatrix, as write_embeddings does. Values are rendered
    with enough digits to round-trip float32 exactly.
    """
    as_f32 = matrix.values.astype(np.float32)
    lines = [",".join(format(float(v), ".9g") for v in row) for row in as_f32]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
