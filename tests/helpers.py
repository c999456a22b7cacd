"""Small helpers shared by the test modules."""

import json

import numpy as np


def read_report(path):
    """A report file parsed back into a dict."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def train_rows(dataset):
    """A synthetic dataset's train-split embeddings and protected labels, as a fit takes them."""
    rows = np.flatnonzero(dataset.train_mask)
    return dataset.embeddings.take(rows), dataset.protected.take(rows)
