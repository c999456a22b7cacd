"""Small helpers shared by the test modules."""

import json


def read_report(path):
    """A report file parsed back into a dict."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
