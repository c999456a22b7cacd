"""flens: fairness auditing and debiasing for precomputed embedding spaces.

The interface is the ``flens`` command line (``flens.cli``).
"""

__version__ = "0.1.0"
