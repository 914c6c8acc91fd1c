"""Feed-forward network training with the rprop family under dropout.

The package trains multilayer perceptrons three ways (sgd, classic
rprop, and a dropout-aware rprop whose update rule distinguishes muted
weights from genuine zero gradients), builds bagging and stacking
ensembles over them, reads and writes the IDX image format, and ships
an experiment harness with seeded deterministic runs, CSV metrics and
exact small-sample Wilcoxon comparisons.
"""

__version__ = "0.1.0"
