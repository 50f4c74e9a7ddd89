"""Accuracy prediction and sample-efficient search over cell-based architecture spaces.

The package is organized bottom-up:

- ``rng``        deterministic pseudo-random streams (version-stable)
- ``_kernels``   graph/rank kernels (inversion counts, DAG path statistics)
- ``cellgraph``  cell DAG containers and invariants
- ``benchmark``  synthetic space generation plus tabular benchmark ingest/export
- ``encodings``  structural, score, and unified architecture encodings
- ``autodiff``   minimal reverse-mode differentiation over float64 arrays
- ``predictor``  dense graph flow / graph attention ensemble predictor
- ``training``   hinge ranking loss, fitting, transfer, checkpoints
- ``metrics``    rank correlation measures
- ``nas_search`` iterative-sampling search loop
- ``cli``        command line entry points
"""

__version__ = "0.1.0"
