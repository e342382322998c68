"""Desk-scale playground for parameter-free adaptive vision-language fusion.

The package builds up from a tiny float64 tensor layer to a frozen toy
decoder LM whose blocks receive visual information through a projection-free
cross-attention branch, plus the experiment harness (cost model, ablation
grids, drop-mask heatmaps) used to study that branch.
"""

__version__ = "0.1.0"
