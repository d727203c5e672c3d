"""Sparse CNN inference accelerator model: exact functional simulation of
the compressed Cartesian-product dataflow, cycle-level PE array timing,
dense baselines, and an analytical cycle and energy model.

Import the submodules; the package root re-exports nothing. numpy is
imported only by the cycle-level engine's modules (`tensors`, `codec`,
`simulator`) and inside the sim-engine functions of `workloads`. `dataflow`,
`analytic`, `workloads` and `cli` import no numpy at module level, so an
analytic `run` or `sweep-density` loads neither numpy nor those modules.
"""

__version__ = "0.1.0"
