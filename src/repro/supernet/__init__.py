"""Supernet model: search spaces, choice blocks, subnets, sampling.

A supernet (paper §3 preliminaries) is a sequence of ``m`` choice blocks,
each holding ``n`` candidate layers; a subnet picks one candidate per
block.  This package provides:

* :mod:`repro.supernet.catalog` — the candidate-layer type catalog with the
  paper's measured per-layer compute/swap profiles (Table 5);
* :class:`SearchSpace` and the Table 1 registry (NLP.c0-c3, CV.c1-c3);
* :class:`Supernet` — profile and parameter bookkeeping over a space;
* :class:`Subnet` — one sampled architecture with dependency helpers;
* :class:`SposSampler` — uniform per-block sampling (SPOS), the stream
  producer the runtime consumes.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.supernet.catalog": (
        "LayerTypeProfile", "NLP_LAYER_TYPES", "CV_LAYER_TYPES", "catalog_for_domain",
    ),
    "repro.supernet.search_space": (
        "SearchSpace", "SEARCH_SPACES", "get_search_space", "list_search_spaces",
    ),
    "repro.supernet.subnet": ("Subnet",),
    "repro.supernet.supernet": ("LayerProfile", "Supernet"),
    "repro.supernet.sampler": ("SposSampler", "SubnetStream"),
})
