"""Deterministic numpy mini-framework for the functional training plane.

The paper trains supernets with PyTorch on CUDA; reproducibility there
hinges on deterministic kernels plus a deterministic read/write interleaving
over shared layer parameters.  This package supplies the same contract on a
laptop: float32 tensors, manual backprop, a versioned
:class:`~repro.nn.parameter_store.ParameterStore` that logs every parameter
READ and WRITE (the raw material for the paper's Table 4), and SGD
optimisers whose updates are bit-stable.

Public surface:

* :class:`ParameterStore` / :class:`AccessRecord` — shared supernet weights.
* :mod:`repro.nn.layers` — the candidate-layer zoo with forward/backward.
* :class:`SubnetSegmentProgram` — forward/backward over a slice of a subnet
  (one pipeline stage's worth of layers).
* :mod:`repro.nn.optim` — plain and momentum SGD.
* :mod:`repro.nn.loss` — cross entropy with logits.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports(globals(), {
    "repro.nn.parameter_store": ("AccessKind", "AccessRecord", "ParameterStore"),
    "repro.nn.layers": (
        "LAYER_IMPLEMENTATIONS", "LayerImplementation", "build_parameters",
        "layer_forward", "layer_backward",
    ),
    "repro.nn.program": ("SubnetSegmentProgram", "StageActivation"),
    "repro.nn.loss": ("cross_entropy_with_logits",),
    "repro.nn.optim": ("SGD", "MomentumSGD"),
})
