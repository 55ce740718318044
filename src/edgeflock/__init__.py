"""Distributed streaming DNN inference for clusters of small devices.

The package covers the full path from model description to a running
cluster:

* ``model_ir``  - declarative feed-forward graphs with shape inference
  and builders for a two-stream action recognizer, AlexNet and VGG16.
* ``engine``    - deterministic float32 forward kernels; doubles as the
  single-process reference oracle and as each worker's compute core.
* ``costs``     - profiled latency / memory / load-time / communication /
  energy models that drive planning.
* ``planner``   - profiling-driven task assignment: memory-constrained
  grouping, reload minimization, and model- vs data-parallel splitting
  for every device count from 1 to n_max.
* ``runtime``   - executes an assignment as message-passing workers with
  sliding windows, bounded inboxes with backpressure, camera sampling
  and dynamic role reassignment.
* ``harness``   - verification against the reference oracle plus a
  simulated-latency benchmark harness.
"""

from edgeflock.model_ir import ModelGraph, LayerSpec, TensorShape, build_model, validate_graph
from edgeflock.engine import run_reference
from edgeflock.costs import DeviceProfile, CommModel, comm_latency
from edgeflock.planner import task_assign

__version__ = "0.1.0"

__all__ = [
    "ModelGraph",
    "LayerSpec",
    "TensorShape",
    "build_model",
    "validate_graph",
    "run_reference",
    "DeviceProfile",
    "CommModel",
    "comm_latency",
    "task_assign",
    "__version__",
]
