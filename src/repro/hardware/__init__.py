"""Hardware models: the CogSys accelerator and baseline devices.

The paper evaluates CogSys with a cycle-accurate simulator plus a TSMC 28 nm
silicon flow; this subpackage reimplements the performance side of that
stack in Python:

* :mod:`repro.hardware.config` — accelerator configuration (array
  organisation, SRAM sizes, frequency, precision).
* :mod:`repro.hardware.pe` — the reconfigurable neuro/symbolic processing
  element (nsPE) and its per-precision area/power characteristics.
* :mod:`repro.hardware.systolic` — systolic-array GEMM cycle model and the
  GEMV lowering of circular convolution used by TPU-like baselines.
* :mod:`repro.hardware.bubble_stream` — the bubble-streaming (BS) dataflow:
  latency formulas plus a functional cycle-level simulator.
* :mod:`repro.hardware.mapping` — spatial/temporal (ST) mapping of circular
  convolutions onto the array, with the adaptive selection rule.
* :mod:`repro.hardware.scaling` — scale-up / scale-out array organisation.
* :mod:`repro.hardware.simd` — the custom SIMD unit for element-wise ops.
* :mod:`repro.hardware.memory` — double-buffered SRAM and DRAM model.
* :mod:`repro.hardware.energy` — area, power and energy accounting.
* :mod:`repro.hardware.roofline` — roofline analysis utilities.
* :mod:`repro.hardware.baselines` — CPU/GPU/edge-SoC and ML-accelerator
  (TPU/MTIA/Gemmini-like) device models.
* :mod:`repro.hardware.accelerator` — the CogSys accelerator model that ties
  everything together.

These are per-kernel models only.  Whole workloads run through the unified
backend protocol: resolve a model by name via
:func:`repro.backends.get_backend` and call ``execute``.
"""

from repro.hardware.config import CogSysConfig
from repro.hardware.pe import PEMode, ReconfigurablePE
from repro.hardware.systolic import SystolicArrayModel
from repro.hardware.bubble_stream import (
    BubbleStreamSimulator,
    bs_latency_cycles,
)
from repro.hardware.mapping import MappingDecision, MappingMode, choose_mapping
from repro.hardware.scaling import ArrayOrganization, choose_organization
from repro.hardware.simd import SIMDUnit
from repro.hardware.memory import MemorySystem
from repro.hardware.energy import AreaPowerModel, Precision
from repro.hardware.roofline import Roofline, RooflinePoint
from repro.hardware.baselines import (
    DEVICE_SPECS,
    DeviceModel,
    GenericDevice,
    SystolicAcceleratorDevice,
)
from repro.hardware.accelerator import CogSysAccelerator

__all__ = [
    "CogSysConfig",
    "PEMode",
    "ReconfigurablePE",
    "SystolicArrayModel",
    "BubbleStreamSimulator",
    "bs_latency_cycles",
    "MappingDecision",
    "MappingMode",
    "choose_mapping",
    "ArrayOrganization",
    "choose_organization",
    "SIMDUnit",
    "MemorySystem",
    "AreaPowerModel",
    "Precision",
    "Roofline",
    "RooflinePoint",
    "DEVICE_SPECS",
    "DeviceModel",
    "GenericDevice",
    "SystolicAcceleratorDevice",
    "CogSysAccelerator",
]
