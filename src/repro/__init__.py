"""FACTOR reproduction: hierarchical functional test generation and
testability analysis (Vedula & Abraham, DATE 2002).

Public API highlights:

- :class:`repro.core.Factor` — parse a design, extract constraints for a
  module under test, build the transformed module, run testability analysis
  and generate tests,
- :mod:`repro.verilog` — Verilog frontend,
- :mod:`repro.synth` — synthesis substrate (elaboration + optimization),
- :mod:`repro.atpg` — sequential ATPG and fault simulation substrate,
- :mod:`repro.designs` — the ARM-2-like benchmark processor.
"""

from repro.core.factor import Factor, FactorResult
from repro.core.extractor import ExtractionMode, MutSpec

__version__ = "1.6.0"

__all__ = ["Factor", "FactorResult", "ExtractionMode", "MutSpec",
           "__version__"]
