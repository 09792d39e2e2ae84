"""Error localization via code granularity (paper Section VI).

The paper's future-work direction: "applying our models at different code
granularities by extracting the code into different compilation units.
Whether or not an error is detected across the different compilation
units can serve as a guideline for the exact error location."

Two granularities are implemented:

* **Function level** (:func:`localize_error`) — each function is
  re-embedded as if it were its own compilation unit and scored by a
  trained binary IR2vec model; functions whose isolated prediction flips
  to Incorrect are reported as suspects, ranked by how much removing them
  moves the whole-module verdict.
* **Call-site level** (:func:`localize_call_sites`) — occlusion analysis
  over individual MPI call instructions: each call's contribution is
  subtracted from the module embedding and the prediction re-read; calls
  whose removal flips the verdict toward Correct are the likely culprits.
  (Boilerplate calls — Init/Finalize/Comm_rank/Comm_size — are skipped:
  removing them always perturbs the embedding but never explains a bug.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.embeddings.ir2vec import IR2VecEncoder, default_encoder
from repro.frontend import compile_c
from repro.ir.instructions import CallInst
from repro.ir.module import Function, Module
from repro.models.ir2vec_model import IR2vecModel


@dataclass
class SuspectFunction:
    name: str
    isolated_verdict: str          # prediction when embedded alone
    influence: float               # feature-space shift when removed
    rank: int = 0


def _single_function_vector(encoder: IR2VecEncoder, module: Module,
                            target: Function) -> np.ndarray:
    """Embed one function as its own compilation unit."""
    base = encoder._instruction_vectors(module)
    flow = encoder._propagate(module, dict(base))
    sym = np.zeros(encoder.dim)
    flw = np.zeros(encoder.dim)
    for block in target.blocks:
        for inst in block.instructions:
            sym += base[id(inst)]
            flw += flow[id(inst)]
    return np.concatenate([sym, flw])


def _module_vector_without(encoder: IR2VecEncoder, module: Module,
                           excluded: Function) -> np.ndarray:
    base = encoder._instruction_vectors(module)
    flow = encoder._propagate(module, dict(base))
    sym = np.zeros(encoder.dim)
    flw = np.zeros(encoder.dim)
    for fn in module.defined_functions():
        if fn is excluded:
            continue
        for block in fn.blocks:
            for inst in block.instructions:
                sym += base[id(inst)]
                flw += flow[id(inst)]
    return np.concatenate([sym, flw])


def localize_error(source: str, model: IR2vecModel, *,
                   opt_level: str = "Os", name: str = "input.c",
                   encoder: Optional[IR2VecEncoder] = None,
                   ) -> List[SuspectFunction]:
    """Rank functions of ``source`` by suspicion under a trained model.

    Returns suspects sorted most-suspicious-first.  A function is
    suspicious if (a) its isolated embedding is classified Incorrect, or
    (b) removing it moves the module embedding furthest toward the
    model's Correct region.  ``encoder`` (both localizers) replaces the
    default seed table, e.g. with the one a loaded artifact carries.
    """
    module = compile_c(source, name, opt_level, verify=False)
    encoder = encoder or default_encoder()
    functions = module.defined_functions()
    if not functions:
        return []

    whole = encoder.encode(module)
    whole_pred = str(model.predict(whole[None, :])[0])

    suspects: List[SuspectFunction] = []
    for fn in functions:
        vec = _single_function_vector(encoder, module, fn)
        verdict = str(model.predict(vec[None, :])[0])
        without = _module_vector_without(encoder, module, fn)
        without_pred = str(model.predict(without[None, :])[0])
        # Influence: removing the function flips the module verdict, or at
        # minimum shifts the embedding; normalize shift by module norm.
        shift = float(np.linalg.norm(whole - without)
                      / (np.linalg.norm(whole) + 1e-12))
        flips = whole_pred != "Correct" and without_pred == "Correct"
        influence = shift + (1.0 if flips else 0.0)
        suspects.append(SuspectFunction(fn.name, verdict, influence))

    suspects.sort(key=lambda s: (s.isolated_verdict != "Incorrect",
                                 -s.influence))
    for i, s in enumerate(suspects):
        s.rank = i + 1
    return suspects


# ---------------------------------------------------------------------------
# Call-site granularity
# ---------------------------------------------------------------------------

#: MPI calls every benchmark contains; their occlusion signal is noise.
_BOILERPLATE = frozenset({
    "MPI_Init", "MPI_Init_thread", "MPI_Finalize",
    "MPI_Comm_rank", "MPI_Comm_size",
})


@dataclass
class SuspectCallSite:
    """One MPI call instruction, scored by occlusion."""

    function: str                  # enclosing function name
    callee: str                    # e.g. 'MPI_Recv'
    index: int                     # n-th MPI call of the module (source order)
    influence: float               # embedding shift when occluded
    flips_to_correct: bool         # occlusion flips the module verdict
    rank: int = 0

    def __str__(self) -> str:  # pragma: no cover - display aid
        marker = " <-- verdict flips" if self.flips_to_correct else ""
        return (f"#{self.rank} {self.callee} (call {self.index}, "
                f"in {self.function}) influence={self.influence:.3f}{marker}")


def localize_call_sites(source: str, model: IR2vecModel, *,
                        opt_level: str = "Os", name: str = "input.c",
                        top: Optional[int] = None,
                        encoder: Optional[IR2VecEncoder] = None,
                        ) -> List[SuspectCallSite]:
    """Rank MPI call sites of ``source`` by occlusion influence.

    For each non-boilerplate MPI call instruction, its symbolic and
    flow-aware contributions are subtracted from the module embedding
    (occlusion approximation: neighbours' flow terms are left in place)
    and the model re-queried.  A call whose removal flips an Incorrect
    verdict to Correct is the strongest kind of evidence the paper's
    granularity idea can produce.
    """
    module = compile_c(source, name, opt_level, verify=False)
    encoder = encoder or default_encoder()
    base = encoder._instruction_vectors(module)
    flow = encoder._propagate(module, dict(base))

    whole = encoder.encode(module)
    whole_pred = str(model.predict(whole[None, :])[0])
    whole_norm = float(np.linalg.norm(whole)) + 1e-12

    suspects: List[SuspectCallSite] = []
    call_index = 0
    for fn in module.defined_functions():
        for block in fn.blocks:
            for inst in block.instructions:
                if not isinstance(inst, CallInst):
                    continue
                callee = inst.callee_name
                if not callee.startswith("MPI_"):
                    continue
                call_index += 1
                if callee in _BOILERPLATE:
                    continue
                occluded = whole - np.concatenate(
                    [base[id(inst)], flow[id(inst)]])
                pred = str(model.predict(occluded[None, :])[0])
                flips = whole_pred == "Incorrect" and pred == "Correct"
                shift = float(np.linalg.norm(whole - occluded)) / whole_norm
                suspects.append(SuspectCallSite(
                    function=fn.name, callee=callee, index=call_index,
                    influence=shift + (1.0 if flips else 0.0),
                    flips_to_correct=flips))

    suspects.sort(key=lambda s: (not s.flips_to_correct, -s.influence))
    for i, s in enumerate(suspects):
        s.rank = i + 1
    return suspects[:top] if top is not None else suspects
