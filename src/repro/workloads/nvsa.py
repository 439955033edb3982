"""NVSA workload model (neuro-vector-symbolic architecture).

NVSA [Hersche et al., Nature MI 2023] solves Raven's Progressive Matrices:
a CNN front-end perceives every panel, VSA binding/unbinding plus a
factorization loop extract per-attribute beliefs, and a probabilistic rule
engine abducts the governing rules and executes them.  The paper's
characterisation (Sec. III) reports that the symbolic stage dominates
runtime (~87 % on GPU) while contributing only ~19 % of the FLOPs, and that
the symbolic codebook accounts for tens of MB — this builder produces a
kernel graph with exactly those properties.
"""

from __future__ import annotations

from repro.core.footprint import codebook_footprint, factorizer_footprint
from repro.errors import WorkloadError
from repro.neural.network import build_perception_backbone
from repro.workloads.base import Workload
from repro.workloads.builders import (
    circconv_kernel,
    elementwise_kernel,
    lower_perception,
    matvec_kernel,
    stamp_chain,
)

__all__ = ["build_nvsa_workload"]

#: per-attribute codebook sizes of the RAVEN-style grammar (type, size,
#: color, position), matching the factor structure of Sec. IV-A.  With
#: d = 1024 FP32 hypervectors the exhaustive product codebook is ~13.4 MB
#: and the factorized form ~165 KB, reproducing the Fig. 8 comparison
#: (13,560 KB -> 190 KB).
NVSA_FACTOR_SIZES = [6, 8, 10, 7]


def build_nvsa_workload(
    grid_size: int = 3,
    num_candidates: int = 8,
    vector_dim: int = 1024,
    factorization_iterations: int = 6,
    image_size: int = 80,
    num_tasks: int = 1,
    use_factorization: bool = True,
) -> Workload:
    """Build the NVSA kernel graph for one (or a batch of) reasoning task(s).

    Parameters
    ----------
    grid_size:
        RPM grid size (2 or 3); controls the number of context panels and
        scales the symbolic work, reproducing the Fig. 4c scalability sweep.
    num_candidates:
        Size of the answer set.
    vector_dim:
        VSA hypervector dimensionality (d = 1024 in the paper).
    factorization_iterations:
        Average factorizer iterations per query vector.
    num_tasks:
        Number of independent reasoning tasks in the batch; kernels of
        different tasks carry different ``task_id`` so schedulers may
        interleave them.
    use_factorization:
        When False, the symbolic search runs against the exhaustive product
        codebook (the pre-CogSys baseline), which inflates both traffic and
        the codebook footprint (Fig. 8 / Tab. X ablations).
    """
    if grid_size < 2:
        raise WorkloadError(f"grid_size must be >= 2, got {grid_size}")
    if num_tasks < 1:
        raise WorkloadError(f"num_tasks must be >= 1, got {num_tasks}")

    num_attributes = len(NVSA_FACTOR_SIZES)
    context_panels = grid_size * grid_size - 1
    num_panels = context_panels + num_candidates
    backbone = build_perception_backbone(
        name="nvsa_cnn",
        image_size=image_size,
        embedding_dim=vector_dim,
        width=32,
        num_blocks=4,
    )

    perception = lower_perception(
        backbone, input_shape=(1, image_size, image_size), num_panels=num_panels
    )
    kernels = []
    for task in range(num_tasks):
        prefix = f"task{task}"
        neural = stamp_chain(perception, f"{prefix}/neuro", task_id=task)
        kernels.extend(neural)
        last_neural = neural[-1].name

        # Symbolic stage: factorize every panel's query vector into its
        # attribute codevectors (unbind -> similarity search -> projection),
        # then abduct and execute rules over the attribute beliefs.
        if use_factorization:
            unbind_count = num_panels * num_attributes * factorization_iterations
            search_rows = sum(NVSA_FACTOR_SIZES)
        else:
            # Exhaustive search: one similarity pass over the full product
            # codebook per panel, no iterative unbinding.
            unbind_count = num_panels * num_attributes
            search_rows = 1
            for size in NVSA_FACTOR_SIZES:
                search_rows *= size

        binding = circconv_kernel(
            f"{prefix}/symb/unbind",
            vector_dim=vector_dim,
            count=unbind_count,
            launches=num_attributes * factorization_iterations,
            task_id=task,
            depends_on=(last_neural,),
        )
        kernels.append(binding)

        # With factorization the similarity search scans the small per-factor
        # codebooks every iteration; without it every panel's query (and its
        # per-attribute rule evaluations) must be matched against the full
        # product codebook, which is what blows up both traffic and latency.
        search = matvec_kernel(
            f"{prefix}/symb/similarity",
            rows=search_rows,
            cols=vector_dim,
            count=num_panels * factorization_iterations
            if use_factorization
            else num_panels * num_attributes,
            launches=factorization_iterations if use_factorization else num_attributes,
            task_id=task,
            depends_on=(binding.name,),
        )
        kernels.append(search)

        projection = matvec_kernel(
            f"{prefix}/symb/projection",
            rows=vector_dim,
            cols=sum(NVSA_FACTOR_SIZES),
            count=(num_panels * factorization_iterations) if use_factorization else num_panels,
            launches=factorization_iterations if use_factorization else 1,
            task_id=task,
            depends_on=(search.name,),
        )
        kernels.append(projection)

        rule_probability = elementwise_kernel(
            f"{prefix}/symb/rule_probabilities",
            elements=num_attributes * 8 * grid_size * grid_size * 64,
            ops_per_element=4,
            count=num_attributes * 8,
            task_id=task,
            depends_on=(projection.name,),
        )
        kernels.append(rule_probability)

        scoring = matvec_kernel(
            f"{prefix}/symb/candidate_scoring",
            rows=num_candidates,
            cols=vector_dim,
            count=num_attributes,
            task_id=task,
            depends_on=(rule_probability.name,),
        )
        kernels.append(scoring)

    if use_factorization:
        codebook_bytes = factorizer_footprint(NVSA_FACTOR_SIZES, vector_dim)
    else:
        codebook_bytes = codebook_footprint(NVSA_FACTOR_SIZES, vector_dim)
    weight_bytes = backbone.stats((1, image_size, image_size)).weight_bytes()

    return Workload(
        name="nvsa" if use_factorization else "nvsa_codebook",
        kernels=kernels,
        weight_bytes=weight_bytes,
        codebook_bytes=codebook_bytes,
        description=(
            "NVSA spatial-temporal abduction reasoning: CNN perception, VSA "
            "factorization, probabilistic rule abduction and execution."
        ),
    )
