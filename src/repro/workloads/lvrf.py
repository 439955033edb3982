"""LVRF workload model (probabilistic abduction via learned VSA rules).

LVRF [Hersche et al., NeurIPS 2023] performs visual abstract reasoning with
rules *learned* in the VSA space, which makes its symbolic stage even more
binding/unbinding intensive than NVSA (the paper quotes k = 2575 circular
convolutions per task at d = 1024) while keeping a comparable CNN front-end.
It also targets out-of-distribution generalisation, so candidate scoring
runs against a larger rule bank.
"""

from __future__ import annotations

from repro.core.footprint import factorizer_footprint
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

__all__ = ["build_lvrf_workload"]

#: attribute codebook sizes mirroring the NVSA grammar
LVRF_FACTOR_SIZES = [5, 6, 10, 9, 7]


def build_lvrf_workload(
    grid_size: int = 3,
    num_candidates: int = 8,
    vector_dim: int = 1024,
    num_learned_rules: int = 32,
    image_size: int = 80,
    num_tasks: int = 1,
) -> Workload:
    """Build the LVRF kernel graph for a batch of reasoning tasks."""
    if grid_size < 2:
        raise WorkloadError(f"grid_size must be >= 2, got {grid_size}")
    if num_tasks < 1:
        raise WorkloadError(f"num_tasks must be >= 1, got {num_tasks}")

    num_attributes = len(LVRF_FACTOR_SIZES)
    context_panels = grid_size * grid_size - 1
    num_panels = context_panels + num_candidates
    backbone = build_perception_backbone(
        name="lvrf_cnn",
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

        # Rule abduction in VSA space: bind context panels against every
        # learned rule template (this is where the large circular-convolution
        # count comes from), then score rules and candidates.
        rule_binding = circconv_kernel(
            f"{prefix}/symb/rule_binding",
            vector_dim=vector_dim,
            count=num_panels * num_attributes * num_learned_rules // 2,
            launches=num_attributes * num_learned_rules,
            task_id=task,
            depends_on=(last_neural,),
        )
        kernels.append(rule_binding)

        rule_scoring = matvec_kernel(
            f"{prefix}/symb/rule_scoring",
            rows=num_learned_rules,
            cols=vector_dim,
            count=num_panels * num_attributes,
            launches=num_attributes,
            task_id=task,
            depends_on=(rule_binding.name,),
        )
        kernels.append(rule_scoring)

        posterior = elementwise_kernel(
            f"{prefix}/symb/rule_posterior",
            elements=num_attributes * num_learned_rules * 128,
            ops_per_element=4,
            task_id=task,
            depends_on=(rule_scoring.name,),
        )
        kernels.append(posterior)

        execution = circconv_kernel(
            f"{prefix}/symb/rule_execution",
            vector_dim=vector_dim,
            count=num_candidates * num_attributes,
            launches=num_attributes,
            task_id=task,
            depends_on=(posterior.name,),
        )
        kernels.append(execution)

        scoring = matvec_kernel(
            f"{prefix}/symb/candidate_scoring",
            rows=num_candidates,
            cols=vector_dim,
            count=num_attributes,
            task_id=task,
            depends_on=(execution.name,),
        )
        kernels.append(scoring)

    weight_bytes = backbone.stats((1, image_size, image_size)).weight_bytes()
    codebook_bytes = (
        factorizer_footprint(LVRF_FACTOR_SIZES, vector_dim)
        + num_learned_rules * vector_dim * 4
    )

    return Workload(
        name="lvrf",
        kernels=kernels,
        weight_bytes=weight_bytes,
        codebook_bytes=codebook_bytes,
        description=(
            "LVRF probabilistic abduction with learned VSA rules: CNN "
            "perception, rule binding/unbinding, posterior computation and "
            "rule execution."
        ),
    )
