"""MIMONet workload model (multiple-input multiple-output networks).

MIMONet [Menet et al., NeurIPS 2023] binds several inputs into one
superposed representation with VSA binding, pushes the superposition through
a single CNN/Transformer, and unbinds the per-input results.  Its kernel mix
is therefore neural-heavy (the paper's Fig. 4a attributes >90 % of runtime
to the neural stage) with comparatively few, *low-dimensional* circular
convolutions — which is why the scale-out array organisation wins for this
workload (Sec. V-E).
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.base import Stage, Workload
from repro.workloads.builders import (
    circconv_kernel,
    elementwise_kernel,
    gemm_kernel,
    lower_perception,
    stamp_chain,
)
from repro.neural.network import build_perception_backbone

__all__ = ["build_mimonet_workload"]


def build_mimonet_workload(
    num_inputs: int = 4,
    sequence_length: int = 256,
    embedding_dim: int = 512,
    num_transformer_layers: int = 4,
    binding_dim: int = 64,
    image_size: int = 32,
    num_tasks: int = 1,
) -> Workload:
    """Build the MIMONet kernel graph.

    Parameters
    ----------
    num_inputs:
        How many inputs are processed in superposition per pass.
    sequence_length / embedding_dim / num_transformer_layers:
        Transformer trunk dimensions (LRA-style workloads).
    binding_dim:
        Dimensionality of the VSA binding keys (d = 64 in the paper's
        scale-out discussion).
    """
    if num_inputs < 1:
        raise WorkloadError(f"num_inputs must be >= 1, got {num_inputs}")
    if num_tasks < 1:
        raise WorkloadError(f"num_tasks must be >= 1, got {num_tasks}")

    backbone = build_perception_backbone(
        name="mimo_cnn",
        image_size=image_size,
        embedding_dim=embedding_dim,
        width=16,
        num_blocks=2,
    )

    tokenizer = lower_perception(
        backbone, input_shape=(1, image_size, image_size), num_panels=1
    )
    kernels = []
    for task in range(num_tasks):
        prefix = f"task{task}"

        # Symbolic encode: bind each input with its key (low-dimensional).
        bind = circconv_kernel(
            f"{prefix}/symb/bind",
            vector_dim=binding_dim,
            count=num_inputs * sequence_length,
            launches=num_inputs,
            task_id=task,
        )
        kernels.append(bind)

        # Neural trunk: CNN tokenizer followed by transformer layers running
        # on the superposed representation.
        neural = stamp_chain(
            tokenizer, f"{prefix}/neuro/tokenizer", task_id=task, depends_on=(bind.name,)
        )
        kernels.extend(neural)
        previous = neural[-1].name

        for layer in range(num_transformer_layers):
            attention = gemm_kernel(
                f"{prefix}/neuro/layer{layer}/attention",
                m=sequence_length,
                k=embedding_dim,
                n=3 * embedding_dim,
                task_id=task,
                depends_on=(previous,),
            )
            scores = gemm_kernel(
                f"{prefix}/neuro/layer{layer}/scores",
                m=sequence_length,
                k=embedding_dim,
                n=sequence_length,
                task_id=task,
                depends_on=(attention.name,),
            )
            mlp = gemm_kernel(
                f"{prefix}/neuro/layer{layer}/mlp",
                m=sequence_length,
                k=embedding_dim,
                n=4 * embedding_dim,
                task_id=task,
                depends_on=(scores.name,),
            )
            norm = elementwise_kernel(
                f"{prefix}/neuro/layer{layer}/norm",
                elements=sequence_length * embedding_dim,
                ops_per_element=6,
                stage=Stage.NEURAL,
                task_id=task,
                depends_on=(mlp.name,),
            )
            kernels.extend([attention, scores, mlp, norm])
            previous = norm.name

        # Symbolic decode: unbind per-input results from the superposition.
        unbind = circconv_kernel(
            f"{prefix}/symb/unbind",
            vector_dim=binding_dim,
            count=num_inputs * sequence_length,
            launches=num_inputs,
            task_id=task,
            depends_on=(previous,),
        )
        readout = elementwise_kernel(
            f"{prefix}/symb/readout",
            elements=num_inputs * embedding_dim,
            ops_per_element=3,
            task_id=task,
            depends_on=(unbind.name,),
        )
        kernels.extend([unbind, readout])

    transformer_params = num_transformer_layers * (
        3 * embedding_dim * embedding_dim + 4 * embedding_dim * embedding_dim
    )
    weight_bytes = (
        backbone.stats((1, image_size, image_size)).weight_bytes()
        + transformer_params * 4
    )
    codebook_bytes = num_inputs * binding_dim * 4 * sequence_length

    return Workload(
        name="mimonet",
        kernels=kernels,
        weight_bytes=weight_bytes,
        codebook_bytes=codebook_bytes,
        description=(
            "MIMONet computation-in-superposition: VSA binding of multiple "
            "inputs, shared CNN/transformer trunk, VSA unbinding."
        ),
    )
