"""Benchmarks of the paper's evaluation: dense matmul (mm8–mm64), the MNIST
MLP (mnist1–mnist4) and the in-memory FFT (fft8–fft64), each with a
functional netlist form and an analytic workload specification."""

from repro.workloads.base import (
    LevelGroup,
    WorkloadSpec,
    available_workloads,
    block_level_profiles,
    block_summary,
    get_workload,
    register_workload,
)
from repro.workloads.datasets import (
    SyntheticMnist,
    make_synthetic_mnist,
    quantize_unsigned,
)
from repro.workloads.fft import (
    PAPER_FFT_SIZES,
    butterfly_block_netlist,
    fft_input_assignment,
    fft_netlist,
    fft_outputs_to_spectrum,
    fft_reference,
    fft_spec,
)
from repro.workloads.matmul import (
    PAPER_MATMUL_SIZES,
    accumulator_bits,
    dot_product_netlist,
    mac_block_netlist,
    matmul_input_assignment,
    matmul_netlist,
    matmul_output_matrix,
    matmul_reference,
    matmul_spec,
)
from repro.workloads.mlp import (
    PAPER_MLP_CONFIG,
    PAPER_WEIGHT_PRECISIONS,
    MlpConfig,
    generate_prototype_weights,
    mlp_inference_reference,
    mlp_input_assignment,
    mlp_netlist,
    mlp_outputs_to_scores,
    mlp_spec,
)

#: All benchmark names of the paper's evaluation, in Table IV / Fig. 7 order.
PAPER_BENCHMARKS = (
    "mm8",
    "mm16",
    "mm32",
    "mm64",
    "mnist1",
    "mnist2",
    "mnist3",
    "mnist4",
    "fft8",
    "fft16",
    "fft32",
    "fft64",
)

__all__ = [
    "WorkloadSpec",
    "LevelGroup",
    "get_workload",
    "register_workload",
    "available_workloads",
    "block_level_profiles",
    "block_summary",
    "PAPER_BENCHMARKS",
    # matmul
    "matmul_spec",
    "matmul_netlist",
    "matmul_reference",
    "matmul_input_assignment",
    "matmul_output_matrix",
    "mac_block_netlist",
    "dot_product_netlist",
    "accumulator_bits",
    "PAPER_MATMUL_SIZES",
    # mlp
    "MlpConfig",
    "PAPER_MLP_CONFIG",
    "PAPER_WEIGHT_PRECISIONS",
    "mlp_spec",
    "mlp_netlist",
    "mlp_input_assignment",
    "mlp_outputs_to_scores",
    "mlp_inference_reference",
    "generate_prototype_weights",
    # fft
    "fft_spec",
    "fft_netlist",
    "fft_reference",
    "fft_input_assignment",
    "fft_outputs_to_spectrum",
    "butterfly_block_netlist",
    "PAPER_FFT_SIZES",
    # datasets
    "SyntheticMnist",
    "make_synthetic_mnist",
    "quantize_unsigned",
]
