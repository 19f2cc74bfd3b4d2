#!/usr/bin/env python3
"""Protected MLP inference on a PiM accelerator (down-scaled MNIST scenario).

The paper's mnist1-mnist4 benchmarks map a two-layer perceptron onto the PiM
arrays with 1-4 bit weights.  This example runs the same pipeline end to end
at a size the bit-exact simulator can execute quickly:

* generate the deterministic synthetic MNIST-like dataset (no downloads),
* quantise activations and weights to a few bits,
* synthesise the whole two-layer MLP into NOR/THR gates with compile-time
  constant weights,
* classify test images by executing the netlist inside the simulated array —
  once unprotected and once under ECiM with injected gate errors — as one
  batch of trials on the bit-sliced ``bitpacked`` backend, one trial per
  image, with the faults drawn from a trial stream keyed on the example's
  seed,
* report accuracy and the number of corrections the checker performed.

Run with::

    python examples/mnist_inference.py [--pim-samples 4]

The same 16-4-4 netlist is registered as the ``mlp16`` campaign workload:
for statistical accuracy-degradation curves over many fault models and
error rates, run it through the campaign engine instead::

    PYTHONPATH=src python -m repro campaign \\
        --workloads mlp16 --schemes unprotected ecim \\
        --rates 1e-3 1e-2 --trials 200 --application --backend batched

(``--application`` scores every trial against the integer oracle and
reports argmax flips and output bit-error magnitude; see README
*Application campaigns*.)
"""

import argparse

import numpy as np

from repro.core import make_backend
from repro.core.rng import TrialStream
from repro.eval import format_table
from repro.pim import FaultModelSpec
from repro.workloads import (
    MlpConfig,
    generate_prototype_weights,
    make_synthetic_mnist,
    mlp_input_assignment,
    mlp_netlist,
    mlp_outputs_to_scores,
    mlp_spec,
    quantize_unsigned,
)

#: Keys the trial stream the injected gate errors are drawn from.
SEED = 17


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pim-samples", type=int, default=4,
                        help="test images classified on the bit-exact PiM simulator")
    args = parser.parse_args()

    print("=" * 72)
    print("Two-layer perceptron inference in nonvolatile PiM (ECiM-protected)")
    print("=" * 72 + "\n")

    # A 4x4-pixel, 4-class instance of the paper's MLP benchmark family.
    side, n_classes = 4, 4
    config = MlpConfig(
        input_size=side * side,
        hidden_size=4,
        n_classes=n_classes,
        weight_bits=2,
        activation_bits=2,
    )
    dataset = make_synthetic_mnist(n_samples=240, side=side, n_classes=n_classes, seed=9)
    _, test = dataset.split(0.8)

    w1, w2 = generate_prototype_weights(config, side=side)
    netlist = mlp_netlist(config, w1, w2)
    stats = netlist.stats()
    print(f"MLP {config.input_size}-{config.hidden_size}-{config.n_classes}, "
          f"{config.weight_bits}-bit weights: {stats.n_gates} in-array gates over "
          f"{stats.n_levels} logic levels.")
    print(f"Paper-scale counterpart (mnist{config.weight_bits}): "
          f"{mlp_spec(config.weight_bits).total_gates} gates per row program.\n")

    # --- Software-level accuracy over the whole test set -------------------
    activations = quantize_unsigned(test.images, config.activation_bits, max_value=255.0)
    correct = 0
    for image, label in zip(activations, test.labels):
        inputs = mlp_input_assignment(netlist, image, config.activation_bits)
        scores = mlp_outputs_to_scores(netlist, netlist.evaluate_outputs(inputs), n_classes)
        correct += int(int(np.argmax(scores)) == int(label))
    print(f"Golden-model accuracy on {test.n_samples} synthetic test images: "
          f"{correct}/{test.n_samples} = {correct / test.n_samples:.1%}\n")

    # --- Bit-exact PiM execution, with and without protection --------------
    rows = []
    sample_count = min(args.pim_samples, test.n_samples)
    inputs = [
        mlp_input_assignment(netlist, image, config.activation_bits)
        for image in activations[:sample_count]
    ]
    golden_scores = [
        mlp_outputs_to_scores(netlist, netlist.evaluate_outputs(row), n_classes)
        for row in inputs
    ]
    stream = TrialStream.keyed((SEED,), range(sample_count))
    for name, scheme, fault_model in (
        ("unprotected (fault free)", "unprotected", None),
        ("ECiM + injected gate errors", "ecim", FaultModelSpec.stochastic(gate_error_rate=1e-4)),
    ):
        outcomes = make_backend("bitpacked", netlist, scheme).run_trials(
            inputs,
            fault_model=fault_model,
            stream=None if fault_model is None else stream,
            capture_outputs=True,
        )
        matches = sum(
            np.array_equal(
                mlp_outputs_to_scores(netlist, dict(zip(netlist.outputs, bits)), n_classes),
                golden,
            )
            for bits, golden in zip(outcomes.outputs.tolist(), golden_scores)
        )
        rows.append([
            name,
            f"{matches}/{sample_count}",
            int(outcomes.detected.sum()),
            int(outcomes.corrections.sum()),
        ])

    print(format_table(
        ["execution", "PiM result == golden model", "runs with detected errors", "corrections"],
        rows,
    ))
    print(
        "\nEvery inference executed in the array reproduces the golden model's\n"
        "scores bit for bit; under injected gate errors the ECiM checker\n"
        "detects and repairs the corrupted logic-level outputs in place.\n"
        "\nFor statistical accuracy-degradation sweeps, the same netlist is the\n"
        "'mlp16' campaign workload:  python -m repro campaign --workloads mlp16\n"
        "    --schemes unprotected ecim --rates 1e-3 --trials 200 --application"
    )


if __name__ == "__main__":
    main()
