"""Deep-learning model evaluation (paper §6.2, Tables 6 and 7).

Reproduces both model studies on the synthetic corpora:

* Table 6 — zero-shot text-to-code search MRR (CoSQA-like / CSN-like),
  base vs fine-tuned UnixCoder;
* Table 7 — zero-shot clone detection MAP@100 / Precision@1 across the
  seven-model zoo.

Run:  python examples/model_evaluation.py
"""

from repro.evalharness.experiments import run_table6, run_table7
from repro.evalharness.reporting import check


def main() -> None:
    print("evaluating Table 6 (text-to-code search)...\n")
    table6 = run_table6()
    print(table6["table"])
    for label, ok in table6["checks"].items():
        print(check(label, ok))

    print("\nevaluating Table 7 (clone detection, 7 models)...\n")
    table7 = run_table7()
    print(table7["table"])
    for label, ok in table7["checks"].items():
        print(check(label, ok))

    print(
        "\nNote: absolute scores exceed the paper's because the synthetic"
        "\ncorpus is ~170 solutions vs CodeNet's 14M samples — see"
        "\nEXPERIMENTS.md for the shape-level comparison."
    )


if __name__ == "__main__":
    main()
