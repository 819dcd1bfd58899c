"""Local vs remote Execution Engine latency (paper §6.1 / Table 5).

Runs the Internal Extinction workflow through three deployments —
plain dispel4py, Laminar with a local engine (LAN-shaped registry hop),
and Laminar with an Azure-like remote engine (WAN-shaped transport) —
and prints the Table 5 comparison at laptop scale.

Run:  python examples/remote_vs_local.py
"""

from repro.evalharness.experiments import Table5Config, run_table5
from repro.evalharness.reporting import check, environment_header


def main() -> None:
    print(environment_header())
    config = Table5Config(
        n_galaxies=30,
        votable_latency_s=0.01,
        nprocs=5,
        fetch_hint=3,
        install_scale=0.002,
    )
    print(
        f"\nworkload: {config.n_galaxies} galaxies, "
        f"{config.votable_latency_s * 1000:.0f}ms per VOTable download, "
        f"{config.nprocs} processes for Multi\n"
    )
    result = run_table5(config)
    print(result["table"])
    print()
    for label, ok in result["checks"].items():
        print(check(label, ok))

    times = result["times"]
    original = times["original dispel4py"]
    local = times["Local Execution (with Laminar)"]
    remote = times["Remote Execution (with Laminar)"]
    print("\noverheads vs original dispel4py (Simple mapping):")
    print(f"  Laminar local:  +{(local['simple'] / original['simple'] - 1) * 100:.0f}%")
    print(f"  Laminar remote: +{(remote['simple'] / original['simple'] - 1) * 100:.0f}%")


if __name__ == "__main__":
    main()
