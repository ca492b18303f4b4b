"""Set-up probe, run in a fresh interpreter: import the package and make the
first call into each layer a workload uses, then exit at once.

    python3 bench/probe.py closed-form-sweep|verify-grid|estimate-ingest [tiny.csv]
    python3 bench/probe.py import      # prints the seconds `import efmeasures.cli` took

The caller times the whole process; exiting through ``os._exit`` keeps
interpreter teardown out of that time.
"""

import io
import os
import sys
from contextlib import redirect_stdout
from time import perf_counter


def _first_calls(workload: str, csv_path: str | None) -> None:
    if workload == "estimate-ingest":
        from efmeasures import cli

        with redirect_stdout(io.StringIO()):
            code = cli.run(["estimate", "--family", "exponential", "--data", csv_path, "--measure", "kl",
                            "--data2", csv_path])
        if code != 0:
            raise SystemExit(f"estimate exited with {code}")
        return

    import efmeasures
    from efmeasures.oracle import OracleConfig, oracle_measure

    pairs = {
        "exponential": ({"rate": 1.0}, {"rate": 1.5}),
        "poisson": ({"rate": 1.0}, {"rate": 2.5}),
        "bernoulli": ({"p": 0.3}, {"p": 0.6}),
        "gaussian": ({"mu": 0.0, "var": 1.0}, {"mu": 0.5, "var": 1.2}),
        "mvn": ({"mu": [0.0, 0.0], "sigma": [[1.0, 0.2], [0.2, 0.8]]},
                {"mu": [0.4, -0.3], "sigma": [[1.1, -0.1], [-0.1, 0.9]]}),
        "laplacian": ({"scale": 1.0}, {"scale": 1.4}),
    }
    cfg = OracleConfig(mc_samples=1000)
    for name, (p, q) in pairs.items():
        fam = efmeasures.get_family(name, dim=2) if name == "mvn" else efmeasures.get_family(name)
        theta, theta2 = fam.to_natural(p), fam.to_natural(q)
        efmeasures.evaluate_measure(fam, "renyi-div", theta, theta2, 0.5)
        efmeasures.evaluate_measure(fam, "shannon", theta)
        if workload == "verify-grid" and name in ("poisson", "gaussian", "mvn"):
            # One cell per oracle backend: series, quadrature, Monte Carlo.
            oracle_measure(fam, "kl", theta, theta2, None, cfg)


def main() -> None:
    workload = sys.argv[1]
    if workload == "import":
        t0 = perf_counter()
        import efmeasures.cli  # noqa: F401

        print(perf_counter() - t0, flush=True)
    else:
        _first_calls(workload, sys.argv[2] if len(sys.argv) > 2 else None)
    os._exit(0)


if __name__ == "__main__":
    main()
