"""
The binary format and the command line
======================================

Datasets travel as ``TNSF`` files: a tiny header (magic, version, mode
count, T, dims) followed by little-endian f64 payload, one tensor after
another with the first index fastest.  The CLI wraps the library for
shell pipelines; here its entry point is called in-process.
"""
import tempfile
from pathlib import Path

import numpy as np

from tuckerfactor import read_tensor_series, write_tensor_series
from tuckerfactor.cli import main as cli


def main():
    print("=" * 70)
    print("Files and the command line")
    print("=" * 70)

    with tempfile.TemporaryDirectory(prefix="tnsf_demo_") as tmp:
        work = Path(tmp)
        data_file = str(work / "data.tnsf")

        # 1. simulate a scenario-II dataset (serially correlated factors)
        cli(["simulate", "--out", data_file, "--T", "30", "--dims", "12,12,12",
             "--ranks", "2,3,4", "--scenario", "II", "--seed", "11"])

        # the file round-trips bit-exactly through the reader
        series = read_tensor_series(data_file)
        copy_file = str(work / "copy.tnsf")
        write_tensor_series(copy_file, series)
        identical = Path(data_file).read_bytes() == Path(copy_file).read_bytes()
        print(f"byte-identical rewrite: {identical}")

        # 2. pick the ranks from the eigenvalue ratios
        print("\n$ tuckerfactor rank data.tnsf --kmax 8")
        cli(["rank", data_file, "--kmax", "8"])

        # 3. fit, persist, reconstruct
        fit_prefix = str(work / "fit")
        print("\n$ tuckerfactor estimate data.tnsf --method ipmopca --ranks auto")
        cli(["estimate", data_file, "--method", "ipmopca", "--ranks", "auto",
             "--kmax", "8", "--out", fit_prefix])
        print("\n$ tuckerfactor reconstruct data.tnsf --loadings fit")
        cli(["reconstruct", data_file, "--loadings", fit_prefix,
             "--out", str(work / "signals.tnsf")])

        # 4. loadings live in the same container, one file per mode
        a1 = read_tensor_series(fit_prefix + ".A1")
        print(f"\npersisted mode-1 loadings shape: {a1[0].shape}")
        print(f"work files in {work}:")
        for p in sorted(work.iterdir()):
            print(f"  {p.name:<20} {p.stat().st_size:>10} bytes")

    print("\nDone.")


if __name__ == "__main__":
    main()
