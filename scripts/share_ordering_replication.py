"""Replicated share-ordering experiment across predictor encodings.

For each replication, samples tokens from the bundled mixture model,
builds a response that loads mostly on frequency with a smaller
surprisal contribution (the two predictors correlate near 0.5 by
construction), and decomposes R-squared between frequency and the focal
predictor under three encodings of the same two-dimensional span: raw
surprisal, the mutual-information rewrite, and surprisal residualized
against frequency.  Writes one CSV row per (replication, encoding) and
prints mean shares plus the rate at which the expected ordering
share(ortho) < share(pmi) < share(surprisal) holds.

Usage:
    python3 scripts/share_ordering_replication.py --reps 50 --out shares.csv
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctxpred.corpus import generate_synthetic, standardize_stats  # noqa: E402
from ctxpred.hilbert import sample_orthogonalize  # noqa: E402
from ctxpred.lm import load_lm_tsv  # noqa: E402
from ctxpred.regression import DesignMatrix, Triangle, lmg  # noqa: E402
from ctxpred.seeding import named_rng  # noqa: E402

ENCODINGS = ("surprisal", "pmi", "ortho")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lm", type=Path, default=ROOT / "fixtures" / "mixture.tsv")
    ap.add_argument("--out", type=Path, default=Path("shares.csv"))
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--n-docs", type=int, default=42)
    ap.add_argument("--doc-len", type=int, default=72)
    ap.add_argument("--surprisal-beta", type=float, default=0.25)
    ap.add_argument("--frequency-beta", type=float, default=1.0)
    ap.add_argument("--noise-sd", type=float, default=0.8)
    return ap.parse_args()


def standardize(values: np.ndarray) -> np.ndarray:
    """Centred to mean zero and scaled to unit sample (n-1) deviation."""
    mean, sd = standardize_stats(values)
    return (np.asarray(values, dtype=float) - mean) / sd


def replicate(lm, args, rep: int) -> tuple[dict, float]:
    """One replication: returns per-encoding focal shares and the
    sampled surprisal/frequency correlation."""
    synth = generate_synthetic(
        lm, {"intercept": 0.0}, 0.0, args.n_docs, args.doc_len, seed=rep
    )
    s_raw = synth.records["surprisal"]
    f_raw = synth.records["frequency"]
    p_raw = synth.records["pmi"]
    s, f = standardize(s_raw), standardize(f_raw)
    corr = float(np.corrcoef(s, f)[0, 1])
    noise = named_rng(rep, "simulations").standard_normal(s.size)
    y = args.surprisal_beta * s + args.frequency_beta * f + args.noise_sd * noise
    columns = {
        "surprisal": s_raw,
        "pmi": p_raw,
        "ortho": sample_orthogonalize(s_raw, f_raw),
    }
    shares = {}
    for name, col in columns.items():
        design = DesignMatrix.build({name: col, "frequency": f_raw})
        report = lmg(
            Triangle.factor(design, y), {name: [name], "frequency": ["frequency"]}
        )
        shares[name] = {
            "share": report.share(name),
            "frequency_share": report.share("frequency"),
            "total_r2": report.total_r2,
        }
    return shares, corr


def run(args: argparse.Namespace) -> int:
    lm = load_lm_tsv(args.lm)
    rows = []
    wins = 0
    corrs = []
    for rep in range(args.reps):
        shares, corr = replicate(lm, args, rep)
        corrs.append(corr)
        wins += (
            shares["ortho"]["share"]
            < shares["pmi"]["share"]
            < shares["surprisal"]["share"]
        )
        for name in ENCODINGS:
            rows.append({"rep": rep, "encoding": name, "corr": corr,
                         **shares[name]})

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"mean sampled corr(surprisal, frequency) = {np.mean(corrs):.3f}")
    print(f"{'encoding':<12}{'mean focal share':>18}{'mean total R2':>16}")
    for name in ENCODINGS:
        vals = [r for r in rows if r["encoding"] == name]
        print(f"{name:<12}"
              f"{np.mean([r['share'] for r in vals]):>18.4f}"
              f"{np.mean([r['total_r2'] for r in vals]):>16.4f}")
    print(f"ordering ortho < pmi < surprisal held in {wins}/{args.reps} reps")
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
