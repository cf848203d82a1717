"""sha256 of the stability reports of a fixed sample of triples.

    PYTHONPATH=TREE/src python3 tools/report_digest.py

Writes `HypothesisReport.to_json()` of `hypothesis_a_check`, one report
after another, into one sha256, and prints the digest of each of the two
samples:

- random: 3000 (alpha, x) drawn uniformly from (0.05, 2.95) x (0, 1),
  each checked as the burst triple of `oriented_config` and as its mirror
  image (conjugate positions, where the rate changes sign).  A point that
  `oriented_config` refuses (no side, no triangle) is skipped.
- window: at 24 alphas across the stability window, 50 x drawn inside
  the swept interval and, at each edge refined to adjacent floats, 25 x
  moved from it by a number of ulps drawn from -40 to 40.

A check that raises is hashed as the exception's type name.  The import
path picks the tree measured, so parent and change run the same script and
compare digests; each sample's line also counts its reports and the
reports that pass.  Standard library and NumPy only.
"""

from __future__ import annotations

import hashlib

import numpy as np

import gsqg


def _digest(cfgs) -> tuple[str, int, int]:
    h, n, passed = hashlib.sha256(), 0, 0
    for cfg in cfgs:
        try:
            report = gsqg.hypothesis_a_check(cfg)
        except (gsqg.DomainError, gsqg.SingularityError) as exc:
            text = type(exc).__name__
        else:
            text, passed = report.to_json(), passed + report.passed
        h.update(text.encode())
        n += 1
    return h.hexdigest(), n, passed


def _random(rng):
    for alpha, x in zip(rng.uniform(0.05, 2.95, 3000), rng.uniform(0.0, 1.0, 3000)):
        try:
            cfg = gsqg.oriented_config(float(alpha), float(x))
        except gsqg.DomainError:
            continue
        yield cfg
        yield gsqg.TripleConfig(a=np.conj(cfg.a), xi=cfg.xi, alpha=cfg.alpha)


def _window(rng):
    steps = np.arange(-40, 41)
    for alpha in np.linspace(0.975, 2.13, 24):
        rec = gsqg.sweep(alpha, alpha, refine_tol=1e-300).records[0]
        if rec.empty:
            continue
        xs = [*rng.uniform(rec.x_minus, rec.x_plus, 50)]
        for edge in (rec.x_minus, rec.x_plus):
            xs += [float(edge + k * np.spacing(edge)) for k in rng.choice(steps, 25)]
        for x in xs:
            try:
                cfg = gsqg.oriented_config(float(alpha), x)
            except gsqg.DomainError:
                continue
            yield cfg


def main() -> None:
    for name, sample in (("random", _random), ("window", _window)):
        digest, n, passed = _digest(sample(np.random.default_rng(0)))
        print(f"{name}: {n} reports, {passed} passing, sha256 {digest}")


if __name__ == "__main__":
    main()
