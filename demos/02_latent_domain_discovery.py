"""Discovering latent source domains while adapting to an unlabeled target.

The pinned synthetic benchmark mixes two hidden source domains whose shifts
entangle the class clusters in raw feature space.  A model with latent-domain
alignment layers has to figure out which sample belongs to which domain from
the classification objective alone; this script trains one and watches the
discovery happen, then compares against the same model given the true domain
labels.
"""

import numpy as np

from mdalign import Model, synth_make, train
from mdalign.data import reveal_domain_labels
from mdalign.experiments import default_experiment, pinned_benchmark

base = default_experiment()
data = synth_make(pinned_benchmark())

n_src = len(data.source_train)
domains = data.source_train.hidden_domains
print(f"benchmark: {n_src} source samples from {len(set(domains))} hidden domains, "
      f"{len(data.target_train)} unlabeled target samples\n")

print("=== unsupervised discovery (no domain labels at all) ===")
model = Model(base.resolved_model())
model, rows = train(model, data, base.resolved_train())
print("iter    class_ce   h_C     h_D     target_acc   NMI    purity")
for r in rows:
    print(f"{r.iteration:5d}   {r.class_ce:7.4f}  {r.h_class:6.4f}  {r.h_domain:6.4f}"
          f"   {r.acc:9.4f}   {r.nmi:5.3f}  {r.purity:5.3f}")
final = rows[-1]
print(f"\ndiscovered partition agrees with the hidden one at NMI {final.nmi:.3f}")
print(f"target accuracy {final.acc:.3f}\n")

print("=== reference: domains revealed and fixed ===")
from dataclasses import replace

revealed = replace(data, source_train=reveal_domain_labels(data.source_train))
known_cfg = replace(
    base.resolved_train(),
    weights=replace(base.resolved_train().weights, domain_ce=0.5),
)
known_model, known_rows = train(Model(base.resolved_model()), revealed, known_cfg)
print(f"known-domain target accuracy {known_rows[-1].acc:.3f}")
print(f"gap to discovery: {abs(known_rows[-1].acc - final.acc) * 100:.1f} points")
