"""
Centralized baselines: logistic regression vs a small MLP
=========================================================

Generates a synthetic mortality cohort, engineers window features, and
trains both architectures on the pooled data — the reference point that
federated runs are later compared against. ``prepare`` runs the data, split
and feature stages once; ``fit`` scales the rows with the training extremes,
trains one model on them and evaluates it on the test rows.

Run:  python3 demos/centralized_training.py
"""

from dataclasses import replace

from fedhosp.experiment import ExperimentConfig, fit, prepare

cfg = ExperimentConfig(n_episodes=1000, n_variables=7, effect_size=0.8, hidden_dim=50,
                       epochs=40, seed=42)
data = prepare(cfg)
n_train, n_test = len(data.train.labels), len(data.test.labels)
n_positive = int(data.train.labels.sum() + data.test.labels.sum())
print(f"{n_train} train / {n_test} test episodes, "
      f"prevalence {n_positive / (n_train + n_test):.2f}")
print(f"feature width: {data.train.rows.shape[1]}")

for kind in ("lr", "mlp"):
    report = fit(replace(cfg, model=kind), data)
    m = report["metrics"]
    print(f"{kind:<4} ({report['arch']['n_params']:>6} params)  "
          f"auroc={m['auroc']:.4f}  auprc={m['auprc']:.4f}  accuracy={m['accuracy']:.4f}")
