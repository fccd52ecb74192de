"""
Federated rounds with an accuracy gate
======================================

Four hospitals with label-skewed shards train a shared classifier without
pooling rows.  The server only commits a candidate global model when its
size-weighted test accuracy does not fall below the best seen so far; this
script cranks the learning rate up to make some rounds fail the gate so
the revert path is visible.

Run:  python3 demos/federated_gate.py
"""

from fedhosp.experiment import ExperimentConfig, prepare
from fedhosp.federation import run_federation

SEED = 7
K = 4

# label_skew draws per-hospital class proportions from a Dirichlet, so the
# shards are deliberately non-IID — hospital 1 might see twice the mortality
# rate of hospital 3. The master seed fans out to data=SEED, split=SEED+1,
# partition=SEED+2, init=SEED+3 and training=SEED+4.
cfg = ExperimentConfig(n_episodes=800, n_variables=5, effect_size=0.6,
                       n_hospitals=K, rounds=30, local_epochs=1, learning_rate=0.8,
                       gate_enabled=True, gate_metric="accuracy",
                       partition_strategy="label_skew", skew_alpha=0.5, seed=SEED)
# Each hospital scales its rows with its own training extremes.
hospitals = prepare(cfg).hospitals(cfg.partition_plan())
for h in hospitals:
    print(f"hospital {h.hospital_id}: {h.n_train:>3} train rows, "
          f"prevalence {h.train_y.mean():.2f}")

state, evals = run_federation(hospitals, cfg.arch(cfg.n_variables), cfg.fed_config(),
                              cfg.train_config(cfg.local_epochs))

print("\nround  candidate  decision   pooled AUROC")
for record, pooled in zip(state.history, evals):
    verdict = "commit" if record.committed else "REVERT"
    print(f"{record.round:>5}  {record.candidate_accuracy:.4f}     {verdict:<8}   "
          f"{pooled.auroc:.3f}")

commits = sum(r.committed for r in state.history)
print(f"\n{commits}/{len(state.history)} rounds committed; "
      f"final weighted accuracy {state.best_accuracy:.4f}")
