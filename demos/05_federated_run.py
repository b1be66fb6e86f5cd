"""One end-to-end federated round trip, small enough to watch.

Five clients hold non-IID shards of the biased cohort. Each round they
tune private prompt stacks on a joint objective (task alignment plus a
projection-residual penalty), the server fuses the stacks with
validation-scored weights, then nudges the fused stack with a few
fairness-regularized refinement steps. Nothing about the backbone ever
changes; the whole model state is the prompt stack.
"""

import os

from fedfairprompt import Config, emit_report, run_federation

cfg = Config(
    method="fvlfp",
    master_seed=0,
    out_dir="runs/demo05",
    clients=5,
    rounds=12,
    alpha=0.5,
    n_train=1600,
    n_test=240,
    n_val=240,
    lr=2e-3,
    refine_steps=10,
)
print(f"method={cfg.method}, {cfg.clients} clients, {cfg.rounds} rounds, alpha={cfg.alpha}")

report = run_federation(cfg)

print("\nround trajectory (global eval):")
print("  round   A_B    phi_eq  f_global  fusion weights")
for rnd in report.rounds:
    g = rnd.global_record
    w = "" if rnd.round == 0 else str([round(x, 2) for x in rnd.weights])
    print(f"  {rnd.round:>5}  {g.a_b:.3f}   {g.phi_eq:.3f}   {g.f_global:.3f}  {w}")

# Round 0 is the untrained snapshot; headline numbers average the last
# few trained rounds so a lucky final round cannot flatter the run.
s = report.summary()
print(f"\nheadline: A_B={s['a_b']:.3f} phi_eq={s['phi_eq']:.3f} f_global={s['f_global']:.3f}")

paths = emit_report(report, cfg.out_dir)
print("\nartifacts:")
for name, p in paths.items():
    print(f"  {name}: {p} ({os.path.getsize(p)} bytes)")
