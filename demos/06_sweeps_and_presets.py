"""Sweep one axis of the experiment grid and read the combined table.

A sweep holds everything fixed except one axis (client count here) and
repeats each cell with paired replicate seeds: replicate r of every
cell shares its data, partition draw, and prompt init, so differences
down a column are the axis's doing, not seed luck. A failed cell is
recorded and skipped; its siblings still run.

The same machinery backs the shipped presets (table1, table2, table3_4,
table5) and the command line:

    fedfairprompt sweep --axis clients --values 3,6 --out runs/x
    fedfairprompt sweep --preset table1 --out runs/table1
"""

from fedfairprompt import Config, sweep

base = Config(
    method="fvlfp",
    master_seed=0,
    out_dir="runs/demo06",
    rounds=4,
    n_train=600,
    n_test=160,
    n_val=160,
    lr=2e-3,
    refine_steps=5,
)

result = sweep(base, axis="clients", values=(3, 6), replicates=2)

print(f"axis: {result.axis}, values: {result.values}, failed cells: {result.failed}")
for cell in result.cells:
    state = "failed: " + cell.error if cell.failed else "ok"
    print(f"  clients={cell.value} rep={cell.replicate} seed={cell.report.config.master_seed if cell.report else '-'} [{state}]")

print("\nper-value means over replicates:")
for v in result.values:
    m = result.mean_summary(v)
    print(f"  clients={v}: A_B={m['a_b']:.3f} phi_eq={m['phi_eq']:.3f}")

print("\ncombined markdown table:\n")
print(result.table())
