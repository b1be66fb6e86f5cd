"""Sweep one axis of the experiment grid and read its table.

A sweep holds everything fixed except one axis (client count here) and
repeats each cell with paired replicate seeds: replicate r of every
cell shares its data, partition draw, and prompt init, so differences
between the rows are the axis's doing, not seed luck. A failed cell is
recorded and skipped; its siblings still run.

The shipped presets (table1, table2, table3_4, table5) run through the
same grid: their cells are each method at each swept value. Every grid
writes one markdown table, one row per (method, cell), with each
metric's mean over the replicates that completed. The command line
prints the same table:

    fedfairprompt sweep --axis clients --values 3,6 --out runs/x
    fedfairprompt sweep --preset table1 --out runs/table1
"""

from fedfairprompt import Config, grid_table, sweep

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

cells = sweep(base, axis="clients", values=(3, 6), replicates=2)

print(f"failed cells: {sum(cell.failed for cell in cells)} of {len(cells)}")
for cell in cells:
    state = "failed: " + cell.error if cell.failed else "ok"
    seed = cell.report.config.master_seed if cell.report else "-"
    print(f"  {cell.label} rep={cell.replicate} seed={seed} [{state}]")

print("\nmeans over replicates, also in runs/demo06/sweep_clients.md:\n")
print(grid_table(cells))
