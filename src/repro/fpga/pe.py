"""Processing-element geometry: 16 multipliers + adder tree (Fig. 8b).

Each PE consumes 16 operand pairs per cycle, multiplies them element-wise
and reduces the products through a 4-level binary adder tree.  The
scheduler and the resource report size the array from these constants;
:class:`repro.fpga.emu.EmulatedPE` is the PE model that computes with
them.
"""

PE_LANES = 16
_TREE_LEVELS = 4  # log2(PE_LANES)
