"""``repro.backend`` — the one host the kernels run on.

The CKKS kernels call numpy directly; the one compiled piece is a
shared object holding the limb-batch NTT butterfly, the KMU and the
BConvU loops, built and loaded by :mod:`repro.backend.native`
(``python -m repro backend`` reports its state).  :mod:`repro.backend.
arena` holds the pooled work buffers and their ``kernel.alloc.*``
allocation ledger.  A device backend comes back when a host has a
device (DESIGN.md Sec. 18).
"""
