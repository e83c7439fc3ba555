"""A mini-MPI over the simulated cluster.

This plays the role mpich-1.2.7 plays in the paper: the programming
interface the application (NAS BT) is written against.  Communication
is relayed through a pluggable *transport* — in the fault-tolerant
stack the transport is the MPICH-V communication daemon
(:mod:`repro.mpichv.vdaemon`), mirroring the paper's split of every
MPI node into a computation process and a communication daemon.

Restartability contract
-----------------------
Checkpointing captures the endpoint's ``state`` dict (plus the
channel-state message logs kept by the daemon).  Applications must
therefore keep *all* computation progress inside ``state`` and update
it atomically between yields — i.e. immediately after a ``recv``
returns and before the next ``yield``.  The allreduce in
:mod:`repro.mpi.collectives` follows the same contract, making it
resumable from any snapshot instant.
"""
