"""Streaming replication (paper section 7.2).

The master feeds its commits to the read-only replicas attached to it,
each of which starts from a base copy of the master. Plain snapshot
reads on a replica are NOT serializable under SSI (the
section 7.2 anomaly: commit order need not match the apparent serial
order), so serializable transactions on replicas are restricted to
*safe snapshots*, identified by markers the master adds to the
stream -- the design PostgreSQL planned as future work, implemented
here.
"""

from repro.replication.replica import CommitRecord, Replica, ReplicaReadMode

__all__ = ["CommitRecord", "Replica", "ReplicaReadMode"]
