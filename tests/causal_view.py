"""Test-only: the node/edge graph a columnar ``causal`` section encodes.

Production readers go through :mod:`repro.obs.causal`'s helpers; the
tests pin the wire layout itself, so this expands it independently —
row ``r`` is the node pair ``2r`` (send) / ``2r + 1`` (receive) joined
by a ``net`` edge, and a recorded parent row ``p`` is a ``causal`` edge
from ``p``'s receive to ``r``'s send.
"""

#: indices into a node ``[id, t, host, kind]`` and an edge
#: ``[src_index, dst_index, type]`` of the expanded view
N_ID, N_T, N_HOST, N_KIND = 0, 1, 2, 3
E_SRC, E_DST, E_TYPE = 0, 1, 2


def graph_view(causal):
    """``(nodes, edges)`` of one causal section (a recorder's
    ``to_doc()`` or an ``obs["causal"]``)."""
    hosts, kinds = causal["hosts"], causal["kinds"]
    nodes, edges = [], []
    for row, tid in enumerate(causal["tid"]):
        kind = kinds[causal["kind"][row]]
        nodes.append([f"{tid}:s", causal["t_send"][row],
                      hosts[causal["src"][row]], kind])
        nodes.append([f"{tid}:r", causal["t_recv"][row],
                      hosts[causal["dst"][row]], kind])
        edges.append([2 * row, 2 * row + 1, "net"])
        parent = causal["parent"][row]
        if parent >= 0:
            edges.append([2 * parent + 1, 2 * row, "causal"])
    return nodes, edges
