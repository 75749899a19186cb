"""Exact maximum-weight matching over edge weights 1 and 2: Edmonds' (1965)
primal-dual blossom method.

A port of networkx's ``max_weight_matching``, which follows Zvi Galil,
"Efficient Algorithms for Finding Maximum Matching in Graphs" (ACM Computing
Surveys, 1986; it explains the terms used here) and took its structure from
Joris van Rantwijk's ``mwmatching``.  The scan order is networkx's, so the
same vertex order and edge list give the same mates: vertices ascending,
neighbours in edge-list order, blossoms in creation order (ids are never
reused), leaves in stack-pop order, ties to the first candidate.  The layout
is new: vertices are ``0..n-1`` and blossoms get ids from ``n`` up, so every
label, link and dual is a list slot; the oriented edge ``p`` runs
``endpoint[p] -> endpoint[p ^ 1]``.  Vertex duals are doubled, so all
arithmetic is exact.  Every call ends by checking the dual optimality
conditions and raises ``ArithmeticError`` if one fails.

Every weight is 1 or 2, the overlap of a union, so two of Galil's four
delta types never occur and are left out.  In doubled units the duals start
at W <= 2 and an edge's slack is d_i + d_j - 2w.  A vertex single in some
stage was single, and S, in every earlier one, so every delta so far lowered
its dual, which stays >= 0: the deltas of a call are integers summing to at
most W.  Type 2 (an S-vertex's edge to an unlabelled vertex) needs a slack
0 < s < min dual <= 2 - (deltas so far): s = 1 before any dual moved, when
every slack is the even 4 - 2w.  Type 4 (a T-blossom whose dual z runs out)
needs z < delta.  A blossom is S for the stage that makes it and is expanded
at its end if z = 0, so a T-blossom gained z0 >= 1 as S; after x deltas as
T, z0 - x < delta <= 2 - z0 - x forces z0 < 1.  Gone with them are the
least-slack edges to unlabelled vertices, and the relabelling walk through
an expanded T-blossom with the vertex labels only it read.  Were this
argument wrong, a missed delta would leave a negative dual or slack, which
the certificate rejects.

The scan follows an edge exactly when its slack is 0.  S-S slacks are even
(Galil), so a type-3 delta leaves its edge tight, and a tight edge stays so
for the stage: an S-T slack does not move under a delta, and a tight S-S edge
closes a blossom or ends the stage.  An odd S-S slack would repeat a zero
delta forever, so it raises ``ArithmeticError``.  Most stages augment without
a delta, so a stage first scans only each vertex's tight edges, listed when it
is first scanned and kept until a delta moves the duals, and keeps none of the
least-slack edges only a delta reads.  If it augments, it followed the same
edges in the same order as a full scan, so the mates are the same.  If it
needs a delta, it has moved no mate or dual: its blossoms are undone and the
stage reruns tracked, scanning every edge for networkx's delta.  A stage with
at most one single vertex cannot augment and runs tracked.

Copyright (c) 2004-2025, NetworkX Developers
Aric Hagberg <hagberg@lanl.gov>
Dan Schult <dschult@colgate.edu>
Pieter Swart <swart@lanl.gov>
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are
met:

  * Redistributions of source code must retain the above copyright
    notice, this list of conditions and the following disclaimer.

  * Redistributions in binary form must reproduce the above
    copyright notice, this list of conditions and the following
    disclaimer in the documentation and/or other materials provided
    with the distribution.

  * Neither the name of the NetworkX Developers nor the names of its
    contributors may be used to endorse or promote products derived
    from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from itertools import chain


def max_weight_edges(n: int, edges: list[tuple[int, int, int]]) -> list[int]:
    """Indices, ascending, of the edges in a maximum-weight matching.

    ``edges`` holds ``(i, j, weight)``, at most one per pair; a loop, an
    endpoint outside ``0..n-1`` or a weight not 1 or 2 raises ``ValueError``.
    """
    endpoint: list[int] = []
    wt2: list[int] = []
    # adj[v]: (neighbour, edge out of v, doubled weight) in edge-list order
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for k, (i, j, w) in enumerate(edges):
        if w not in (1, 2):
            raise ValueError(f"edge {k}: weights must be 1 or 2, not {w}")
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {k}: ({i}, {j}) is a loop or leaves 0..{n - 1}")
        endpoint += (i, j)
        wt2.append(2 * w)
        adj[i].append((j, 2 * k, 2 * w))
        adj[j].append((i, 2 * k + 1, 2 * w))

    mate = [-1] * n  # the matched edge out of each vertex, -1 if single
    dualvar = [max(wt2, default=0) // 2] * n  # 2 u(v), from maxweight / 2
    inblossom = list(range(n))  # the top-level blossom of each vertex
    # by vertex or blossom id, grown as blossoms are created: label 0 free,
    # 1 S, 2 T, 5 breadcrumb; labeledge the edge the label came through (-1
    # at a single base); bestedge the least-slack edge to an S-blossom
    blossomparent = [-1] * n
    blossombase = list(range(n))
    label = bytearray(n)
    labeledge = [-1] * n
    bestedge = [-1] * n
    # indexed by live blossom id, in creation order
    blossomdual: dict[int, int] = {}
    childs: dict[int, list[int]] = {}   # sub-blossoms, base first
    ring: dict[int, list[int]] = {}     # ring[b][i] joins childs i and i+1
    mybestedges: dict[int, list[tuple[int, int, int]]] = {}
    queue: list[int] = []
    tight: list = [None] * n  # adj[v] cut to slack <= 0, until the duals move

    def slack(p: int) -> int:
        return dualvar[endpoint[p]] + dualvar[endpoint[p ^ 1]] - wt2[p >> 1]

    def leaves(b: int) -> list[int]:
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(w: int, t: int, p: int) -> None:
        # label the top-level blossom of w through edge p (-1: none)
        b = inblossom[w]
        label[b] = t
        labeledge[b] = p
        if t == 1:
            if b < n:
                queue.append(b)
            else:
                queue.extend(leaves(b))
        else:
            m = mate[blossombase[b]]
            assign_label(endpoint[m ^ 1], 1, m)

    def scan_blossom(v: int, w: int) -> int:
        # trace back from v and w; the base of a new blossom, or -1 for an
        # augmenting path
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            e = labeledge[b]
            v = -1 if e == -1 else endpoint[labeledge[inblossom[endpoint[e]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, p: int, tracked: bool) -> None:
        # new S-blossom with this base, closed by the edge p between S-vertices
        v, w = endpoint[p], endpoint[p ^ 1]
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = len(blossomparent)
        blossomparent.append(-1)
        blossombase.append(base)
        label.append(1)
        labeledge.append(labeledge[bb])
        bestedge.append(-1)
        blossomparent[bb] = b
        path = []
        edgs = [p]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[endpoint[labeledge[bv]]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append(labeledge[bw] ^ 1)
            bw = inblossom[endpoint[labeledge[bw]]]
        childs[b] = path
        ring[b] = edgs
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        if not tracked:
            return
        # least-slack edge to each neighbouring S-blossom, by first reach.
        # Every edge listed runs out of b, as networkx's lists do, and the
        # duals do not move while a blossom is built, so slacks are kept.
        bestedgeto: dict[int, tuple[int, tuple[int, int, int]]] = {}
        for bv in path:
            if bv < n:
                nblist = adj[bv]
            else:
                nblist = mybestedges.pop(bv, None)
                if nblist is None:
                    nblist = [t for x in leaves(bv) for t in adj[x]]
            for t in nblist:
                w, q, w2 = t
                bj = inblossom[w]
                if bj != b and label[bj] == 1:
                    s = dualvar[endpoint[q]] + dualvar[w] - w2
                    old = bestedgeto.get(bj)
                    if old is None or s < old[0]:
                        bestedgeto[bj] = (s, t)
        mybestedges[b] = [t for _, t in bestedgeto.values()]
        best = min(bestedgeto.values(), key=lambda st: st[0], default=None)
        bestedge[b] = -1 if best is None else best[1][1]  # first least slack

    def expand_blossom(b: int) -> None:
        # dissolve b and every zero-dual sub-blossom (each slot is set once)
        stack = [b]
        while stack:
            b = stack.pop()
            del blossomdual[b]
            for s in childs[b]:
                blossomparent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif blossomdual[s] == 0:
                    stack.append(s)
                else:
                    for v in leaves(s):
                        inblossom[v] = s

    def augment_matching(p: int) -> None:
        # augment along the path through the edge p between S-vertices, then
        # in each blossom b it enters at v swap the edges on the path from v
        # to the base and rotate b so v is the base.  No rotation writes a
        # mate the path or another rotation writes, or reads what one writes,
        # so the worklist's order does not matter.
        work = []
        for s, e in ((endpoint[p], p), (endpoint[p ^ 1], p ^ 1)):
            while True:
                bs = inblossom[s]
                work.append((bs, s))
                mate[s] = e
                if labeledge[bs] == -1:
                    break
                bt = inblossom[endpoint[labeledge[bs]]]
                e = labeledge[bt]
                s, j = endpoint[e], endpoint[e ^ 1]
                work.append((bt, j))
                mate[j] = e ^ 1
        while work:
            b, v = work.pop()
            if b < n:
                continue
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            work.append((t, v))
            ch = childs[b]
            i = ch.index(t)
            # round to the base at 0: forward (wrapping through negative
            # indices) from an odd child, else back
            j, jstep = (i - len(ch), 1) if i & 1 else (i, -1)
            while j != 0:
                # the ring edge into child j from the one before it on the way
                j += jstep
                q = ring[b][j] if jstep == 1 else ring[b][j - 1] ^ 1
                work.append((ch[j], endpoint[q]))
                j += jstep
                work.append((ch[j], endpoint[q ^ 1]))
                mate[endpoint[q]] = q
                mate[endpoint[q ^ 1]] = q ^ 1
            childs[b] = ch[i:] + ch[:i]
            ring[b] = ring[b][i:] + ring[b][:i]
            blossombase[b] = v

    rerun = False
    while True:
        # a stage: label from the single vertices until an augmenting path
        tracked = rerun or mate.count(-1) <= 1
        label[:] = bytes(len(label))
        bestedge[:] = [-1] * len(bestedge)
        mybestedges.clear()
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        mark = None if tracked else (len(blossombase), inblossom[:], blossomparent[:])

        augmented = False
        while True:
            # a substage: grow the labelled forest over tight edges
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dv = dualvar[v]
                nbrs = adj[v] if tracked else tight[v]
                if nbrs is None:
                    nbrs = tight[v] = [t for t in adj[v] if dv + dualvar[t[0]] <= t[2]]
                be = bestedge[bv]  # with its slack bs, kept for the scan
                bs = slack(be) if be != -1 else 0
                for w, p, w2 in nbrs:
                    bw = inblossom[w]
                    if bw == bv:
                        continue
                    kslack = dv + dualvar[w] - w2
                    if kslack > 0:
                        # not tight: keep the least-slack edge to an S-blossom
                        if label[bw] == 1 and (be == -1 or kslack < bs):
                            bestedge[bv] = be = p
                            bs = kslack
                        continue
                    if label[bw] == 0:
                        assign_label(w, 2, p)
                    elif label[bw] == 1:
                        base = scan_blossom(v, w)
                        if base == -1:
                            augment_matching(p)
                            augmented = True
                            break
                        add_blossom(base, p, tracked)
                        bv = inblossom[v]
                        be = bestedge[bv]
                        bs = slack(be) if be != -1 else 0
            if augmented or not tracked:
                break

            # no augmenting path over tight edges: move the duals by the least
            # single dual (type 1, the end) or half the least slack between
            # S-blossoms (type 3), doubled like the duals
            delta = min(dualvar, default=0)
            deltaedge = -1
            for b in chain(range(n), blossomdual):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    d, odd = divmod(slack(bestedge[b]), 2)
                    if odd:
                        raise ArithmeticError("blossom matching: odd S-S slack")
                    if d < delta:
                        delta, deltaedge = d, bestedge[b]

            for v in range(n):
                if label[inblossom[v]]:  # S down, T up
                    dualvar[v] += -delta if label[inblossom[v]] == 1 else delta
            for b in blossomdual:
                if blossomparent[b] == -1 and label[b]:
                    blossomdual[b] += delta if label[b] == 1 else -delta
            tight[:] = [None] * n

            if deltaedge == -1:
                break
            queue.append(endpoint[deltaedge])

        if augmented:
            # end of a stage: expand the S-blossoms whose dual fell to zero
            for b in list(blossomdual):
                if blossomdual.get(b) == 0 and blossomparent[b] == -1 and label[b] == 1:
                    expand_blossom(b)
        elif tracked:
            break
        else:
            # a delta is needed: undo the tight pass and rerun the stage tracked
            size, inblossom[:], blossomparent[:] = mark
            for b in range(size, len(blossombase)):
                del childs[b], ring[b], blossomdual[b]
            for slots in (blossombase, label, labeledge, bestedge):
                del slots[size:]
        rerun = not augmented

    _certify(endpoint, wt2, mate, dualvar, blossomparent, blossomdual, ring)
    return sorted({e >> 1 for e in mate if e != -1})


def _certify(endpoint, wt2, mate, dualvar, blossomparent, blossomdual, ring) -> None:
    """Check the matching and the duals against the optimality conditions."""
    def fail(what: str) -> None:
        raise ArithmeticError(f"blossom matching not optimal: {what}")

    around = []  # the blossoms around each vertex whose dual is not 0
    for v, e in enumerate(mate):
        if e != -1 and (endpoint[e] != v or mate[endpoint[e ^ 1]] != e ^ 1):
            fail(f"vertex {v} is not matched symmetrically")
        if e == -1 and dualvar[v] != 0:
            fail(f"single vertex {v} has dual {dualvar[v]}")
        around.append(set())
        while (v := blossomparent[v]) != -1:
            if blossomdual[v]:
                around[-1].add(v)
    if min(dualvar, default=0) < 0 or min(blossomdual.values(), default=0) < 0:
        fail("negative dual")
    for k, w2 in enumerate(wt2):
        i, j = endpoint[2 * k], endpoint[2 * k + 1]
        s = dualvar[i] + dualvar[j] - w2
        if s < 0 or mate[i] >> 1 == k:  # else the blossom duals, >= 0, keep s >= 0
            s += 2 * sum(blossomdual[b] for b in around[i] & around[j])
            if s < 0 or (s != 0 and mate[i] >> 1 == k):
                fail(f"edge {k} has slack {s}")
    for b, z in blossomdual.items():
        if z > 0 and (len(ring[b]) % 2 == 0
                      or any(mate[endpoint[e]] >> 1 != e >> 1
                             for e in ring[b][1::2])):
            fail(f"blossom {b} has dual {z} but is not full")
