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
label, link and dual is a list slot.  Edge k has doubled weight ``wt2[k]``,
its oriented edge ``p`` (2k or 2k + 1) runs ``endpoint[p] -> endpoint[p ^ 1]``,
``adj[v]`` lists the ``p`` out of v ascending and ``heavy[v]`` those of
weight 2, as the union graph's pair scan writes them.  Vertex duals are
doubled, so all arithmetic is exact.  Every call ends by checking the dual
optimality conditions and raises ``ArithmeticError`` if one fails.

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
a delta, so a stage first scans only each vertex's tight edges and keeps none
of the least-slack edges only a delta reads.  Before any delta the tight
edges are the heaviest ones, so the lists start as ``heavy`` (``adj`` when no
weight is 2, as on a cardinality graph); after a delta each is rebuilt when
its vertex is next scanned.  If the tight pass augments, it followed the same
edges in the same order as a full scan, so the mates are the same.  If it
fails, no tight edge joins two S-blossoms, so a type-3 delta would be at
least 1, and it wins only below the least dual.  So once a dual is at most 1
(from the start on a cardinality graph, and after the first delta on any
other) the failed pass is the last stage: it takes its type-1 delta and the
call ends, where networkx's tracked rerun would build the same forest and
take the same delta.  While every dual is 2 no delta has come, so each
earlier stage augmented and expanded its blossoms, all of dual 0: the pass
began with none, and it is undone by resetting to no blossom.  The stage
reruns tracked, rebuilds the pass's forest and so ends in a delta: it is the
call's one tracked stage, the only one to keep least-slack edges, and until
its first delta a light slack is 2 and a heavy one 0: once the scanned
vertex's blossom has a best edge no light edge moves anything, and the scan
goes on over ``heavy`` from the same edge (back over ``adj`` if a new blossom
has none).  Each stage labels every single vertex S, as networkx does, so all
single vertices share one dual.  Every loop and walk has a bound; passing one
raises ``ArithmeticError``.

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

from bisect import bisect_right
from itertools import chain, count


def match_edges(endpoint: list[int], wt2: list[int], adj: list, heavy: list) -> list[int]:
    """Indices, ascending, of the edges in a maximum-weight matching of the
    graph the four lists describe, laid out as the module docstring says.  The
    lists are neither checked nor changed; a failed certificate or a loop past
    its bound raises ``ArithmeticError``."""
    n = len(adj)
    mate = [-1] * n  # the matched edge out of each vertex, -1 if single
    top = 4 if 4 in wt2 else 2 if wt2 else 0  # the largest doubled weight
    dualvar = [top // 2] * n  # 2 u(v), from maxweight / 2
    inblossom = list(range(n))  # the top-level blossom of each vertex
    # by vertex or blossom id, grown as blossoms are created: label 0 free,
    # 1 S, 2 T, 5 breadcrumb; labeledge the edge the label came through (-1
    # at a single base); bestedge the least-slack edge to an S-blossom
    blossomparent = [-1] * n
    blossombase = list(range(n))
    label = bytearray(n)
    labeledge = [-1] * n
    bestedge = [-1] * n
    # indexed by the id of each blossom not yet expanded, in creation order
    blossomdual: dict[int, int] = {}
    childs: dict[int, list[int]] = {}   # sub-blossoms, base first
    ring: dict[int, list[int]] = {}     # ring[b][i] joins childs i and i+1
    mybestedges: dict[int, list[int]] = {}  # only the one tracked stage's
    leafs: dict[int, list[int]] = {}    # leaves(b), until b rotates
    queue: list[int] = []
    # adj[v] cut to slack <= 0; until the duals move, the heaviest edges
    tight: list = (heavy if top == 4 else adj)[:]

    def slack(p: int) -> int:
        return dualvar[endpoint[p]] + dualvar[endpoint[p ^ 1]] - wt2[p >> 1]

    def leaves(b: int) -> list[int]:
        # k <= n leaves under < k/2 blossoms of >= 3 children: < 2n pops
        out = leafs.setdefault(b, [])  # empty unless cached: a blossom has >= 3 leaves
        if out:
            return out
        stack = list(childs[b])
        for _ in range(2 * n):
            if not stack:
                return out
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        raise ArithmeticError("blossom matching: a leaf walk passed its bound")

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
        path = []  # distinct top-level blossoms, so at most n of them
        edgs = [p]
        while bv != bb and len(path) <= n:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[endpoint[labeledge[bv]]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb and len(path) <= n:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append(labeledge[bw] ^ 1)
            bw = inblossom[endpoint[labeledge[bw]]]
        if len(path) > n:
            raise ArithmeticError("blossom matching: a blossom path passed its bound")
        childs[b] = path
        ring[b] = edgs
        blossomdual[b] = 0
        out = leafs[b] = []  # leaves(b)'s walk order: the children's, last first
        for c in reversed(path):
            sub = leaves(c) if c >= n else [c]
            if label[c] == 2:
                queue.extend(sub)
            out += sub
        for v in out:
            inblossom[v] = b
        if not tracked:
            return
        # least-slack edge to each neighbouring S-blossom (by first reach) and
        # the first least.  Every edge listed runs out of b, as networkx's
        # lists do, and the duals do not move while a blossom is built.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:  # a child blossom was made in this stage, so tracked
            for q in adj[bv] if bv < n else mybestedges.pop(bv):
                bj = inblossom[endpoint[q ^ 1]]
                if bj != b and label[bj] == 1:
                    s = dualvar[endpoint[q]] + dualvar[endpoint[q ^ 1]] - wt2[q >> 1]
                    if bj not in bestedgeto or s < bestedgeto[bj][0]:
                        bestedgeto[bj] = (s, q)
        mybestedges[b] = [q for _, q in bestedgeto.values()]
        bestedge[b] = min(bestedgeto.values(), key=lambda sq: sq[0], default=(0, -1))[1]

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
            for _ in range(n):  # each step passes two top-level blossoms
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
            else:
                raise ArithmeticError("blossom matching: a long augmenting path")
        while work:
            b, v = work.pop()
            if b < n:
                continue
            t = v
            while (up := blossomparent[t]) != b:
                if up == -1:  # v is not in b
                    raise ArithmeticError("blossom matching: a blossom lost its vertex")
                t = up
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
            leafs.pop(b, None)
            ring[b] = ring[b][i:] + ring[b][:i]
            blossombase[b] = v

    rerun = False
    # each augmenting stage matches two of the n vertices and one final stage
    # follows them, each run at most twice (tight, then tracked)
    for _ in range(n + 2):
        # a stage: label from the single vertices until an augmenting path
        tracked, rerun = rerun, False
        flat = tracked  # a rerun starts where every dual is 2 (so top is 4)
        label[:] = bytes(len(label))
        bestedge[:] = [-1] * len(bestedge)
        queue.clear()
        for v in [v for v in range(n) if mate[v] == -1]:
            if inblossom[v] == v:
                label[v] = 1
                labeledge[v] = -1
                queue.append(v)
            else:  # the base of a blossom, its only single vertex
                assign_label(v, 1, -1)
        size = len(blossombase)  # the slots to cut back to if the pass is undone

        augmented = False
        # a substage after a type-3 delta augments or closes a blossom, which
        # merges >= 3 of the <= n top-level blossoms: <= n/2 + 1
        for _ in range(n // 2 + 1):
            # a substage: grow the labelled forest over tight edges
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dv = dualvar[v]
                be = bestedge[bv]  # with its slack bs, kept for the scan
                bs = slack(be) if be != -1 else 0
                nbrs = (heavy if flat and be != -1 else adj)[v] if tracked else tight[v]
                if nbrs is None:
                    nbrs = tight[v] = [p for p in adj[v]
                                       if dv + dualvar[endpoint[p ^ 1]] <= wt2[p >> 1]]
                while not augmented:  # the flat part goes on from a switch of lists
                    for p in nbrs:
                        w = endpoint[p ^ 1]
                        bw = inblossom[w]
                        if bw == bv:
                            continue
                        kslack = dv + dualvar[w] - wt2[p >> 1]
                        if kslack > 0:
                            # not tight: keep the least-slack edge to an S-blossom
                            if label[bw] == 1 and (be == -1 or kslack < bs):
                                bestedge[bv] = be = p
                                bs = kslack
                                if flat:  # on over the heavy edges after p
                                    nbrs = heavy[v][bisect_right(heavy[v], p):]
                                    break
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
                            if flat:  # on after p, over all edges if be is -1
                                ps = heavy[v] if be != -1 else adj[v]
                                nbrs = ps[bisect_right(ps, p):]
                                break
                    else:
                        break
            if augmented:
                break
            if not tracked and min(dualvar, default=0) > 1:
                rerun = True  # every dual is still 2: a type-3 delta may win
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
            flat = False

            if deltaedge == -1:
                break
            queue.append(endpoint[deltaedge])
        else:
            raise ArithmeticError("blossom matching: a stage passed its delta bound")

        if augmented:
            # end of a stage: expand the S-blossoms whose dual fell to zero
            for b in list(blossomdual):
                if blossomdual.get(b) == 0 and blossomparent[b] == -1 and label[b] == 1:
                    expand_blossom(b)
        elif rerun:
            # undo the tight pass back to no blossom, and rerun the stage tracked
            inblossom[:], blossomparent[:] = range(n), [-1] * size
            for d in (childs, ring, blossomdual, leafs):
                d.clear()
            for slots in (blossombase, label, labeledge, bestedge):
                del slots[size:]
        else:
            break
    else:
        raise ArithmeticError("blossom matching: the stages passed their bound")

    _certify(endpoint, wt2, mate, dualvar, blossomparent, blossomdual, ring)
    return sorted({e >> 1 for e in mate if e != -1})


def _certify(endpoint, wt2, mate, dualvar, blossomparent, blossomdual, ring) -> None:
    """Check the matching and the duals against the optimality conditions: blossom
    duals, >= 0, count only for a matched edge or one whose vertex duals fall short."""
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
    for k, i, j, w2 in zip(count(), *[iter(endpoint)] * 2, wt2):  # endpoints in pairs
        if dualvar[i] + dualvar[j] < w2 or mate[i] >> 1 == k:  # else z >= 0 keeps s >= 0
            s = dualvar[i] + dualvar[j] - w2
            s += 2 * sum(blossomdual[b] for b in around[i] & around[j])
            if s < 0 or (s != 0 and mate[i] >> 1 == k):
                fail(f"edge {k} has slack {s}")
    for b, z in blossomdual.items():
        if z > 0 and (len(ring[b]) % 2 == 0
                      or any(mate[endpoint[e]] >> 1 != e >> 1
                             for e in ring[b][1::2])):
            fail(f"blossom {b} has dual {z} but is not full")
