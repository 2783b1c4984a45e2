"""Exact k-nearest-neighbour majority votes over a fixed set of planar points, for many queries at once.

A query's vote tells whether at least half of its k nearest points are
marked. Its neighbours are the first k points sorted by (squared distance,
index), as an exhaustive scan gives them, so the vote is the same as one
over an exhaustive scan even with duplicate points and ties. The search is
the cell technique (Bentley, Stanat & Williams, "The complexity of finding
fixed-radius near neighbors", Information Processing Letters 6(6), 1977)
over the distinct positions of the points:

  batches    queries in one square cell share a box, their extent widened
             by the largest of their half-widths, and one float64 matrix of
             squared distances to the distinct positions inside it. The
             cell's side is a quarter to a half of that half-width.
  settled    before its matrix is built, a box is settled whole from the
             centre c of its queries' extent. With delta the largest
             distance from c to a query and a a distance from c within
             which k points lie, each query q (|q - c| <= delta) has k
             points within a + delta, so a point farther than
             b = a + 2 delta from c, more than a + delta from q, is farther
             from q than k points are and is none of its neighbours. With M
             of the T points within b marked, every query's marked count
             lies in [M - (T - k), M], as under `certified`, and the box
             votes as one unless those bounds straddle half. The points are
             those of one square around c, cut from the positions sorted by
             x, whose half-width is the largest half-width of the queries,
             near their k-th distance, plus 2 delta; a is the distance of
             the k-th point in it. Every position outside the square is at
             least the squared distance from c to its nearest edge away, by
             the same float operations, so the step holds only when b^2 is
             below that: a box whose ball leaves its square could miss a
             point within b, and goes on to the search below unchanged, as
             one whose bounds straddle half does. Each squared distance is
             that of the exact floats to within a few units in the last
             place (a difference of two floats is rounded once), here and
             in an exhaustive scan, so b is widened by _BALL_REL of itself,
             far more than that, and by _BALL_ABS, more than the distances
             whose squares underflow: no rounding can then put a point past
             b among a query's k nearest.
  certified  a row's k nearest points lie among its m nearest positions,
             each weighted by its count of points, which an argpartition
             finds; any position nearer than a squared distance tau taken
             from them is one of them. When the T points at positions
             nearer than tau number at least k, and tau is at most the
             squared distance to the nearest box edge (every position
             outside is at least that far by the same float operations),
             the k nearest are among the T: with M of the T marked,
             M - (T - k) to M of the k are, which settles the vote unless
             those bounds straddle half. tau is taken near the (1.2 k)-th
             point, then at the m-th position.
  ranked     the rows left sort their m positions for the k-th squared
             distance dk, exact when below the squared distance to the
             nearest box edge. The other rows are searched again with the
             half-width sqrt(dk), an upper bound on their true k-th
             distance, and with the whole set, which is certified by
             definition, when their box held fewer than k points or would
             not grow.
  ties       the points strictly nearer than dk are all neighbours, and the
             rest come from those at dk in ascending index. When a single
             position is at dk, that is a leading run of its points, whose
             marked count is one difference of a cumulative count.

The first half-width of each query is guessed from a grid of point counts,
so the box of most queries holds little more than its k nearest positions;
the guess changes the cost of a search, never its result.
"""

import math

import numpy as np

# The guess grid has about this many cells, and a batch at most this many
# query-position distances. Both stay small because the heap that the
# search grows is kept after it: a `run --method knn` on knn_noport peaked
# at 62.6-64.5 MB with batches of 2^18 distances, and at 58.8-60.1 MB with
# 2^16, within a megabyte of 2^14's 58.3-59.4 MB.
_GRID_CELLS = 1 << 14
_BATCH = 1 << 16
# The first half-width is the guessed k-th distance times _GUESS_MARGIN; a
# retry widens sqrt(dk) by _RETRY_EPS so that rounding cannot keep a point
# at dk outside the box.
_GUESS_MARGIN = 1.2
_RETRY_EPS = 1e-9
# A box's ball is widened by _BALL_REL of its radius and by _BALL_ABS, in the
# points' units, so that no rounding can leave a neighbour outside it.
_BALL_REL = 1e-9
_BALL_ABS = 1e-9


def _certify(d2: np.ndarray, count: np.ndarray, marked: np.ndarray, tau: np.ndarray, k: int,
             gap2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of squared distances d2 to positions holding `count` points, `marked` of them marked, tau
    certifies as the module docstring says, and their votes; gap2 is each row's squared distance to its box edge."""
    inside = d2 < tau[:, None]
    points, marks = np.einsum("ij,ij->i", count, inside), np.einsum("ij,ij->i", marked, inside)
    sure = (points >= k) & (tau <= gap2) & ((2 * (marks - points + k) >= k) | (2 * marks < k))
    return sure, 2 * marks >= k


class KnnIndex:
    """Points with a mark each, held as their distinct positions sorted by (x, y), and a grid of their counts.

    Position i holds the points order[first[i]:first[i] + count[i]], in
    ascending index, marked[i] of them marked; marked_before[j] counts the
    marked points among order[:j], and is_marked[p] tells whether point p
    is marked.
    """

    def __init__(self, xy: np.ndarray, marked: np.ndarray):
        n = xy.shape[0]
        self.is_marked = marked
        self.order = np.lexsort((xy[:, 1], xy[:, 0]))
        x, y = xy[self.order, 0], xy[self.order, 1]
        new = np.ones(n, dtype=bool)
        new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
        self.first = np.flatnonzero(new)
        # int32, so that a batch's gathers of counts move half the bytes
        self.count = np.diff(self.first, append=n).astype(np.int32)
        self.x, self.y = x[self.first], y[self.first]
        self.marked_before = np.concatenate(([0], np.cumsum(marked[self.order])))
        self.marked = (self.marked_before[self.first + self.count] - self.marked_before[self.first]).astype(np.int32)

        finite = np.isfinite(self.x) & np.isfinite(self.y)
        fx, fy = self.x[finite], self.y[finite]
        self.x0, self.y0 = (float(fx.min()), float(fy.min())) if finite.any() else (0.0, 0.0)
        w, h = (float(fx.max()) - self.x0, float(fy.max()) - self.y0) if finite.any() else (0.0, 0.0)
        self.cell = max(math.sqrt(w * h / _GRID_CELLS), (w + h) / _GRID_CELLS) or 1.0
        self.shape = (int(w // self.cell) + 1, int(h // self.cell) + 1)
        grid = np.bincount(np.ravel_multi_index(self._cells(fx, fy), self.shape), self.count[finite],
                           self.shape[0] * self.shape[1]).reshape(self.shape)
        self.sat = np.pad(grid.cumsum(0).cumsum(1), ((1, 0), (1, 0)))  # points in the cells [0, i) x [0, j)

    def _cells(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The grid cell of each finite point, the nearest one for points outside the grid."""
        i = np.clip((x - self.x0) // self.cell, 0, self.shape[0] - 1)
        j = np.clip((y - self.y0) // self.cell, 0, self.shape[1] - 1)
        return i.astype(np.intp), j.astype(np.intp)

    def _guess(self, x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
        """A first half-width for each finite query: the radius of the disc that holds k points at the density
        between the smallest square of (2h + 1)^2 cells around the query's cell that holds k and the next smaller
        square, times _GUESS_MARGIN. Infinite when the grid holds fewer than k points."""
        i, j = self._cells(x, y)
        (nx, ny), sat = self.shape, self.sat

        def points(h):
            i0, i1 = np.clip(i - h, 0, nx), np.clip(i + h + 1, 0, nx)
            j0, j1 = np.clip(j - h, 0, ny), np.clip(j + h + 1, 0, ny)
            return np.where(h >= 0, sat[i1, j1] - sat[i0, j1] - sat[i1, j0] + sat[i0, j0], 0)

        lo, hi = np.zeros_like(i), np.full_like(i, max(nx, ny))
        while (lo < hi).any():
            mid = (lo + hi) // 2
            holds = points(mid) >= k
            lo, hi = np.where(holds, lo, mid + 1), np.where(holds, mid, hi)
        inner, outer = points(lo - 1), points(lo)
        a0, a1 = (np.maximum(2 * lo - 1, 0) * self.cell) ** 2, ((2 * lo + 1) * self.cell) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            area = a0 + (k - inner) / (outer - inner) * (a1 - a0)
        return np.where(outer >= k, _GUESS_MARGIN * np.sqrt(area / math.pi), math.inf)

    def majority(self, x: np.ndarray, y: np.ndarray, k: int, r: float | None = None) -> np.ndarray:
        """Whether at least half of the k nearest points of each query (x, y) are marked.

        A query with a NaN coordinate has no neighbours, none of them
        marked, which is half; when k is at least the number of points every
        point is a neighbour. r is the first half-width of every query's box,
        guessed from the grid when None; it does not change the result.
        """
        n = self.order.shape[0]
        if k >= n:
            return np.full(x.shape, 2 * int(self.marked_before[-1]) >= n)
        votes = np.ones(x.shape, dtype=bool)
        finite = np.isfinite(x) & np.isfinite(y)
        if r is None:
            r = self._guess(np.where(finite, x, 0.0), np.where(finite, y, 0.0), k)
        r = np.where(finite, r, math.inf)
        todo = np.flatnonzero(~(np.isnan(x) | np.isnan(y)))
        while todo.size:
            size = np.exp2(np.ceil(np.log2(np.maximum(r[todo], self.cell) / self.cell))) * self.cell / 4
            unbounded = np.isinf(size)
            key = np.column_stack((np.floor(np.where(unbounded, 0.0, x[todo]) / size),
                                   np.floor(np.where(unbounded, 0.0, y[todo]) / size), size))
            sort = np.lexsort(key.T)
            todo, key = todo[sort], key[sort]
            retry = []
            for rows in np.split(todo, np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1):
                if not self._settle_box(rows, x, y, k, r, votes):
                    retry += self._search_box(rows, x, y, k, r, votes)
            todo = np.concatenate(retry) if retry else todo[:0]
        return votes

    def _within(self, x0: float, x1: float, y0: float, y1: float) -> np.ndarray:
        """The positions in [x0, x1] x [y0, y1], in ascending order."""
        lo, hi = int(np.searchsorted(self.x, x0, "left")), int(np.searchsorted(self.x, x1, "right"))
        return lo + np.flatnonzero((self.y[lo:hi] >= y0) & (self.y[lo:hi] <= y1))

    def _settle_box(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, r: np.ndarray,
                    votes: np.ndarray) -> bool:
        """Settle the votes of the queries `rows` in one box together from its centre, as the module docstring says;
        False, with nothing written, when the ball leaves its square or the bounds straddle half."""
        rg = float(r[rows].max())
        if not rg < math.inf:
            return False
        qx, qy = x[rows], y[rows]
        cx, cy = 0.5 * (float(qx.min()) + float(qx.max())), 0.5 * (float(qy.min()) + float(qy.max()))
        delta = math.sqrt(float((np.square(qx - cx) + np.square(qy - cy)).max()))
        w = rg + 2 * delta
        x0, x1, y0, y1 = cx - w, cx + w, cy - w, cy + w
        cand = self._within(x0, x1, y0, y1)
        d2 = np.square(self.x[cand] - cx) + np.square(self.y[cand] - cy)
        order = np.argsort(d2)
        d2, cand = d2[order], cand[order]
        cum = np.cumsum(self.count[cand])
        if not cum.size or cum[-1] < k:
            return False
        b = (math.sqrt(float(d2[np.searchsorted(cum, k)])) + 2 * delta) * (1.0 + _BALL_REL) + _BALL_ABS
        gap = min(cx - x0, x1 - cx, cy - y0, y1 - cy)
        if not b * b < gap * gap:
            return False
        inside = int(np.searchsorted(d2, b * b, "right"))
        points, marks = int(cum[inside - 1]), int(self.marked[cand[:inside]].sum())
        sure = 2 * (marks - points + k) >= k or 2 * marks < k
        if sure:
            votes[rows] = 2 * marks >= k
        return sure

    def _search_box(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, r: np.ndarray,
                    votes: np.ndarray) -> list[np.ndarray]:
        """Search the queries `rows` in one box; write the votes of the certified ones, and give the others
        with their next half-width in r."""
        qx, qy, rg = x[rows], y[rows], float(r[rows].max())
        cand = np.arange(self.x.shape[0])
        if rg < math.inf:
            x0, x1, y0, y1 = float(qx.min()) - rg, float(qx.max()) + rg, float(qy.min()) - rg, float(qy.max()) + rg
            cand = self._within(x0, x1, y0, y1)
        if not cand.size:
            r[rows] = math.inf
            return [rows]
        whole = cand.shape[0] == self.x.shape[0]
        px, py, cand_count, cand_marked = self.x[cand], self.y[cand], self.count[cand], self.marked[cand]
        c = cand.shape[0]
        # the fewest positions that can hold k points, and one more to see a tie past the k-th point
        m = min(c, int(np.searchsorted(np.cumsum(np.sort(cand_count)), k)) + 2)
        step = max(1, _BATCH // c)
        retry = []
        for b0 in range(0, rows.shape[0], step):
            batch = rows[b0:b0 + step]
            bx, by, b = x[batch], y[batch], batch.shape[0]
            d2 = np.subtract.outer(bx, px)
            d2 *= d2
            dy = np.subtract.outer(by, py)
            dy *= dy
            d2 += dy
            del dy  # before the argpartition's index matrix: the heap this search grows is kept after it
            base = np.arange(0, b * c, c)[:, None]
            # each row's m nearest positions, copied whole: gathers by a strided view of them ran slower
            ids = np.argpartition(d2, m - 1, axis=1)[:, :m].copy() if c > m else np.tile(np.arange(c), (b, 1))
            d2 = d2.ravel()
            gap2 = np.full(b, math.inf)
            if not whole:
                gap2 = np.square(np.minimum(np.minimum(bx - x0, x1 - bx), np.minimum(by - y0, y1 - by)))
            dm, count, mark = d2.take(ids + base), cand_count.take(ids), cand_marked.take(ids)
            m2 = min(m, math.ceil(1.2 * k * count.size / count.sum()))
            sure, vote = _certify(dm, count, mark, np.partition(dm, m2 - 1, axis=1)[:, m2 - 1], k, gap2)
            votes[batch[sure]] = vote[sure]
            rest = np.flatnonzero(~sure)
            sure, vote = _certify(dm[rest], count[rest], mark[rest], dm[rest].max(axis=1), k, gap2[rest])
            votes[batch[rest[sure]]] = vote[sure]
            rest = rest[~sure]
            if not rest.size:
                continue
            # the rows left are ranked: their k nearest points are counted
            batch, gap2, base, b = batch[rest], gap2[rest], base[rest], rest.shape[0]
            near = ids[rest] + base
            near = near.take(np.argsort(d2.take(near), axis=1) + np.arange(0, b * m, m)[:, None])
            ids = near - base  # each row's m nearest positions, nearest first
            cum = np.cumsum(cand_count.take(ids), axis=1)
            at, t = np.arange(b), np.argmax(cum >= k, axis=1)  # t: the column of the k-th point
            dk, enough = d2[near[at, t]], cum[:, -1] >= k
            sure = np.ones(b, dtype=bool)
            if not whole:
                sure = enough & (dk < gap2)
                wider = np.where(enough, np.sqrt(dk) * (1.0 + _RETRY_EPS), math.inf)
                r[batch] = np.where(wider > rg, wider, math.inf)
                retry.append(batch[~sure])
            # t's position is the only one at dk when the column before it is nearer and the one after it
            # farther; every position past the m columns is at least as far as the last of them
            alone = (((t == 0) | (d2[near[at, t - 1]] < dk))
                     & ((t + 1 == m) | (d2[near[at, np.minimum(t + 1, m - 1)]] > dk)))
            done = np.flatnonzero(sure & alone)
            t = t[done]
            nearer = np.where(t > 0, cum[done, t - 1], 0)
            nearer_marked = np.cumsum(cand_marked.take(ids[done]), axis=1)[np.arange(done.shape[0]), t - 1]
            first = self.first[cand[ids[done, t]]]
            tied_marked = self.marked_before[first + k - nearer] - self.marked_before[first]
            votes[batch[done]] = 2 * (np.where(t > 0, nearer_marked, 0) + tied_marked) >= k
            for i in np.flatnonzero(sure & ~alone).tolist():
                marked, total = self._tied_counts(cand, d2[base[i, 0]:base[i, 0] + c], dk[i], k)
                votes[batch[i]] = 2 * marked >= total
        return retry

    def _tied_counts(self, cand: np.ndarray, d2: np.ndarray, dk: float, k: int) -> tuple[int, int]:
        """The counts of one query with squared distances d2 to the positions cand when several positions are at
        its k-th distance dk: the points at dk are taken in ascending index."""
        nearer, tied = cand[d2 < dk], cand[d2 == dk]
        points = np.concatenate([self.order[f:f + c] for f, c in zip(self.first[tied], self.count[tied])]
                                + [np.zeros(0, dtype=np.intp)])
        points = np.sort(points)[:k - int(self.count[nearer].sum())]
        return (int(self.marked[nearer].sum()) + int(np.count_nonzero(self.is_marked[points])),
                int(self.count[nearer].sum()) + points.shape[0])
