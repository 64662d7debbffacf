package mining

import (
	"fmt"
	"math"

	"openbi/internal/table"
)

// KNN is a k-nearest-neighbour classifier over the heterogeneous
// Gower-style distance (scaled numeric difference + nominal mismatch).
// As the lazy-learning representative it is the suite's canary for the
// dimensionality and attribute-noise criteria: every irrelevant or noised
// attribute dilutes its distance function directly, a dependence the E-DIM
// and Phase-1 experiments make visible.
//
// Prediction runs as a columnar kernel: Fit gathers each training
// attribute into a dense vector (range scale attached), Predict computes
// all candidate distances attribute-major into a reused buffer, and a
// bounded max-heap selects the k nearest. Neighbour ties at equal distance
// resolve by training order (earlier training instances win), which is
// exactly the behaviour of the historical insertion-into-sorted-slice
// implementation for every k <= 12 the suite uses.
type KNN struct {
	// K is the neighbourhood size (default 5). Like Weighted, set it
	// before Fit: Proba may reuse the votes Predict computed for a row.
	K int
	// Weighted applies 1/(d+eps) distance weighting to votes.
	Weighted bool

	train    *Dataset
	labeled  []int
	fallback int

	// Columnar kernel state built by Fit: one dense vector per attribute
	// over the labeled training rows, in AttrCols order.
	attrs []knnAttr

	// Scratch reused across Predict/Proba calls (a classifier instance is
	// confined to one goroutine by the Factory-per-fold contract).
	distBuf  []float64
	heapBuf  []knnCand
	votesBuf []float64
	scored   scoredRow // the row votesBuf holds
}

// knnAttr is one training attribute gathered into dense candidate-major
// storage: vals for numeric columns (NaN = missing), cats for nominal
// (table.MissingCat = missing).
type knnAttr struct {
	col     int // dataset column index (query side reads through this)
	numeric bool
	span    float64 // numeric range for scaling; 0 = constant/unknown
	vals    []float64
	cats    []int32
}

// knnCand is one neighbour candidate: its distance and its arrival order
// (index into the labeled slice), the tie-break key.
type knnCand struct {
	d   float64
	seq int32
}

// NewKNN returns an unfitted 5-NN.
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Name implements Classifier.
func (kn *KNN) Name() string {
	return fmt.Sprintf("%d-nn", kn.k())
}

func (kn *KNN) k() int {
	if kn.K <= 0 {
		return 5
	}
	return kn.K
}

// Fit memorizes the training data, its numeric ranges, and gathers every
// attribute into a dense per-candidate vector for the distance kernel.
func (kn *KNN) Fit(ds *Dataset) error {
	kn.scored.reset()
	labeled := ds.LabeledRows()
	if len(labeled) == 0 {
		return fmt.Errorf("knn: no labeled instances")
	}
	kn.train = ds
	kn.labeled = labeled
	kn.fallback = ds.MajorityClass()

	ranges := ds.attrRanges()
	kn.attrs = kn.attrs[:0]
	for _, j := range ds.AttrCols() {
		col := ds.col(j)
		a := knnAttr{col: j, numeric: col.Kind == table.Numeric}
		if a.numeric {
			a.span = ranges[j].span
			a.vals = make([]float64, len(labeled))
			for i, r := range labeled {
				a.vals[i] = col.Nums[ds.row(r)] // NaN encodes missing
			}
		} else {
			a.cats = make([]int32, len(labeled))
			for i, r := range labeled {
				a.cats[i] = int32(col.Cats[ds.row(r)])
			}
		}
		kn.attrs = append(kn.attrs, a)
	}
	return nil
}

// distances fills kn.distBuf with the Gower-style distance from row r of
// ds to every labeled training candidate. Contributions accumulate
// attribute-major in AttrCols order — the same per-candidate addition
// sequence as the historical per-candidate loop, so sums are bit-identical.
func (kn *KNN) distances(ds *Dataset, r int) []float64 {
	n := len(kn.labeled)
	if cap(kn.distBuf) < n {
		kn.distBuf = make([]float64, n)
	}
	dist := kn.distBuf[:n]
	for i := range dist {
		dist[i] = 0
	}
	rb := ds.row(r)
	for ai := range kn.attrs {
		a := &kn.attrs[ai]
		qcol := ds.col(a.col)
		if qcol.IsMissing(rb) {
			// Missing on the query side: every pair pays the maximal 1.
			for i := range dist {
				dist[i]++
			}
			continue
		}
		if a.numeric {
			q := qcol.Nums[rb]
			span := a.span
			for i, v := range a.vals {
				if math.IsNaN(v) {
					dist[i]++
					continue
				}
				if span == 0 {
					continue
				}
				d := math.Abs(v-q) / span
				if d > 1 {
					d = 1
				}
				dist[i] += d
			}
			continue
		}
		q := int32(qcol.Cats[rb])
		for i, c := range a.cats {
			if c == table.MissingCat || c != q {
				dist[i]++
			}
		}
	}
	return dist
}

// nearest selects the k nearest candidates from dist via a bounded
// max-heap ordered by (distance, training order) and returns them sorted
// ascending by that key — i.e. the k lexicographically smallest
// (d, arrival) pairs, matching a stable full sort of all candidates.
func (kn *KNN) nearest(dist []float64) []knnCand {
	k := kn.k()
	if cap(kn.heapBuf) < k {
		kn.heapBuf = make([]knnCand, 0, k)
	}
	h := kn.heapBuf[:0]
	for i, d := range dist {
		c := knnCand{d: d, seq: int32(i)}
		if len(h) < k {
			h = append(h, c)
			siftUp(h, len(h)-1)
			continue
		}
		// h[0] is the max by (d, seq); a later arrival replaces it only on
		// strictly smaller distance (an equal distance loses the (d, seq)
		// comparison to every incumbent, whose seq is necessarily smaller).
		if d < h[0].d {
			h[0] = c
			siftDown(h, 0)
		}
	}
	kn.heapBuf = h
	// Insertion-sort the k winners ascending by (d, seq) so vote
	// accumulation order matches the historical sorted-slice walk.
	for i := 1; i < len(h); i++ {
		c := h[i]
		j := i - 1
		for j >= 0 && candLess(c, h[j]) {
			h[j+1] = h[j]
			j--
		}
		h[j+1] = c
	}
	return h
}

// candLess orders candidates by (distance, training order).
func candLess(a, b knnCand) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.seq < b.seq
}

func siftUp(h []knnCand, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []knnCand, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && candLess(h[big], h[l]) {
			big = l
		}
		if r < n && candLess(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// neighbourVotes returns per-class vote mass for row r of ds. The returned
// slice is scratch owned by the classifier; callers must not retain it.
// Asked again for the row it last scored, it returns the held votes.
func (kn *KNN) neighbourVotes(ds *Dataset, r int) []float64 {
	nc := kn.train.NumClasses()
	if kn.scored.holds(ds, r) {
		return kn.votesBuf[:nc]
	}
	best := kn.nearest(kn.distances(ds, r))
	if cap(kn.votesBuf) < nc {
		kn.votesBuf = make([]float64, nc)
	}
	votes := kn.votesBuf[:nc]
	for i := range votes {
		votes[i] = 0
	}
	for _, nb := range best {
		w := 1.0
		if kn.Weighted {
			w = 1 / (nb.d + 1e-9)
		}
		votes[kn.train.Label(kn.labeled[nb.seq])] += w
	}
	kn.scored.set(ds, r)
	return votes
}

// Predict returns the (optionally distance-weighted) majority vote among
// the k nearest training instances.
func (kn *KNN) Predict(ds *Dataset, r int) int {
	votes := kn.neighbourVotes(ds, r)
	if len(votes) == 0 {
		return kn.fallback
	}
	return argmax(votes)
}

// Proba returns the normalized vote distribution (freshly allocated; safe
// for callers to retain).
func (kn *KNN) Proba(ds *Dataset, r int) []float64 {
	return normalize(append([]float64(nil), kn.neighbourVotes(ds, r)...))
}
