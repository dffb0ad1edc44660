package footprint

import (
	"sync"

	"looppart/internal/intmat"
	"looppart/internal/tile"
)

// Exact image counting on integers: the production path behind the
// enumeration fallbacks (enumerateRect, enumerateTile). It returns the
// same count as ExactClassFootprint — |∪_r {p·G + a_r}| over the tile's
// iteration points — without building a key per datum:
//
//   - interval arithmetic over the iteration box bounds every data
//     column's image, so each datum the tile touches lies in one data box;
//   - a datum's linear index into that box is affine in p, so the walk
//     steps it by one precomputed stride per loop increment and each
//     reference adds a constant offset;
//   - the indices are recorded in a pooled dense bitset, or in a
//     map[int64] when the box is sparse relative to the walk.
//
// Any overflow while sizing the box or the strides declines (ok=false)
// and the caller runs the string-keyed oracle unchanged, so the oracle's
// checked-arithmetic panics stay where they were. ExactClassFootprint
// remains the independent oracle the tests and internal/verify compare
// this counter against; it never calls back into this file.

// The dense bitset is used when the data box has at most
// max(minDenseBits, denseBitsPerPair · points · refs) bits: one byte per
// recorded (point, reference) pair at most, so the bitset never outgrows
// what the walk itself touches. Sparser boxes — rank-deficient images
// spread over several data columns — count in a map sized by the image.
const (
	denseBitsPerPair = 8
	minDenseBits     = 1 << 15
)

// maxIndexBox bounds the data box so that any two walk indices differ by
// less than 2^63.
const maxIndexBox = 1 << 62

// maxMemberTerm bounds the tile-membership sums of skewed walks, so the
// row-range arithmetic (negation, den − 1 − m) cannot overflow.
const maxMemberTerm = 1 << 61

// imageWalk is one box of iteration points prepared for counting: the
// linear data index of point p and reference r is
// base + Σ_j (p_j − lo_j)·step_j + offs[r], always in [0, size).
type imageWalk struct {
	span []int64 // points per loop dimension (hi − lo + 1)
	step []int64 // index stride per loop dimension
	back []int64 // (span − 1)·step: the rewind when a dimension wraps
	base int64   // index at the box's first point, before the offset
	offs []int64 // per-reference index offset
	size int64   // data box volume

	// Skewed tiles only (mem == nil for rectangles): the walked point p
	// belongs to the origin tile iff 0 ≤ mem_j(p) < den for every j —
	// tile.Tiling's scaled inverse — with mem stepped like the index.
	mem     []int64
	memStep [][]int64 // memStep[j][k]: change of mem_j per increment of p_k
	memBack [][]int64 // (span_k − 1)·memStep[j][k]
	den     int64
}

// newImageWalk prepares the box lo ≤ p ≤ hi (which must contain the
// origin) for the references refs of matrix g, or reports false when the
// data box or any stride is not representable.
func newImageWalk(g intmat.Mat, refs []Ref, lo, hi []int64) (imageWalk, bool) {
	l, d := g.Rows(), g.Cols()
	w := imageWalk{
		span: make([]int64, l),
		step: make([]int64, l),
		back: make([]int64, l),
		offs: make([]int64, len(refs)),
	}
	for j := 0; j < l; j++ {
		if lo[j] > 0 || hi[j] < 0 {
			return imageWalk{}, false
		}
		s, ok := checkedSub(hi[j], lo[j])
		if !ok || s >= maxIndexBox {
			return imageWalk{}, false
		}
		w.span[j] = s + 1
	}
	stride := int64(1)
	for k := 0; k < d; k++ {
		// Column k's image over the box: [gmin + amin, gmax + amax].
		var gmin, gmax int64
		for j := 0; j < l; j++ {
			a, ok1 := intmat.CheckedMul(lo[j], g.At(j, k))
			b, ok2 := intmat.CheckedMul(hi[j], g.At(j, k))
			if !ok1 || !ok2 {
				return imageWalk{}, false
			}
			var ok3, ok4 bool
			gmin, ok3 = intmat.CheckedAdd(gmin, min(a, b))
			gmax, ok4 = intmat.CheckedAdd(gmax, max(a, b))
			if !ok3 || !ok4 {
				return imageWalk{}, false
			}
		}
		amin, amax := refs[0].A[k], refs[0].A[k]
		for _, r := range refs[1:] {
			amin, amax = min(amin, r.A[k]), max(amax, r.A[k])
		}
		dlo, ok1 := intmat.CheckedAdd(gmin, amin)
		dhi, ok2 := intmat.CheckedAdd(gmax, amax)
		if !ok1 || !ok2 {
			return imageWalk{}, false
		}
		width, ok := checkedSub(dhi, dlo)
		if !ok || width >= maxIndexBox {
			return imageWalk{}, false
		}
		for j := 0; j < l; j++ {
			if w.span[j] == 1 {
				continue // p_j is pinned at 0: its stride never applies
			}
			t, ok1 := intmat.CheckedMul(g.At(j, k), stride)
			s, ok2 := intmat.CheckedAdd(w.step[j], t)
			if !ok1 || !ok2 {
				return imageWalk{}, false
			}
			w.step[j] = s
		}
		for i, r := range refs {
			t, ok1 := intmat.CheckedMul(r.A[k]-dlo, stride)
			s, ok2 := intmat.CheckedAdd(w.offs[i], t)
			if !ok1 || !ok2 {
				return imageWalk{}, false
			}
			w.offs[i] = s
		}
		stride, ok = intmat.CheckedMul(stride, width+1)
		if !ok || stride > maxIndexBox {
			return imageWalk{}, false
		}
	}
	w.size = stride
	for j := 0; j < l; j++ {
		t, ok1 := intmat.CheckedMul(lo[j], w.step[j])
		b, ok2 := intmat.CheckedAdd(w.base, t)
		back, ok3 := intmat.CheckedMul(w.span[j]-1, w.step[j])
		if !ok1 || !ok2 || !ok3 {
			return imageWalk{}, false
		}
		w.base, w.back[j] = b, back
	}
	return w, true
}

// checkedSub returns a − b and whether it is representable in int64.
func checkedSub(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// rectWalk prepares the origin rectangle with the given extents.
func rectWalk(g intmat.Mat, refs []Ref, ext []int64) (imageWalk, bool) {
	lo := make([]int64, len(ext))
	hi := make([]int64, len(ext))
	for k, e := range ext {
		if e <= 0 {
			return imageWalk{}, false
		}
		hi[k] = e - 1
	}
	return newImageWalk(g, refs, lo, hi)
}

// tileWalk prepares the origin tile of t (tile.OriginPoints' point set):
// the bounding box of its vertices, filtered by tile membership.
func tileWalk(g intmat.Mat, refs []Ref, t tile.Tile) (imageWalk, bool) {
	l := t.Dim()
	tl, err := tile.NewTiling(t, make([]int64, l))
	if err != nil {
		return imageWalk{}, false
	}
	num, den, ok := tl.ScaledInverse()
	if !ok || den > maxMemberTerm {
		return imageWalk{}, false
	}
	lo := make([]int64, l)
	hi := make([]int64, l)
	for j := 0; j < l; j++ {
		for i := 0; i < l; i++ {
			v := t.L.At(i, j)
			var ok bool
			if v < 0 {
				lo[j], ok = intmat.CheckedAdd(lo[j], v)
			} else {
				hi[j], ok = intmat.CheckedAdd(hi[j], v)
			}
			if !ok {
				return imageWalk{}, false
			}
		}
	}
	w, ok := newImageWalk(g, refs, lo, hi)
	if !ok {
		return imageWalk{}, false
	}
	w.den = den
	w.mem = make([]int64, l)
	w.memStep = make([][]int64, l)
	w.memBack = make([][]int64, l)
	for j := 0; j < l; j++ {
		w.memStep[j] = num[j]
		w.memBack[j] = make([]int64, l)
		// mem_j over the box stays within [mmin, mmax]; bounding that
		// range bounds every intermediate of the walk and the row ranges.
		var mmin, mmax int64
		for k := 0; k < l; k++ {
			a, ok1 := intmat.CheckedMul(lo[k], num[j][k])
			b, ok2 := intmat.CheckedMul(hi[k], num[j][k])
			back, ok3 := intmat.CheckedMul(w.span[k]-1, num[j][k])
			if !ok1 || !ok2 || !ok3 || num[j][k] < -maxMemberTerm || num[j][k] > maxMemberTerm {
				return imageWalk{}, false
			}
			var ok4, ok5, ok6 bool
			mmin, ok4 = intmat.CheckedAdd(mmin, min(a, b))
			mmax, ok5 = intmat.CheckedAdd(mmax, max(a, b))
			w.mem[j], ok6 = intmat.CheckedAdd(w.mem[j], a)
			if !ok4 || !ok5 || !ok6 || mmin < -maxMemberTerm || mmax > maxMemberTerm {
				return imageWalk{}, false
			}
			w.memBack[j][k] = back
		}
	}
	return w, true
}

// points returns the number of points in the walked box.
func (w *imageWalk) points() int64 {
	n := int64(1)
	for _, s := range w.span {
		n = intmat.SatMul(n, s)
	}
	return n
}

// count walks the box and returns the number of distinct data indices
// over all references, the number over the first reference alone when
// withSingle (0 otherwise), and the number of member points walked.
func (w *imageWalk) count(withSingle bool) (union, single, points int64) {
	pairs := intmat.SatMul(w.points(), int64(len(w.offs)))
	set := newImageSet(w.size, pairs)
	defer set.release()
	var first *imageSet
	if withSingle {
		s := newImageSet(w.size, pairs)
		defer s.release()
		first = &s
	}

	l := len(w.span)
	in := l - 1
	n, stepIn := w.span[in], w.step[in]
	ctr := make([]int64, l)
	mem := append([]int64(nil), w.mem...)
	b := w.base
	for {
		ilo, ihi := int64(0), n-1
		for j, m := range mem {
			ilo, ihi = rowRange(m, w.memStep[j][in], w.den, ilo, ihi)
		}
		if ilo <= ihi {
			x := b + ilo*stepIn
			for i := ilo; i <= ihi; i++ {
				for _, o := range w.offs {
					set.add(x + o)
				}
				if first != nil {
					first.add(x + w.offs[0])
				}
				x += stepIn
			}
			points += ihi - ilo + 1
		}
		// Advance the outer dimensions like an odometer.
		k := in - 1
		for ; k >= 0; k-- {
			if ctr[k]+1 < w.span[k] {
				ctr[k]++
				b += w.step[k]
				for j := range mem {
					mem[j] += w.memStep[j][k]
				}
				break
			}
			ctr[k] = 0
			b -= w.back[k]
			for j := range mem {
				mem[j] -= w.memBack[j][k]
			}
		}
		if k < 0 {
			break
		}
	}
	union = set.len()
	if first != nil {
		single = first.len()
	}
	return union, single, points
}

// rowRange narrows [ilo, ihi] to the steps i with 0 ≤ m + i·s < den.
func rowRange(m, s, den, ilo, ihi int64) (int64, int64) {
	switch {
	case s == 0:
		if m < 0 || m >= den {
			return 0, -1
		}
	case s > 0:
		ilo = max(ilo, ceilDiv(-m, s))
		ihi = min(ihi, floorDiv(den-1-m, s))
	default:
		ilo = max(ilo, ceilDiv(m-den+1, -s))
		ihi = min(ihi, floorDiv(m, -s))
	}
	return ilo, ihi
}

// floorDiv and ceilDiv round a/b toward −∞ and +∞ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// imageSet is a set of data indices in [0, size): a dense bitset drawn
// from bitsetPool, or a map when the box is too sparse to be worth one.
type imageSet struct {
	bits []uint64
	n    int64
	buf  *[]uint64
	m    map[int64]struct{}
}

// bitsetPool recycles zeroed bitsets across queries; a search scores
// hundreds of candidates of similar size on a few workers.
var bitsetPool = sync.Pool{New: func() any { return new([]uint64) }}

func newImageSet(size, pairs int64) imageSet {
	if size > max(minDenseBits, intmat.SatMul(denseBitsPerPair, pairs)) {
		return imageSet{m: make(map[int64]struct{})}
	}
	words := int((size + 63) / 64)
	buf := bitsetPool.Get().(*[]uint64)
	if cap(*buf) < words {
		*buf = make([]uint64, words)
	}
	return imageSet{bits: (*buf)[:words], buf: buf}
}

func (s *imageSet) add(i int64) {
	if s.bits == nil {
		s.m[i] = struct{}{}
		return
	}
	w := &s.bits[uint64(i)>>6]
	bit := uint64(1) << (uint64(i) & 63)
	if *w&bit == 0 {
		*w |= bit
		s.n++
	}
}

func (s *imageSet) len() int64 {
	if s.bits == nil {
		return int64(len(s.m))
	}
	return s.n
}

// release zeroes the bitset and returns it to the pool.
func (s *imageSet) release() {
	if s.buf == nil {
		return
	}
	clear(s.bits)
	bitsetPool.Put(s.buf)
}

// CountRectImage returns the exact cumulative footprint of c over the
// origin rectangle with the given extents — the value of
// ExactClassFootprintFunc over that rectangle — counted on integers. ok
// is false when the data box or its strides overflow int64 (or an extent
// is not positive); the caller must then fall back to the oracle.
func CountRectImage(c Class, ext []int64) (int64, bool) {
	w, ok := rectWalk(c.G, c.Refs, ext)
	if !ok {
		return 0, false
	}
	n, _, _ := w.count(false)
	return n, true
}

// CountTileImage is CountRectImage for the origin tile of a
// hyperparallelepiped tiling: the value of ExactClassFootprint over
// tile.OriginPoints(t), or ok=false when the counter declines.
func CountTileImage(c Class, t tile.Tile) (int64, bool) {
	w, ok := tileWalk(c.G, c.Refs, t)
	if !ok {
		return 0, false
	}
	n, _, _ := w.count(false)
	return n, true
}
