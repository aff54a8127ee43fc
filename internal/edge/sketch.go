// Package edge implements the fanout delivery tier of NeuroScaler: a
// cache server that sits between viewers and the media origin, serving
// enhanced anchor containers out of one in-memory LRU so that one
// GPU enhancement pass is amortized across every viewer of a chunk (the
// paper's core economics, Section 5.3). Cold chunks are fetched from
// the origin with single-flight coalescing — N concurrent viewers
// missing the same chunk cost exactly one upstream fetch — and cache
// admission is popularity-weighted by a compact frequency sketch, so a
// flash crowd on one stream cannot wash the working set of every other
// stream out of memory.
package edge

// sketch is a count-min sketch with 4 rows of saturating 8-bit
// counters: a compact approximate frequency table in the TinyLFU
// style. Admission compares a candidate's estimate against the LRU
// victim's, so one byte per counter and a periodic halving (which ages
// stale popularity away) is all the precision needed. Callers hold the
// cache's lock; the sketch itself is not goroutine-safe.
type sketch struct {
	rows [sketchRows][]uint8
	mask uint64
	// adds counts touches since the last halving; when it reaches
	// sample the counters decay, keeping estimates fresh under churn.
	adds   uint64
	sample uint64
}

const sketchRows = 4

// newSketch sizes the sketch for roughly `counters` tracked keys,
// rounding the row width up to a power of two. The decay sample is 8x
// the width: each key is halved after the cache has seen about eight
// full turnovers of accesses.
func newSketch(counters int) *sketch {
	width := 64
	for width < counters {
		width <<= 1
	}
	s := &sketch{mask: uint64(width - 1), sample: uint64(width) * 8}
	for i := range s.rows {
		s.rows[i] = make([]uint8, width)
	}
	return s
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit
// mixer. Row indices are derived by double hashing from its two
// halves.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// touch counts one access of key hash h.
func (s *sketch) touch(h uint64) {
	h = mix(h)
	h1, h2 := h, h>>32|1
	for i := range s.rows {
		idx := (h1 + uint64(i)*h2) & s.mask
		if s.rows[i][idx] < 255 {
			s.rows[i][idx]++
		}
	}
	s.adds++
	if s.adds >= s.sample {
		s.halve()
	}
}

// estimate returns the approximate access count of key hash h: the
// minimum across rows, which bounds the overestimate from collisions.
func (s *sketch) estimate(h uint64) uint8 {
	h = mix(h)
	h1, h2 := h, h>>32|1
	min := uint8(255)
	for i := range s.rows {
		idx := (h1 + uint64(i)*h2) & s.mask
		if c := s.rows[i][idx]; c < min {
			min = c
		}
	}
	return min
}

// halve decays every counter by half, aging out stale popularity so a
// stream that was hot an hour ago cannot forever outbid today's
// traffic.
func (s *sketch) halve() {
	for i := range s.rows {
		row := s.rows[i]
		for j := range row {
			row[j] >>= 1
		}
	}
	s.adds = 0
}
