package frame

import "sync"

// Frame arena: sync.Pool-backed recycling of whole frames, keyed by
// dimensions. The codec and SR hot paths build one or more full frames
// per input frame (motion-compensated predictions, upscaled residuals,
// reference slots); borrowing them from the arena removes that steady
// per-frame allocation pressure.
//
// Borrowed frames have ARBITRARY pixel contents. Callers must overwrite
// every sample they later read, or call the plane Fill helpers first.
// Release is only safe for frames the caller owns exclusively and that
// were allocated by New/MustNew/Borrow/Clone (compact-stride planes);
// releasing a frame that anyone else still references is a correctness
// bug, whereas forgetting to release one merely falls back to the GC.

var framePools sync.Map // [2]int{w, h} -> *sync.Pool

func arenaPool(w, h int) *sync.Pool {
	key := [2]int{w, h}
	if p, ok := framePools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := framePools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// Borrow returns a w×h frame from the arena with undefined pixel
// contents. It panics on non-positive dimensions, like MustNew.
func Borrow(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(ErrBadDimensions)
	}
	if v := arenaPool(w, h).Get(); v != nil {
		return v.(*Frame)
	}
	cw, ch := (w+1)/2, (h+1)/2
	return &Frame{
		W: w, H: h,
		Y: NewPlane(w, h),
		U: NewPlane(cw, ch),
		V: NewPlane(cw, ch),
	}
}

// BorrowZero is Borrow plus the New() initialization: black luma and
// neutral (128) chroma.
func BorrowZero(w, h int) *Frame {
	f := Borrow(w, h)
	f.Y.Fill(0)
	f.U.Fill(128)
	f.V.Fill(128)
	return f
}

// BorrowCopy is Clone from the arena: a compact copy of f that the caller
// owns and may Release.
func BorrowCopy(f *Frame) *Frame {
	c := Borrow(f.W, f.H)
	for i, p := range c.Planes() {
		_ = p.CopyFrom(f.Planes()[i]) // same geometry by construction
	}
	return c
}

// Release returns f to the arena for reuse. A nil frame is ignored.
// Frames with aliased (non-compact) planes are dropped rather than
// pooled, since a future Borrow must hand out independent storage.
func Release(f *Frame) {
	if f == nil {
		return
	}
	if f.Y.Stride != f.Y.W || f.U.Stride != f.U.W || f.V.Stride != f.V.W {
		return
	}
	arenaPool(f.W, f.H).Put(f)
}
