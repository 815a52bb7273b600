package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refImage is the word-map image the paged Image replaced, kept as the
// oracle: one map entry per nonzero word.
type refImage struct {
	words map[uint64]uint64
	brk   uint64
}

func (r *refImage) W64(addr, v uint64) {
	if addr%WordBytes != 0 {
		panic("unaligned")
	}
	if v == 0 {
		delete(r.words, addr)
		return
	}
	r.words[addr] = v
}

func (r *refImage) R64(addr uint64) uint64 {
	if addr%WordBytes != 0 {
		panic("unaligned")
	}
	return r.words[addr]
}

func (r *refImage) Alloc(n, align uint64) uint64 {
	if align < WordBytes || align&(align-1) != 0 {
		panic("bad alignment")
	}
	base := (r.brk + align - 1) &^ (align - 1)
	r.brk = base + n
	return base
}

// opReader decodes an operation stream from bytes; reads past the end
// yield zero.
type opReader struct{ b []byte }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// addr picks an address from a few regions: around page boundaries,
// far apart, and at the top of the address space, where a multi-word
// access wraps to zero. One in eight is unaligned.
func (r *opReader) addr() uint64 {
	sel, off := r.byte(), uint64(r.byte())
	var a uint64
	switch sel % 4 {
	case 0: // either side of a page boundary
		a = uint64(1+sel/4%4)*4096 + off*WordBytes - 64*WordBytes
	case 1: // far apart: one page in each of 32 widely spaced regions
		a = uint64(sel/4%32)<<36 | off*WordBytes
	case 2: // the last page of the address space
		a = ^uint64(0) - 4095 + off*WordBytes%4096
	default:
		a = 0x1000 + off*WordBytes
	}
	if sel>>5 == 7 {
		a += 1 + uint64(off%7)
	}
	return a
}

func (r *opReader) value() uint64 {
	if v := r.byte(); v%3 != 0 {
		return uint64(v) << (v % 57)
	}
	return 0 // zero writes and overwrites to zero
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// checkImageOps replays an operation stream on an Image and the map
// oracle and reports the first disagreement: a read, a Footprint, an
// allocation or whether the operation panicked.
func checkImageOps(data []byte) error {
	im, ref := NewImage(), &refImage{words: map[uint64]uint64{}, brk: 0x1000}
	r := &opReader{b: data}
	for step := 0; len(r.b) > 0; step++ {
		op, addr := r.byte()%5, r.addr()
		var got, want any
		var desc string
		switch op {
		case 0:
			v := r.value()
			desc = fmt.Sprintf("W64(%#x, %#x)", addr, v)
			got, want = panics(func() { im.W64(addr, v) }), panics(func() { ref.W64(addr, v) })
		case 1:
			desc = fmt.Sprintf("R64(%#x)", addr)
			var g, w uint64
			gp, wp := panics(func() { g = im.R64(addr) }), panics(func() { w = ref.R64(addr) })
			got, want = [2]any{gp, g}, [2]any{wp, w}
		case 2:
			n := int(r.byte() % 80)
			desc = fmt.Sprintf("ReadWords(%#x, %d)", addr, n)
			var g, w []uint64
			gp := panics(func() { g = im.ReadWords(addr, n) })
			wp := panics(func() {
				w = make([]uint64, n)
				for i := range w {
					w[i] = ref.R64(addr + uint64(i)*WordBytes)
				}
			})
			if gp == wp && !gp && (!slices.Equal(g, w) || len(g) != n) {
				return fmt.Errorf("step %d %s: %v, want %v", step, desc, g, w)
			}
			if len(g) > 0 {
				g[0]++ // the result must be a fresh copy, not the image's page
				if im.R64(addr) != w[0] {
					return fmt.Errorf("step %d %s: writing the result changed the image", step, desc)
				}
			}
			got, want = gp, wp
		case 3:
			ws := make([]uint64, r.byte()%80)
			for i := range ws {
				ws[i] = r.value()
			}
			desc = fmt.Sprintf("WriteWords(%#x, %d words)", addr, len(ws))
			got = panics(func() { im.WriteWords(addr, ws) })
			want = panics(func() {
				for i, w := range ws {
					ref.W64(addr+uint64(i)*WordBytes, w)
				}
			})
		case 4:
			n, align := uint64(r.byte())*40, uint64(1)<<(r.byte()%14)
			desc = fmt.Sprintf("Alloc(%d, %d)", n, align)
			var g, w uint64
			gp, wp := panics(func() { g = im.Alloc(n, align) }), panics(func() { w = ref.Alloc(n, align) })
			got, want = [3]any{gp, g, im.Brk()}, [3]any{wp, w, ref.brk}
		}
		if got != want {
			return fmt.Errorf("step %d %s: got %v, want %v", step, desc, got, want)
		}
		if im.Footprint() != len(ref.words) {
			return fmt.Errorf("step %d %s: Footprint %d, want %d", step, desc, im.Footprint(), len(ref.words))
		}
	}
	for a, w := range ref.words {
		if g := im.R64(a); g != w {
			return fmt.Errorf("final R64(%#x) = %#x, want %#x", a, g, w)
		}
	}
	return nil
}

// TestImageMatchesWordMap is the property form of the oracle: random
// operation streams must leave the paged image and the word map agreeing.
func TestImageMatchesWordMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 50+rng.Intn(800))
		rng.Read(data)
		if err := checkImageOps(data); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
}

// FuzzImage runs the oracle over fuzzed operation streams.
func FuzzImage(f *testing.F) {
	f.Add([]byte{0, 0, 10, 9, 2, 0, 8, 40, 0, 0, 10, 3, 1, 0, 10})
	f.Add([]byte{3, 2, 0, 70, 5, 9, 1, 1, 2, 2, 0, 60, 1, 255, 4})
	f.Add([]byte{0, 224, 3, 9, 1, 225, 5, 2, 226, 0, 0, 3, 227, 1, 0, 4, 0, 3, 3})
	f.Add([]byte{4, 0, 200, 3, 4, 0, 1, 1, 3, 1, 9, 16, 7, 7, 7, 7, 2, 1, 9, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkImageOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
