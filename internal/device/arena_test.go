package device

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"dcgn/internal/sim"
)

func TestArenaAllocBasics(t *testing.T) {
	a := NewArena(1 << 20)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == Null {
		t.Fatal("allocation at null pointer")
	}
	if int64(p1)%allocAlign != 0 {
		t.Fatalf("misaligned pointer %#x", int64(p1))
	}
	p2 := a.MustAlloc(100)
	if p2 == p1 {
		t.Fatal("overlapping allocations")
	}
	buf := a.Bytes(p1, 100)
	if len(buf) != 100 {
		t.Fatalf("Bytes len %d", len(buf))
	}
	a.Free(p1)
	a.Free(p2)
	if a.LiveAllocs() != 0 {
		t.Fatalf("live allocs %d after frees", a.LiveAllocs())
	}
}

func TestArenaExhaustionAndReuse(t *testing.T) {
	a := NewArena(4 * allocAlign) // reserved null page + 3 usable units
	var ptrs []Ptr
	for {
		p, err := a.Alloc(allocAlign)
		if err != nil {
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) != 3 {
		t.Fatalf("got %d allocations, want 3", len(ptrs))
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("expected out of memory")
	}
	for _, p := range ptrs {
		a.Free(p)
	}
	// After freeing everything, the full region must be reusable as one
	// block (coalescing works).
	if _, err := a.Alloc(3 * allocAlign); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
}

func TestArenaFreeNullIsNoop(t *testing.T) {
	a := NewArena(1 << 12)
	a.Free(Null)
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena(1 << 12)
	p := a.MustAlloc(64)
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestArenaOutOfBoundsAccessPanics(t *testing.T) {
	a := NewArena(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatal("OOB access did not panic")
		}
	}()
	a.Bytes(Ptr(1<<12-8), 64)
}

// mustFault fails t unless access panics like a device segfault.
func mustFault(t *testing.T, what string, access func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not fault", what)
		}
	}()
	access()
}

// A fresh allocation reads zero, including one at an address whose previous
// allocation was written and freed.
func TestArenaFreshAllocReadsZero(t *testing.T) {
	a := NewArena(1 << 20)
	for _, n := range []int{64, 4096} { // one carved from the slab, one not
		p := a.MustAlloc(n)
		buf := a.Bytes(p, n)
		for i := range buf {
			buf[i] = 0xAB
		}
		a.Free(p)
		q := a.MustAlloc(n)
		if q != p {
			t.Fatalf("first fit moved: %#x then %#x", int64(p), int64(q))
		}
		for i, b := range a.Bytes(q, n) {
			if b != 0 {
				t.Fatalf("size %d: byte %d of a reused address reads %#x", n, i, b)
			}
		}
	}
}

// Writes through one allocation are never visible through another.
func TestArenaAllocationsIsolated(t *testing.T) {
	a := NewArena(1 << 20)
	sizes := []int{1, 64, 256, 300, 1024, 1025, 5000, 8}
	ptrs := make([]Ptr, len(sizes))
	for i, n := range sizes {
		ptrs[i] = a.MustAlloc(n)
		buf := a.Bytes(ptrs[i], int(roundUp(int64(n))))
		for j := range buf {
			buf[j] = byte(i + 1)
		}
	}
	for i, n := range sizes {
		for j, b := range a.Bytes(ptrs[i], int(roundUp(int64(n)))) {
			if b != byte(i+1) {
				t.Fatalf("allocation %d byte %d reads %d, want %d", i, j, b, i+1)
			}
		}
	}
}

// An access outside every live allocation, or straddling two adjacent ones,
// faults.
func TestArenaAccessFaults(t *testing.T) {
	a := NewArena(1 << 16)
	p := a.MustAlloc(100)
	q := a.MustAlloc(100) // adjacent: q == p + allocAlign
	r := a.MustAlloc(100)
	a.Free(r)
	if q != p+allocAlign {
		t.Fatalf("allocations not adjacent: %#x, %#x", int64(p), int64(q))
	}
	mustFault(t, "null access", func() { a.Bytes(Null, 1) })
	mustFault(t, "access below the first allocation", func() { a.Bytes(p-1, 1) })
	mustFault(t, "access to a freed allocation", func() { a.Bytes(r, 1) })
	mustFault(t, "access past every allocation", func() { a.Bytes(r+allocAlign, 1) })
	mustFault(t, "access straddling two allocations", func() { a.Bytes(q-8, 16) })
	mustFault(t, "negative length", func() { a.Bytes(p, -1) })
	if got := len(a.Bytes(q-8, 8)); got != 8 {
		t.Fatalf("tail of an allocation: %d bytes", got)
	}
}

// An arena, or a device, the size of a real GPU's memory costs the host a
// few hundred bytes until something is allocated in it.
func TestArenaHostCost(t *testing.T) {
	const limit = 4 << 10
	s := sim.New()
	cfg := testCfg()
	cfg.MemBytes = 1 << 30
	for name, build := range map[string]func(){
		"NewArena": func() { NewArena(1 << 30) },
		"New":      func() { New(s, cfg) },
	} {
		if allocs := testing.AllocsPerRun(10, build); allocs > 4 {
			t.Errorf("%s(1 GiB): %.0f allocations", name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
			t.Errorf("%s(1 GiB): %d bytes of host memory, want < %d", name, n, limit)
		}
	}
	d := New(s, cfg)
	if got := []string{d.gridName, d.gridDoneName, d.dispatchName, d.blockPrefix}; !slices.Equal(got,
		[]string{"gpu0:grid", "gpu0:grid-done", "dispatch:gpu0", "gpu0:b"}) {
		t.Errorf("device labels %q", got)
	}
}

// hostBytes returns the host bytes f allocates.
func hostBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A block is backed on its first Bytes, not at Alloc: one never touched
// costs the host nothing, reads zero through CopyOut without being backed,
// and frees like any other; once backed it stays put, so its slices alias.
func TestArenaBacksOnFirstTouch(t *testing.T) {
	const n, small = 1 << 20, 4 << 10
	cfg := testCfg()
	cfg.MemBytes = 4 * n
	d := New(sim.New(), cfg)
	a := d.Mem()
	var p Ptr
	if got := hostBytes(func() { p = a.MustAlloc(n) }); got >= small {
		t.Fatalf("Alloc(1 MiB): %d host bytes before any access", got)
	}
	dst := make([]byte, n)
	for i := range dst {
		dst[i] = 0xAB
	}
	if got := hostBytes(func() { d.CopyOut(nil, &fakeBus{}, p, dst) }); got >= small {
		t.Fatalf("CopyOut of an untouched block: %d host bytes", got)
	}
	if i := slices.IndexFunc(dst, func(b byte) bool { return b != 0 }); i >= 0 {
		t.Fatalf("CopyOut of an untouched block: byte %d reads %#x", i, dst[i])
	}
	var x, y []byte
	if got := hostBytes(func() { x = a.Bytes(p, n) }); got < n {
		t.Fatalf("first Bytes: %d host bytes, want the block's %d", got, n)
	}
	if got := hostBytes(func() { y = a.Bytes(p+allocAlign, 8) }); got >= small {
		t.Fatalf("second Bytes backed again: %d host bytes", got)
	}
	x[allocAlign] = 7
	if y[0] != 7 {
		t.Fatal("two slices of one block do not alias")
	}
	d.CopyOut(nil, &fakeBus{}, p+allocAlign, dst[:1])
	if dst[0] != 7 {
		t.Fatalf("CopyOut of a touched block reads %d, want 7", dst[0])
	}

	q := a.MustAlloc(n)
	free := a.FreeBytes()
	a.Free(q) // never touched
	if a.FreeBytes() != free+n || a.LiveAllocs() != 1 {
		t.Fatalf("Free of an untouched block: %d free bytes, %d live", a.FreeBytes(), a.LiveAllocs())
	}
	mustFault(t, "access to a freed untouched block", func() { a.Bytes(q, 1) })
	mustFault(t, "CopyOut past an untouched block", func() {
		d.CopyOut(nil, &fakeBus{}, a.MustAlloc(100), make([]byte, allocAlign+1))
	})
}

func TestArenaZeroSizeAllocRejected(t *testing.T) {
	a := NewArena(1 << 12)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

// Property: any interleaving of allocs and frees keeps allocations
// non-overlapping, in-bounds and aligned, and the free-byte accounting
// consistent.
func TestArenaInvariantsProperty(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
		Which uint8
	}
	f := func(ops []op) bool {
		const size = 1 << 16
		a := NewArena(size)
		type allocRec struct {
			p Ptr
			n int64
		}
		var livePtrs []allocRec
		for _, o := range ops {
			if o.Alloc {
				n := int(o.Size%2048) + 1
				p, err := a.Alloc(n)
				if err != nil {
					continue // full is fine
				}
				need := roundUp(int64(n))
				// Bounds.
				if int64(p) < allocAlign || int64(p)+need > size {
					return false
				}
				// Addressable for its full rounded length.
				if len(a.Bytes(p, int(need))) != int(need) {
					return false
				}
				// Overlap with any live allocation.
				for _, r := range livePtrs {
					if int64(p) < int64(r.p)+r.n && int64(r.p) < int64(p)+need {
						return false
					}
				}
				livePtrs = append(livePtrs, allocRec{p, need})
			} else if len(livePtrs) > 0 {
				i := int(o.Which) % len(livePtrs)
				a.Free(livePtrs[i].p)
				livePtrs = append(livePtrs[:i], livePtrs[i+1:]...)
			}
		}
		// Accounting: free + live == total - reserved page.
		var liveBytes int64
		for _, r := range livePtrs {
			liveBytes += r.n
		}
		return a.FreeBytes()+liveBytes == size-allocAlign
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: freeing everything always coalesces back to one maximal span.
func TestArenaFullCoalesceProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		const size = 1 << 16
		a := NewArena(size)
		var ptrs []Ptr
		for _, s := range sizes {
			p, err := a.Alloc(int(s%4096) + 1)
			if err == nil {
				ptrs = append(ptrs, p)
			}
		}
		// Free in reverse order (stresses both coalesce directions over
		// the run).
		for i := len(ptrs) - 1; i >= 0; i-- {
			a.Free(ptrs[i])
		}
		if a.FreeBytes() != size-allocAlign {
			return false
		}
		// Must be able to grab the whole arena in one allocation.
		_, err := a.Alloc(size - allocAlign)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
