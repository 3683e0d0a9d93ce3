package compress

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"lcpio/internal/squant"
	"lcpio/internal/sz"
	"lcpio/internal/zfp"
)

// oneShot is each codec package's own one-shot API, the reference every
// entry point of this package must reproduce byte for byte.
var oneShot = map[string]struct {
	c32 func([]float32, []int, float64) ([]byte, error)
	c64 func([]float64, []int, float64) ([]byte, error)
	d32 func([]byte) ([]float32, []int, error)
}{
	"sz":     {sz.Compress, sz.Compress64, sz.Decompress},
	"zfp":    {zfp.Compress, zfp.Compress64, zfp.Decompress},
	"squant": {squant.Compress, squant.Compress64, squant.Decompress},
}

// equivalenceShapes are reused in order by one handle: the large shape
// splits into several sz partitions and zfp shards, the small one into
// fewer, so the second large call runs on tables that shrank and grew back.
var equivalenceShapes = [][]int{{8, 96, 96}, {300, 200}, {8, 96, 96}}

func equivalenceField(dims []int) ([]float32, []float64) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	for i := range f64 {
		f64[i] = math.Sin(float64(i%dims[len(dims)-1])/23) + 0.01*float64(i/dims[len(dims)-1]) +
			1e-3*math.Cos(float64(i)*0.37)
		f32[i] = float32(f64[i])
	}
	return f32, f64
}

func mustStream(t *testing.T, what string, got []byte, err error, want []byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d-byte stream differs from the %d-byte reference", what, len(got), len(want))
	}
}

func TestEntryPointsByteIdentical(t *testing.T) {
	const eb = 1e-3
	names := Names()
	if len(names) != len(oneShot) {
		t.Fatalf("Names() = %v; the reference table has %d codecs", names, len(oneShot))
	}
	for _, name := range names {
		ref, ok := oneShot[name]
		if !ok {
			t.Fatalf("codec %q has no one-shot reference", name)
		}
		// The references do not depend on the worker count.
		type reference struct {
			data     []float32
			data64   []float64
			want     []byte
			want64   []byte
			wantVals []float32
			vals64   []float64
		}
		refs := make([]reference, len(equivalenceShapes))
		for si, dims := range equivalenceShapes {
			r := &refs[si]
			r.data, r.data64 = equivalenceField(dims)
			var err error
			if r.want, err = ref.c32(r.data, dims, eb); err != nil {
				t.Fatal(err)
			}
			if r.want64, err = Compress64(name, r.data64, dims, eb); err != nil {
				t.Fatal(err)
			}
			pkg64, err := ref.c64(r.data64, dims, eb)
			mustStream(t, name+" Compress64 vs package", r.want64, err, pkg64)
			if r.wantVals, _, err = ref.d32(r.want); err != nil {
				t.Fatal(err)
			}
			if r.vals64, _, err = Decompress64(name, r.want64); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{0, 1, 2, 4} {
			c, err := LookupParallel(name, workers)
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewHandle(name, workers)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name || h.Name() != name {
				t.Fatalf("%s/%d: codec reports %q, handle %q", name, workers, c.Name(), h.Name())
			}
			var dst, dst64 []byte
			for si, dims := range equivalenceShapes {
				data, data64, want, want64 := refs[si].data, refs[si].data64, refs[si].want, refs[si].want64
				at := func(entry string) string {
					return fmt.Sprintf("%s/%s/workers=%d/call=%d", name, entry, workers, si)
				}
				if workers == 0 {
					lc, err := Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					got, err := lc.Compress(data, dims, eb)
					mustStream(t, at("Lookup"), got, err, want)
				}
				got, err := c.Compress(data, dims, eb)
				mustStream(t, at("LookupParallel"), got, err, want)
				got, err = h.Compress(data, dims, eb)
				mustStream(t, at("Handle.Compress"), got, err, want)
				dst, err = h.CompressAppend(dst[:0], data, dims, eb)
				mustStream(t, at("Handle.CompressAppend"), dst, err, want)
				got, err = h.Compress64(data64, dims, eb)
				mustStream(t, at("Handle.Compress64"), got, err, want64)
				dst64, err = h.CompressAppend64(dst64[:0], data64, dims, eb)
				mustStream(t, at("Handle.CompressAppend64"), dst64, err, want64)

				// The decode entry points agree with the package's own.
				cv, _, err := c.Decompress(want)
				if err != nil || !slices.Equal(cv, refs[si].wantVals) {
					t.Fatalf("%s: Codec.Decompress differs (err %v)", at("Decompress"), err)
				}
				hv, _, err := h.Decompress(want)
				if err != nil || !slices.Equal(hv, refs[si].wantVals) {
					t.Fatalf("%s: Handle.Decompress differs (err %v)", at("Decompress"), err)
				}
				h64, _, err := h.Decompress64(want64)
				if err != nil || !slices.Equal(h64, refs[si].vals64) {
					t.Fatalf("%s: Handle.Decompress64 differs (err %v)", at("Decompress64"), err)
				}
			}
		}
	}
}

func TestEntryPointsRejectUnknownCodecAlike(t *testing.T) {
	const name = "gzip"
	_, lookupErr := Lookup(name)
	_, parErr := LookupParallel(name, 2)
	_, handleErr := NewHandle(name, 1)
	_, c64Err := Compress64(name, []float64{1}, []int{1}, 1e-3)
	_, _, d64Err := Decompress64(name, nil)
	errs := map[string]error{
		"Lookup": lookupErr, "LookupParallel": parErr, "NewHandle": handleErr,
		"Compress64": c64Err, "Decompress64": d64Err,
	}
	if lookupErr == nil {
		t.Fatal("Lookup accepted an unknown codec")
	}
	for entry, err := range errs {
		if err == nil {
			t.Fatalf("%s accepted an unknown codec", entry)
		}
		if err.Error() != lookupErr.Error() {
			t.Errorf("%s: %q, Lookup: %q", entry, err, lookupErr)
		}
	}
}

// TestLookupDoesNotAllocate: container and ckpt validate codec names through
// Lookup once per chunk, so it returns the table entry's shared Codec.
func TestLookupDoesNotAllocate(t *testing.T) {
	for _, name := range Names() {
		if n := testing.AllocsPerRun(100, func() { _, _ = Lookup(name) }); n != 0 {
			t.Errorf("Lookup(%q): %v allocs/op, want 0", name, n)
		}
	}
}
